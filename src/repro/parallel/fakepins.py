"""Fake pins and per-rank sub-circuits (paper §4).

"To ensure connectivity of a net across partitions, it might be necessary
to introduce fake pins ... we let one of the processors build the Steiner
tree for each whole net, and then we add the fake pins according to the
segments of the Steiner trees.  If a segment crosses the boundary of a
partition, then we add a fake pin at the crossing point."

A partition boundary ``b`` sits between rows ``b - 1`` and ``b`` — i.e.
*inside channel* ``b``.  A tree segment crossing it contributes two fake
pins at the crossing column: one at row ``b - 1``, top side, for the lower
block, and one at row ``b``, bottom side, for the upper block.  Both
attach to channel ``b``, the shared boundary channel, so the two
half-nets meet without any extra feedthrough.  Fake pins belong to no
cell and never shift when feedthroughs widen rows.

The crossing column follows the same convention as
:func:`repro.steiner.tree.clip_tree_to_rows`: a diagonal segment runs
vertically at its lower endpoint's column, so that is where it pierces
every boundary below its bend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.circuits.model import Circuit, PinKind
from repro.circuits.validate import validate_circuit
from repro.geometry import Segment
from repro.parallel.partition import RowPartition
from repro.perfmodel.counter import WorkCounter, NULL_COUNTER
from repro.steiner.tree import NetTree, clip_segments, tree_segments


def crossing_columns(tree: NetTree, boundary: int, select: str = "median") -> List[int]:
    """Columns at which a net's tree crosses ``boundary``.

    With ``select="median"`` (the default used by the routers) a single
    representative crossing — the median column — is returned.  One
    crossing per (net, boundary) suffices for connectivity: each fragment
    is internally connected by its own step 4, so a single bridge joins
    the two sides, and both ranks compute the same column from the same
    (allgathered) whole-net tree.  Attaching a fake-pin pair at *every*
    crossing would make both fragments build redundant rails along the
    shared channel, multiplying the paper's Fig. 3 effect.

    ``select="all"`` returns every distinct crossing column (sorted), for
    analysis and tests.
    """
    return segment_crossings(tree_segments(tree), boundary, select)


def segment_crossings(
    segments: Sequence[Segment], boundary: int, select: str = "median"
) -> List[int]:
    """:func:`crossing_columns` over a tree's :func:`tree_segments`.

    Segments must be canonical (``a.row <= b.row``, as
    :meth:`Segment.make` builds them), so ``a`` is the lower endpoint
    whose column the vertical run takes.
    """
    ordered = sorted({s.a.x for s in segments if s.a.row < boundary <= s.b.row})
    if not ordered or select == "all":
        return ordered
    if select != "median":
        raise ValueError(f"unknown crossing selection {select!r}")
    return [ordered[(len(ordered) - 1) // 2]]


@dataclass(slots=True)
class LocalBlock:
    """A rank's row-wise sub-circuit.

    ``circuit`` keeps the *global* row structure (rows outside the block
    are simply empty) so row/channel indices need no translation; cell,
    pin and net ids are local.  ``net_l2g``/``net_g2l`` map between local
    and global net ids; ``segments`` holds each local net's clipped tree
    segments as ``(local_net, segment, locked)`` pool entries.
    """

    rank: int
    row_lo: int
    row_hi: int  # inclusive
    circuit: Circuit = field(default_factory=Circuit)
    net_l2g: List[int] = field(default_factory=list)
    net_g2l: Dict[int, int] = field(default_factory=dict)
    pool: List[Tuple[int, Segment, bool]] = field(default_factory=list)
    num_fake_pins: int = 0

    @property
    def channel_lo(self) -> int:
        """Bottom channel of the block (shared with the rank below)."""
        return self.row_lo

    @property
    def channel_hi(self) -> int:
        """Top channel of the block (shared with the rank above)."""
        return self.row_hi + 1


def extract_block(
    circuit: Circuit,
    trees: Dict[int, NetTree],
    row_part: RowPartition,
    rank: int,
    validate: bool = False,
    counter: WorkCounter = NULL_COUNTER,
) -> LocalBlock:
    """Build rank ``rank``'s sub-circuit with fake pins and clipped trees.

    A net appears locally when it has a pin in the block *or* its tree
    passes through (in which case it exists purely as fake pins plus a
    vertical segment demanding feedthroughs).

    Modeled cost: the paper's processors each walk the whole pin list and
    every net's tree edges (two boundary scans and one clipping scan) to
    find what falls in their block.  That replicated scan is charged to
    the work counter per net (kind ``"setup"``) as one of the Amdahl terms
    that keep the row-wise/hybrid speedups below linear, whatever the host
    actually does.

    Host cost: a net whose tree rows miss the block is skipped after its
    pin check, and every other net's tree is cut into segments once for
    both crossings and the clipping.
    """
    row_lo, row_hi = row_part.block_of(rank)
    block = LocalBlock(rank=rank, row_lo=row_lo, row_hi=row_hi)
    local = Circuit(f"{circuit.name}#r{rank}")
    block.circuit = local

    for _ in range(circuit.num_rows):
        local.add_row()

    # Cells of the block, preserving geometry.
    cells = circuit.cells
    cell_g2l: Dict[int, int] = {}
    for row in range(row_lo, row_hi + 1):
        for gcid in circuit.rows[row].cells:
            c = cells[gcid]
            cell_g2l[gcid] = local.add_cell(c.row, c.x, c.width, is_feed=c.is_feed).id

    lower_boundary = row_lo if row_lo > 0 else None
    upper_boundary = row_hi + 1 if row_hi + 1 < circuit.num_rows else None

    charge = counter.add
    pins = circuit.pins
    for net in circuit.nets:
        tree = trees.get(net.id)
        charge("setup", 1 + len(net.pins))
        if tree is not None:
            # two boundary scans + one clipping scan over the tree edges
            charge("setup", 3 * len(tree.edges))
        # (cell_l, offset, side, equiv)
        local_pins: List[Tuple[int, int, int, bool]] = []
        for pid in net.pins:
            p = pins[pid]
            if row_lo <= p.row <= row_hi:
                local_pins.append(
                    (cell_g2l[p.cell], p.x - cells[p.cell].x, p.side, p.has_equiv)
                )
        segments: List[Segment] = []
        if tree is not None and tree.edges:
            rows = [pt.row for pt in tree.points]
            if min(rows) <= row_hi and max(rows) >= row_lo:
                segments = tree_segments(tree)
        fake_positions: List[Tuple[int, int, int]] = []  # (x, row, side)
        if segments:
            if lower_boundary is not None:
                for x in segment_crossings(segments, lower_boundary):
                    fake_positions.append((x, row_lo, -1))
            if upper_boundary is not None:
                for x in segment_crossings(segments, upper_boundary):
                    fake_positions.append((x, row_hi, +1))
        if not local_pins and not fake_positions:
            continue

        lnet = local.add_net(net.name)
        block.net_l2g.append(net.id)
        block.net_g2l[net.id] = lnet.id
        for cell_l, offset, side, equiv in local_pins:
            local.add_pin(
                net=lnet.id, cell=cell_l, offset=offset, side=side,
                has_equiv=equiv, kind=PinKind.CELL,
            )
        for x, row, side in fake_positions:
            local.add_pin(
                net=lnet.id, cell=-1, side=side, has_equiv=False,
                kind=PinKind.FAKE, x=x, row=row,
            )
            block.num_fake_pins += 1

        for seg in clip_segments(segments, row_lo, row_hi):
            locked = (not seg.is_flat) and seg.a.row == row_lo - 1
            block.pool.append((lnet.id, seg, locked))

    if validate:
        validate_circuit(local, allow_unbound_feeds=True)
    return block
