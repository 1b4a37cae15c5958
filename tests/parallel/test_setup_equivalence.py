"""The one-pass SPMD set-up must equal the straightforward scans it replaced.

Each rank of the parallel routers partitions rows and nets and carves its
row block out of the allgathered Steiner trees.  The production code does
this in single passes with early exits; the oracles below are the direct
whole-circuit scans (one ``np.zeros`` per net, ``np.argmin`` per
assignment, ``tree_segments`` three times per net).  Outputs — row
bounds, net owners, sort keys, every field of a :class:`LocalBlock` — and
the sequence of work charges must be identical, because the modeled
``setup`` time and every routed result derive from them.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np
import pytest

from repro.circuits import PinKind, mcnc
from repro.circuits.generator import SyntheticSpec, generate_circuit
from repro.circuits.model import Circuit
from repro.geometry import Point, Segment
from repro.parallel import (
    NET_SCHEMES,
    LocalBlock,
    RowPartition,
    crossing_columns,
    extract_block,
    net_weights,
    partition_nets,
)
from repro.steiner import NetTree, build_net_tree
from repro.steiner.tree import clip_tree_to_rows, tree_segments


# -- oracles ----------------------------------------------------------------

def oracle_balanced(circuit: Circuit, nprocs: int) -> Tuple[int, ...]:
    nrows = circuit.num_rows
    pins_per_row = np.zeros(nrows, dtype=np.int64)
    for pin in circuit.pins:
        if 0 <= pin.row < nrows:
            pins_per_row[pin.row] += 1
    total = int(pins_per_row.sum())
    bounds = [0]
    acc = 0
    next_row = 0
    for k in range(1, nprocs):
        target = total * k / nprocs
        row = next_row
        while row < nrows - (nprocs - k) and acc + pins_per_row[row] / 2 < target:
            acc += int(pins_per_row[row])
            row += 1
        row = max(row, bounds[-1] + 1)
        bounds.append(row)
        next_row = row
    bounds.append(nrows)
    return tuple(bounds)


def oracle_net_weights(circuit, scheme, row_part=None, alpha=2.0) -> List[Tuple]:
    keys: List[Tuple] = []
    for net in circuit.nets:
        pins = circuit.net_pins(net.id)
        if not pins:
            keys.append((0.0, net.id))
            continue
        if scheme == "center":
            keys.append((sum(p.row for p in pins) / len(pins), net.id))
        elif scheme == "locus":
            keys.append((min(p.x for p in pins), min(p.row for p in pins), net.id))
        elif scheme == "density":
            counts = np.zeros(row_part.nprocs, dtype=np.int64)
            for p in pins:
                counts[row_part.owner_of_row(p.row)] += 1
            owner = int(np.argmax(counts))
            keys.append((owner, sum(p.row for p in pins) / len(pins), net.id))
        else:
            keys.append((-float(len(pins)) ** alpha, net.id))
    return keys


def oracle_partition_nets(circuit, nprocs, scheme, row_part=None, alpha=2.0):
    owner = np.zeros(len(circuit.nets), dtype=np.int64)
    if nprocs == 1 or not circuit.nets:
        return owner
    keys = oracle_net_weights(circuit, scheme, row_part=row_part, alpha=alpha)
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    if scheme == "pin_weight":
        load = np.zeros(nprocs, dtype=np.float64)
        for net_id in order:
            k = int(np.argmin(load))
            owner[net_id] = k
            load[k] += float(circuit.nets[net_id].degree) ** alpha
        return owner
    target = sum(n.degree for n in circuit.nets) / nprocs
    proc = 0
    acc = 0
    for net_id in order:
        owner[net_id] = proc
        acc += circuit.nets[net_id].degree
        if acc >= target * (proc + 1) and proc < nprocs - 1:
            proc += 1
    return owner


def oracle_crossing_columns(tree: NetTree, boundary: int) -> List[int]:
    cols: Set[int] = set()
    for seg in tree_segments(tree):
        if seg.crosses_row_boundary(boundary):
            bottom = seg.a if seg.a.row <= seg.b.row else seg.b
            cols.add(bottom.x)
    ordered = sorted(cols)
    if not ordered:
        return []
    return [ordered[(len(ordered) - 1) // 2]]


def oracle_clip(tree: NetTree, row_lo: int, row_hi: int) -> List[Segment]:
    out: List[Segment] = []
    for seg in tree_segments(tree):
        lo, hi = seg.row_span
        if hi < row_lo or lo > row_hi:
            continue
        if lo >= row_lo and hi <= row_hi:
            out.append(seg)
            continue
        bottom, top = (seg.a, seg.b) if seg.a.row <= seg.b.row else (seg.b, seg.a)
        p_low = bottom if bottom.row >= row_lo else Point(bottom.x, row_lo - 1)
        p_high = top if top.row <= row_hi else Point(bottom.x, row_hi + 1)
        if p_low == p_high:
            continue
        out.append(Segment.make(p_low, p_high))
    return out


def oracle_extract_block(circuit, trees, row_part, rank, counter) -> LocalBlock:
    row_lo, row_hi = row_part.block_of(rank)
    block = LocalBlock(rank=rank, row_lo=row_lo, row_hi=row_hi)
    local = Circuit(f"{circuit.name}#r{rank}")
    block.circuit = local
    for _ in range(circuit.num_rows):
        local.add_row()
    cell_g2l: Dict[int, int] = {}
    for row in range(row_lo, row_hi + 1):
        for gcid in circuit.rows[row].cells:
            c = circuit.cells[gcid]
            cell_g2l[gcid] = local.add_cell(c.row, c.x, c.width, is_feed=c.is_feed).id
    lower_boundary = row_lo if row_lo > 0 else None
    upper_boundary = row_hi + 1 if row_hi + 1 < circuit.num_rows else None
    for net in circuit.nets:
        tree = trees.get(net.id)
        counter.add("setup", 1 + len(net.pins))
        if tree is not None:
            counter.add("setup", 3 * len(tree.edges))
        local_pins = []
        for pid in net.pins:
            p = circuit.pins[pid]
            if row_lo <= p.row <= row_hi:
                local_pins.append(
                    (cell_g2l[p.cell], p.x - circuit.cells[p.cell].x,
                     p.side, p.has_equiv)
                )
        fake_positions = []
        if tree is not None:
            if lower_boundary is not None:
                for x in oracle_crossing_columns(tree, lower_boundary):
                    fake_positions.append((x, row_lo, -1))
            if upper_boundary is not None:
                for x in oracle_crossing_columns(tree, upper_boundary):
                    fake_positions.append((x, row_hi, +1))
        if not local_pins and not fake_positions:
            continue
        lnet = local.add_net(net.name)
        block.net_l2g.append(net.id)
        block.net_g2l[net.id] = lnet.id
        for cell_l, offset, side, equiv in local_pins:
            local.add_pin(net=lnet.id, cell=cell_l, offset=offset, side=side,
                          has_equiv=equiv, kind=PinKind.CELL)
        for x, row, side in fake_positions:
            local.add_pin(net=lnet.id, cell=-1, side=side, has_equiv=False,
                          kind=PinKind.FAKE, x=x, row=row)
            block.num_fake_pins += 1
        if tree is not None:
            for seg in oracle_clip(tree, row_lo, row_hi):
                locked = (not seg.is_flat) and seg.row_span[0] == row_lo - 1
                block.pool.append((lnet.id, seg, locked))
    return block


# -- fixtures ---------------------------------------------------------------

class Recorder:
    """A work counter remembering every charge in order."""

    def __init__(self) -> None:
        self.calls: List[Tuple[str, float]] = []

    def add(self, kind: str, units: float) -> None:
        self.calls.append((kind, units))


def with_degenerate_nets(circuit: Circuit) -> Circuit:
    """Add 0-pin and 1-pin nets (interleaved ids, several rows)."""
    circuit.add_net("empty_a")
    for row in (0, circuit.num_rows // 2, circuit.num_rows - 1):
        cell = circuit.rows[row].cells[0]
        net = circuit.add_net(f"single_r{row}")
        circuit.add_pin(net=net.id, cell=cell, offset=0, side=-1)
    circuit.add_net("empty_b")
    return circuit


def whole_trees(circuit: Circuit) -> Dict[int, NetTree]:
    return {
        net.id: build_net_tree(net.id, circuit.net_points(net.id))
        for net in circuit.nets
    }


CIRCUITS = {
    "primary1": lambda: mcnc.generate("primary1", seed=2),
    "struct@0.5": lambda: mcnc.generate("struct", scale=0.5, seed=1),
    "synthetic+degenerate": lambda: with_degenerate_nets(generate_circuit(
        SyntheticSpec(name="syn", rows=9, cells=200, nets=220, mean_degree=3.4,
                      clock_net_degrees=(40,)),
        seed=5,
    )),
    "tall-synthetic": lambda: generate_circuit(
        SyntheticSpec(name="tall", rows=30, cells=240, nets=150, mean_degree=2.5,
                      row_locality=3.0),
        seed=9,
    ),
}


@pytest.fixture(scope="module", params=sorted(CIRCUITS))
def case(request):
    circuit = CIRCUITS[request.param]()
    return circuit, whole_trees(circuit)


@pytest.fixture(scope="module")
def biomed():
    """Full-scale biomed: 5742 nets including the 692-pin clock net."""
    circuit = mcnc.generate("biomed", seed=1)
    assert max(n.degree for n in circuit.nets) == 692
    return circuit, whole_trees(circuit)


def proc_counts(circuit: Circuit) -> List[int]:
    nrows = circuit.num_rows
    return sorted({p for p in (1, 2, 3, 5, 8, nrows) if p <= nrows})


def assert_same_partitions(circuit: Circuit) -> None:
    for nprocs in proc_counts(circuit):
        bounds = oracle_balanced(circuit, nprocs)
        row_part = RowPartition.balanced(circuit, nprocs)
        assert row_part.bounds == bounds, nprocs
        for scheme in NET_SCHEMES:
            # alpha only shapes the pin_weight keys
            for alpha in (1.0, 2.0) if scheme == "pin_weight" else (2.0,):
                got = partition_nets(circuit, nprocs, scheme, row_part, alpha)
                want = oracle_partition_nets(circuit, nprocs, scheme, row_part, alpha)
                assert got.dtype == want.dtype
                assert got.tolist() == want.tolist(), (nprocs, scheme, alpha)
                assert (
                    net_weights(circuit, scheme, row_part, alpha)
                    == oracle_net_weights(circuit, scheme, row_part, alpha)
                ), (nprocs, scheme, alpha)


def assert_same_block(got: LocalBlock, want: LocalBlock) -> None:
    assert (got.rank, got.row_lo, got.row_hi) == (want.rank, want.row_lo, want.row_hi)
    assert got.net_l2g == want.net_l2g
    assert got.net_g2l == want.net_g2l
    assert got.num_fake_pins == want.num_fake_pins
    assert got.pool == want.pool
    g, w = got.circuit, want.circuit
    assert g.name == w.name
    assert g.rows == w.rows
    assert g.cells == w.cells
    assert g.nets == w.nets
    assert g.pins == w.pins
    assert g._fake_pins_by_row == w._fake_pins_by_row


def assert_same_blocks(circuit, trees, nprocs, ranks=None) -> None:
    row_part = RowPartition.balanced(circuit, nprocs)
    for rank in ranks if ranks is not None else range(nprocs):
        got_charges, want_charges = Recorder(), Recorder()
        got = extract_block(circuit, trees, row_part, rank, counter=got_charges)
        want = oracle_extract_block(circuit, trees, row_part, rank, want_charges)
        assert_same_block(got, want)
        assert got_charges.calls == want_charges.calls, (nprocs, rank)


# -- tests ------------------------------------------------------------------

def test_partitions_match_oracle(case):
    circuit, _ = case
    assert_same_partitions(circuit)


def test_blocks_and_charges_match_oracle(case):
    circuit, trees = case
    for nprocs in proc_counts(circuit):
        assert_same_blocks(circuit, trees, nprocs)


def test_blocks_match_oracle_with_missing_trees(case):
    """Nets without a tree are carved from their pins alone."""
    circuit, trees = case
    partial = {nid: t for nid, t in trees.items() if nid % 3}
    for nprocs in (2, 5):
        assert_same_blocks(circuit, partial, nprocs)


def test_biomed_partitions_match_oracle(biomed):
    circuit, _ = biomed
    assert_same_partitions(circuit)


def test_biomed_blocks_match_oracle(biomed):
    circuit, trees = biomed
    for nprocs in proc_counts(circuit):
        # both end ranks and a middle one (single-row blocks at
        # nprocs == num_rows) keep the oracle affordable
        ranks = sorted({0, nprocs // 2, nprocs - 1})
        assert_same_blocks(circuit, trees, nprocs, ranks)


def test_crossing_columns_and_clip_match_oracle(case):
    circuit, trees = case
    for tree in trees.values():
        for boundary in range(1, circuit.num_rows):
            assert crossing_columns(tree, boundary) == oracle_crossing_columns(
                tree, boundary
            )
        for row_lo in range(circuit.num_rows):
            for row_hi in (row_lo, min(row_lo + 2, circuit.num_rows - 1)):
                assert clip_tree_to_rows(tree, row_lo, row_hi) == oracle_clip(
                    tree, row_lo, row_hi
                )


def test_partition_nets_validates_before_early_return():
    circuit = mcnc.generate("primary1", scale=0.1, seed=1)
    with pytest.raises(ValueError, match="unknown net scheme"):
        partition_nets(circuit, 1, scheme="bogus")
    with pytest.raises(ValueError, match="row partition"):
        partition_nets(circuit, 1, scheme="density", row_part=None)
    empty = Circuit("empty")
    empty.add_row()
    with pytest.raises(ValueError, match="unknown net scheme"):
        partition_nets(empty, 4, scheme="bogus")
    with pytest.raises(ValueError, match="row partition"):
        partition_nets(empty, 4, scheme="density")
