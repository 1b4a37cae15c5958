"""Parameterized synthetic circuit generation.

The MCNC layout-synthesis benchmarks used in the paper are not
redistributable, so experiments run on synthetic circuits that match each
benchmark's *statistics*: row/cell/net/pin counts, the net-degree
distribution (mostly 2–4 pin nets with a long tail, plus optional huge
clock nets as in ``avq.large``), and spatial locality of net pins (a net's
pins cluster around an anchor cell, with a small fraction of global nets).

Those statistics are what the routing algorithms are sensitive to: net
degree drives Steiner-tree work (and hence the pin-number-weight partition
of paper §5), locality drives channel congestion and the fake-pin count of
the row-wise algorithm, and row count bounds usable parallelism.

Contract: the order and arguments of the ``rng`` draws *are* a circuit's
identity.  The plain-Python code around them may change; the draws change
only together with the golden routes and ``perfbench/expected.json``.
``tests/circuits/test_generator_identity.py`` pins them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.circuits.model import Circuit, PinKind
from repro.circuits.validate import validate_circuit


@dataclass(frozen=True, slots=True)
class SyntheticSpec:
    """Recipe for one synthetic circuit.

    ``clock_net_degrees`` lists the degrees of special huge nets (e.g. the
    >2000-pin clock lines in avq.large, paper §5); they span the entire
    core uniformly.
    """

    name: str
    rows: int
    cells: int
    nets: int
    #: mean net degree for the geometric tail; actual degree = 2 + Geom.
    mean_degree: float = 3.0
    #: fraction of nets that ignore locality and spread over the core
    global_net_fraction: float = 0.05
    #: std-dev of a local net's row spread, in *rows* — placement puts
    #: connected cells in the same or neighbouring rows, independent of
    #: how tall the circuit is (this is what makes same-row *switchable*
    #: net segments as common as TWGR step 5 assumes)
    row_locality: float = 0.6
    #: std-dev of a local net's x spread, as a fraction of the row width
    x_locality: float = 0.10
    #: probability a pin exposes an electrically-equivalent twin
    equiv_prob: float = 0.9
    min_cell_width: int = 3
    max_cell_width: int = 8
    clock_net_degrees: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rows < 2:
            raise ValueError("need at least 2 rows")
        if self.cells < self.rows:
            raise ValueError("need at least one cell per row")
        if self.nets < 1:
            raise ValueError("need at least one net")
        if self.mean_degree < 2.0:
            raise ValueError("mean net degree must be >= 2")

    def scaled(self, scale: float) -> "SyntheticSpec":
        """Shrink cells/nets (and clock-net degrees) by ``scale``, keeping
        the row count and all distribution shapes.

        Scaling preserves the quality *ratios* and speedup shapes the
        experiments measure while keeping pure-Python runtimes tractable;
        ``tests/integration/test_scale_stability.py`` checks this.
        """
        if not 0 < scale <= 1:
            raise ValueError("scale must be in (0, 1]")
        if scale == 1.0:
            return self
        return SyntheticSpec(
            name=self.name,
            rows=self.rows,
            cells=max(self.rows * 2, int(round(self.cells * scale))),
            nets=max(1, int(round(self.nets * scale))),
            mean_degree=self.mean_degree,
            global_net_fraction=self.global_net_fraction,
            row_locality=self.row_locality,
            x_locality=self.x_locality,
            equiv_prob=self.equiv_prob,
            min_cell_width=self.min_cell_width,
            max_cell_width=self.max_cell_width,
            clock_net_degrees=tuple(
                max(8, int(round(d * scale))) for d in self.clock_net_degrees
            ),
        )


def generate_circuit(spec: SyntheticSpec, seed: int = 0, validate: bool = True) -> Circuit:
    """Generate a circuit from ``spec`` deterministically for a given seed."""
    rng = np.random.default_rng(seed)
    integers, uniform, normal = rng.integers, rng.uniform, rng.normal
    circuit = Circuit(spec.name)

    # --- place cells: spread evenly over rows, pack left to right -------
    # Each row keeps its cell centres and ids in x order (rows are packed
    # left to right, so placement order is x order) for nearest_cell.
    per_row = _split_evenly(spec.cells, spec.rows, rng)
    widths = integers(spec.min_cell_width, spec.max_cell_width + 1, size=spec.cells).tolist()
    row_centers: List[List[float]] = []
    row_ids: List[List[int]] = []
    add_cell = circuit.add_cell
    w_idx = 0
    for r in range(spec.rows):
        circuit.add_row()
    for r, count in enumerate(per_row):
        centers: List[float] = []
        ids: List[int] = []
        x = 0
        for w in widths[w_idx:w_idx + count]:
            ids.append(add_cell(r, x, w).id)
            centers.append(x + w / 2)
            x += w
        w_idx += count
        row_centers.append(centers)
        row_ids.append(ids)
    core_width = circuit.max_row_width()

    def nearest_cell(x: float, row: int) -> int:
        """Cell in ``row`` whose center is closest to ``x`` (ties go left).

        Every row holds a cell: ``SyntheticSpec`` demands ``cells >= rows``
        and ``_split_evenly`` keeps each row at one cell or more.
        """
        centers = row_centers[row]
        i = bisect_left(centers, x)
        if i == len(centers) or (i and x - centers[i - 1] <= centers[i] - x):
            i -= 1
        return row_ids[row][i]

    # --- regular nets ----------------------------------------------------
    n_regular = spec.nets - len(spec.clock_net_degrees)
    if n_regular < 0:
        raise ValueError("more clock nets than total nets")
    extra = np.clip(rng.geometric(1.0 / max(spec.mean_degree - 1.0, 1e-9), size=n_regular) - 1, 0, 64)
    degrees = (2 + extra).tolist()
    is_global = (rng.random(n_regular) < spec.global_net_fraction).tolist()
    row_sigma = max(0.3, spec.row_locality)
    x_sigma = max(2.0, spec.x_locality * core_width)
    top_row = spec.rows - 1
    x_max = core_width - 1
    add_net = circuit.add_net

    for deg, glob in zip(degrees, is_global):
        net = add_net()
        chosen: set[int] = set()
        if not glob:
            anchor_row = int(integers(0, spec.rows))
            anchor_x = uniform(0, core_width)
        attempts = 0
        while len(chosen) < deg and attempts < deg * 20:
            attempts += 1
            if glob:
                row = int(integers(0, spec.rows))
                x = uniform(0, core_width)
            else:
                row = round(anchor_row + normal(0, row_sigma))
                row = 0 if row < 0 else top_row if row > top_row else row
                x = anchor_x + normal(0, x_sigma)
                x = 0.0 if x < 0 else x_max if x > x_max else x
            chosen.add(nearest_cell(x, row))
        if len(chosen) < 2:
            # degenerate corner (tiny circuit): add the lowest-id other cell
            chosen.add(0 if 0 not in chosen else 1)
        _attach_pins(circuit, net.id, sorted(chosen), widths, rng, spec.equiv_prob)

    # --- clock-like huge nets --------------------------------------------
    for k, deg in enumerate(spec.clock_net_degrees):
        net = add_net(f"clk{k}")
        chosen_idx = rng.choice(spec.cells, size=min(deg, spec.cells), replace=False)
        _attach_pins(circuit, net.id, sorted(chosen_idx.tolist()), widths, rng, spec.equiv_prob)

    if validate:
        validate_circuit(circuit)
    return circuit


def _attach_pins(
    circuit: Circuit,
    net_id: int,
    cells: Sequence[int],
    widths: Sequence[int],
    rng: np.random.Generator,
    equiv_prob: float,
) -> None:
    integers, random, add_pin = rng.integers, rng.random, circuit.add_pin
    for cid in cells:
        offset = int(integers(0, widths[cid]))
        side = 1 if random() < 0.5 else -1
        add_pin(
            net=net_id,
            cell=cid,
            offset=offset,
            side=side,
            has_equiv=bool(random() < equiv_prob),
            kind=PinKind.CELL,
        )


def _split_evenly(total: int, parts: int, rng: np.random.Generator) -> List[int]:
    """Split ``total`` into ``parts`` near-equal counts (tiny jitter for
    realism, every part >= 1)."""
    base = total // parts
    rem = total - base * parts
    counts = [base + (1 if i < rem else 0) for i in range(parts)]
    # jitter +-5% while preserving the sum and positivity
    for _ in range(parts // 2):
        i, j = rng.integers(0, parts, size=2)
        delta = int(min(counts[i] - 1, max(1, base // 20)))
        if delta > 0 and i != j:
            counts[i] -= delta
            counts[j] += delta
    return counts
