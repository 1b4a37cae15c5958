"""Row and net partitioning (paper §3–§5).

Rows are always partitioned *contiguously* across processors ("since
there are computation localities among rows", §3), cells follow their
rows, and cell pins follow their cells.  On top of that, the paper's
net-partition heuristics decide which processor owns each net — and hence
its pins, in the net-wise algorithm, and its Steiner-tree construction in
all three algorithms:

* **center** — weight a net by the row coordinate of its pin centroid, so
  vertically-close nets (which compete for the same channels) cluster;
* **locus** — weight by the lower-left corner of the net's bounding box
  (x major, row minor), clustering geometrically-related nets (after
  Rose's LocusRoute);
* **density** — weight by the row-block processor holding most of the
  net's pins, maximizing pin locality under the row partition;
* **pin_weight** — weight by ``-(pins)^alpha`` so that huge nets (whose
  :math:`O(p^2)` Steiner construction dominates) are scheduled first and
  spread round-robin across processors.

The generic assignment follows the paper: sort nets by weight, then fill
processor 0, 1, ... each until its pin total exceeds the average.  The
pin-weight scheme instead places each net (largest first) on the
processor with the least accumulated Steiner work, which realizes the
paper's "evenly distribute large nets in a round-robin manner" and
degrades gracefully to round-robin when sizes tie.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.circuits.model import Circuit

NET_SCHEMES = ("center", "locus", "density", "pin_weight")


@dataclass(frozen=True, slots=True)
class RowPartition:
    """Contiguous row blocks: rank ``k`` owns rows ``[bounds[k], bounds[k+1])``."""

    bounds: Tuple[int, ...]

    def __post_init__(self) -> None:
        b = self.bounds
        if len(b) < 2 or b[0] != 0:
            raise ValueError(f"invalid bounds {b}")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError(f"bounds must be strictly increasing: {b}")

    @property
    def nprocs(self) -> int:
        """Number of row blocks (ranks)."""
        return len(self.bounds) - 1

    @property
    def num_rows(self) -> int:
        """Total rows covered by the partition."""
        return self.bounds[-1]

    def rows_of(self, rank: int) -> range:
        """Rows owned by ``rank``."""
        return range(self.bounds[rank], self.bounds[rank + 1])

    def block_of(self, rank: int) -> Tuple[int, int]:
        """``(row_lo, row_hi)`` inclusive bounds of a rank's block."""
        return self.bounds[rank], self.bounds[rank + 1] - 1

    def owner_of_row(self, row: int) -> int:
        """Rank owning ``row``."""
        if not 0 <= row < self.num_rows:
            raise IndexError(f"row {row} out of range")
        return bisect.bisect_right(self.bounds, row) - 1

    def owner_of_channel(self, channel: int) -> int:
        """Channel ``c`` (below row ``c``) belongs to row ``c``'s owner;
        the topmost channel belongs to the last rank."""
        if channel >= self.num_rows:
            if channel == self.num_rows:
                return self.nprocs - 1
            raise IndexError(f"channel {channel} out of range")
        return self.owner_of_row(channel)

    def interior_boundaries(self) -> List[int]:
        """Rows at which partitions meet (fake pins appear here)."""
        return list(self.bounds[1:-1])

    @classmethod
    def balanced(cls, circuit: Circuit, nprocs: int) -> "RowPartition":
        """Split rows into ``nprocs`` contiguous blocks balancing pins.

        A quota sweep over per-row pin counts; every block gets at least
        one row, so ``nprocs`` may not exceed the row count.
        """
        nrows = circuit.num_rows
        if not 1 <= nprocs <= nrows:
            raise ValueError(f"nprocs {nprocs} must be in [1, {nrows}]")
        pins_per_row = [0] * nrows
        for pin in circuit.pins:
            row = pin.row
            if 0 <= row < nrows:
                pins_per_row[row] += 1
        total = sum(pins_per_row)
        bounds = [0]
        acc = 0
        next_row = 0
        for k in range(1, nprocs):
            target = total * k / nprocs
            row = next_row
            while row < nrows - (nprocs - k) and acc + pins_per_row[row] / 2 < target:
                acc += pins_per_row[row]
                row += 1
            row = max(row, bounds[-1] + 1)  # at least one row per block
            bounds.append(row)
            next_row = row
        bounds.append(nrows)
        return cls(tuple(bounds))


def _check_scheme(scheme: str, row_part: RowPartition | None) -> None:
    if scheme not in NET_SCHEMES:
        raise ValueError(f"unknown net scheme {scheme!r}; choose from {NET_SCHEMES}")
    if scheme == "density" and row_part is None:
        raise ValueError("density scheme needs a row partition")


def net_weights(
    circuit: Circuit,
    scheme: str,
    row_part: RowPartition | None = None,
    alpha: float = 2.0,
) -> List[Tuple]:
    """Per-net sort keys for the chosen scheme (lower sorts earlier)."""
    _check_scheme(scheme, row_part)
    degrees = [len(n.pins) for n in circuit.nets]
    return _net_keys(circuit, scheme, row_part, alpha, degrees)


def _net_keys(
    circuit: Circuit,
    scheme: str,
    row_part: RowPartition | None,
    alpha: float,
    degrees: List[int],
) -> List[Tuple]:
    """:func:`net_weights` over precomputed per-net degrees."""
    if scheme == "pin_weight":
        return [
            (-float(d) ** alpha, i) if d else (0.0, i) for i, d in enumerate(degrees)
        ]
    pins = circuit.pins
    keys: List[Tuple] = []
    if scheme == "density":
        bounds = row_part.bounds
        nprocs = row_part.nprocs
    for net in circuit.nets:
        ids = net.pins
        if not ids:
            keys.append((0.0, net.id))
            continue
        rows = [pins[p].row for p in ids]
        if scheme == "center":
            keys.append((sum(rows) / len(rows), net.id))
        elif scheme == "locus":
            keys.append((min(pins[p].x for p in ids), min(rows), net.id))
        else:  # density
            counts = [0] * nprocs
            for row in rows:
                counts[bisect.bisect_right(bounds, row) - 1] += 1
            owner = counts.index(max(counts))  # lowest rank wins ties
            keys.append((owner, sum(rows) / len(rows), net.id))
    return keys


def partition_nets(
    circuit: Circuit,
    nprocs: int,
    scheme: str = "pin_weight",
    row_part: RowPartition | None = None,
    alpha: float = 2.0,
) -> np.ndarray:
    """``net id -> owning rank`` under the chosen heuristic."""
    if nprocs <= 0:
        raise ValueError("nprocs must be positive")
    _check_scheme(scheme, row_part)
    if nprocs == 1 or not circuit.nets:
        return np.zeros(len(circuit.nets), dtype=np.int64)
    degrees = [len(n.pins) for n in circuit.nets]
    keys = _net_keys(circuit, scheme, row_part, alpha, degrees)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    owner = [0] * len(keys)

    if scheme == "pin_weight":
        # Largest nets first onto the least-loaded processor (LPT over the
        # modeled Steiner cost p^alpha) — the paper's round-robin spreading
        # of large nets, made load-aware.  Heap entries ``(load, rank)``
        # break load ties toward the lowest rank.
        heap = [(0.0, k) for k in range(nprocs)]
        for net_id in order:
            load, k = heap[0]
            owner[net_id] = k
            heapq.heapreplace(heap, (load + float(degrees[net_id]) ** alpha, k))
        return np.array(owner, dtype=np.int64)

    # Generic quota sweep: fill processors in sorted-weight order until
    # each holds the average pin count.
    target = sum(degrees) / nprocs
    proc = 0
    acc = 0
    for net_id in order:
        owner[net_id] = proc
        acc += degrees[net_id]
        if acc >= target * (proc + 1) and proc < nprocs - 1:
            proc += 1
    return np.array(owner, dtype=np.int64)


def partition_summary(circuit: Circuit, owner: np.ndarray, nprocs: int) -> Dict[str, object]:
    """Balance diagnostics of a net partition (used by the ablations)."""
    pins = np.zeros(nprocs, dtype=np.int64)
    nets = np.zeros(nprocs, dtype=np.int64)
    steiner_work = np.zeros(nprocs, dtype=np.float64)
    for net in circuit.nets:
        k = int(owner[net.id])
        nets[k] += 1
        pins[k] += net.degree
        steiner_work[k] += float(net.degree) ** 2
    def imbalance(arr) -> float:
        m = arr.mean()
        return float(arr.max() / m) if m > 0 else 1.0
    return {
        "pins_per_rank": pins.tolist(),
        "nets_per_rank": nets.tolist(),
        "steiner_work_per_rank": steiner_work.tolist(),
        "pin_imbalance": imbalance(pins),
        "steiner_imbalance": imbalance(steiner_work),
    }
