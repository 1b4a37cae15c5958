"""MST-based approximate Steiner trees and their segment decomposition.

TWGR's step 1 builds "an approximate Steiner tree ... based on the minimum
spanning tree of this net" (paper §2, following Lee & Sechen).  We realize
that as: Prim MST over the net's terminals, followed by a local
Steiner-point refinement — for every tree vertex with two or more
neighbours, the rectilinear median of the vertex and a neighbour pair is
inserted as a Steiner point whenever it shortens the tree.

The tree is then cut into :class:`~repro.geometry.Segment` objects.  A
*flat* segment (horizontal or vertical) is already routable; a *diagonal*
segment is later bent into one of two L shapes by the coarse router
(step 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.geometry import Point, Segment, manhattan
from repro.perfmodel.counter import WorkCounter, NULL_COUNTER
from repro.steiner.mst import prim_mst


@dataclass(slots=True)
class NetTree:
    """An approximate Steiner tree for one net.

    ``points[i]`` is a tree vertex; indices below ``num_terminals`` are the
    net's terminals in their original order, the rest are Steiner points.
    ``edges`` are index pairs into ``points``.
    """

    net: int
    points: List[Point]
    edges: List[Tuple[int, int]]
    num_terminals: int

    def __reduce__(self):
        # Flat wire form for the trees the parallel routers exchange: two
        # int lists pickle in C, while the generic slotted-dataclass
        # reduce would make one Python-level namedtuple reduce per point.
        return (
            _tree_from_wire,
            (
                self.net,
                list(chain.from_iterable(self.points)),
                list(chain.from_iterable(self.edges)),
                self.num_terminals,
            ),
        )

    def length(self, row_pitch: int = 1) -> int:
        """Total Manhattan length of the tree's edges."""
        return sum(
            manhattan(self.points[i], self.points[j], row_pitch) for i, j in self.edges
        )

    def degree_of(self, vertex: int) -> int:
        """Number of tree edges incident to ``vertex``."""
        return sum(1 for i, j in self.edges if i == vertex or j == vertex)

    def neighbors(self, vertex: int) -> List[int]:
        """Vertices adjacent to ``vertex`` in the tree."""
        out = []
        for i, j in self.edges:
            if i == vertex:
                out.append(j)
            elif j == vertex:
                out.append(i)
        return out

    def is_connected(self) -> bool:
        """Spanning-tree check used by tests and the parallel validators."""
        n = len(self.points)
        if n == 0:
            return True
        if len(self.edges) != n - 1:
            return False
        adj: Dict[int, List[int]] = {}
        for i, j in self.edges:
            adj.setdefault(i, []).append(j)
            adj.setdefault(j, []).append(i)
        seen: Set[int] = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n


def _tree_from_wire(
    net: int, xy: List[int], ends: List[int], num_terminals: int
) -> NetTree:
    """Rebuild a :class:`NetTree` from its :meth:`NetTree.__reduce__` form."""
    it = iter(xy)
    points = list(map(tuple.__new__, repeat(Point), zip(it, it)))
    it = iter(ends)
    return NetTree(net, points, list(zip(it, it)), num_terminals)


def build_net_tree(
    net_id: int,
    terminals: Sequence[Point],
    row_pitch: int = 1,
    refine: bool = True,
    counter: WorkCounter = NULL_COUNTER,
) -> NetTree:
    """Build the approximate Steiner tree over ``terminals``.

    Duplicate terminal positions are kept (they become zero-length edges),
    so terminal indices always map 1:1 onto the caller's pin list.
    """
    if terminals and type(terminals[0]) is Point:
        points = list(terminals)  # already canonical — skip the re-wrap
    else:
        points = [Point(int(p[0]), int(p[1])) for p in terminals]
    n = len(points)
    if n < 2:
        return NetTree(net=net_id, points=points, edges=[], num_terminals=n)
    if n == 2:
        # two-terminal net: the MST is the single edge; charge what the
        # one Prim relaxation round would have (2 units) and skip it
        counter.add("steiner", 2)
        return NetTree(net=net_id, points=points, edges=[(0, 1)], num_terminals=2)
    if n == 3:
        return _three_terminal_tree(net_id, points, row_pitch, refine, counter)
    # prim_mst returns a fresh list and ``points`` is owned here, so the
    # tree can take both without defensive copies
    edges = prim_mst(points, row_pitch=row_pitch, counter=counter)
    tree = NetTree(net=net_id, points=points, edges=edges, num_terminals=n)
    if refine and n >= 3:
        steinerize(tree, row_pitch=row_pitch, counter=counter)
    return tree


def _three_terminal_tree(
    net_id: int,
    points: List[Point],
    row_pitch: int,
    refine: bool,
    counter: WorkCounter,
) -> NetTree:
    """Closed form of ``prim_mst`` + ``steinerize`` for three terminals.

    Reproduces the generic pipeline exactly — same edges in the same
    order (Prim's lowest-index-wins tie-breaks decide which terminal is
    the tree center and the center's neighbour order decides the refined
    edge order), same Steiner point, same work-charge totals.  The
    refinement is single-shot because the component-wise median ``m`` of
    three points lies inside every pair's bounding box, so no pair at the
    inserted center can improve further.
    """
    (x0, r0), (x1, r1), (x2, r2) = points
    d1 = abs(x1 - x0) + row_pitch * abs(r1 - r0)
    d2 = abs(x2 - x0) + row_pitch * abs(r2 - r0)
    d12 = abs(x2 - x1) + row_pitch * abs(r2 - r1)
    if d1 <= d2:
        if d12 < d2:
            edges = [(0, 1), (1, 2)]
            c, a, b = 1, 0, 2
        else:
            edges = [(0, 1), (0, 2)]
            c, a, b = 0, 1, 2
    else:
        if d12 < d1:
            edges = [(0, 2), (2, 1)]
            c, a, b = 2, 0, 1
        else:
            edges = [(0, 2), (0, 1)]
            c, a, b = 0, 2, 1
    if not refine:
        counter.add("steiner", 6)  # the two Prim relaxation rounds
        return NetTree(net=net_id, points=points, edges=edges, num_terminals=3)
    cx, cr = points[c]
    ax, ar = points[a]
    bx, br = points[b]
    # component-wise median of (center, a, b) — the optimal meeting point
    if cx < ax:
        mx = ax if ax < bx else (bx if cx < bx else cx)
    else:
        mx = cx if cx < bx else (bx if ax < bx else ax)
    if cr < ar:
        mr = ar if ar < br else (br if cr < br else cr)
    else:
        mr = cr if cr < br else (br if ar < br else ar)
    if mx == cx and mr == cr:
        # no gain anywhere: Prim (6) + steinerize visits (1 + 1 + [2+1])
        counter.add("steiner", 11)
        return NetTree(net=net_id, points=points, edges=edges, num_terminals=3)
    # Prim (6) + visits incl. the center's re-visit and the new point's
    # gainless 3-pair scan (1 + 1 + [2+1] + 1 + [3+3])
    counter.add("steiner", 18)
    points.append(Point(mx, mr))
    return NetTree(
        net=net_id, points=points,
        edges=[(c, 3), (3, a), (3, b)], num_terminals=3,
    )


def steinerize(tree: NetTree, row_pitch: int = 1, counter: WorkCounter = NULL_COUNTER) -> int:
    """Insert Steiner points where they shorten the tree; returns the gain.

    For each vertex ``v`` with neighbours ``a, b``: the component-wise
    median of ``(v, a, b)`` is the optimal meeting point for the two edges;
    if it differs from all three, replacing edges ``(v,a), (v,b)`` with
    ``(v,m), (m,a), (m,b)`` saves wirelength.  One pass in deterministic
    vertex order; pairs re-evaluated greedily.
    """
    saved_total = 0
    points = tree.points
    edges = tree.edges
    # Adjacency lists mirror edge-scan order, so ``adj[v]`` is always
    # exactly ``tree.neighbors(v)`` — maintained in tandem with the edge
    # list below instead of rescanning all edges per vertex visit.
    adj: Dict[int, List[int]] = {}
    for i, j in edges:
        adj.setdefault(i, []).append(j)
        if j != i:
            adj.setdefault(j, []).append(i)
    counter_add = counter.add
    v = 0
    while v < len(points):
        improved = True
        while improved:
            improved = False
            nbrs = adj.get(v, [])
            deg = len(nbrs)
            if deg < 2:
                counter_add("steiner", deg)
                break
            # one fused charge for the visit (deg) plus the pair scan
            # below (deg choose 2) — exact: all charges are multiples of
            # 0.5 far below float precision, so the total is identical
            counter_add("steiner", deg + deg * (deg - 1) / 2)
            vx, vr = points[v]
            best_gain = 0
            best: Tuple[int, int, Point] | None = None
            if deg == 2:  # the dominant case: one pair, no loop machinery
                a, b = nbrs
                ax, ar = points[a]
                bx, br = points[b]
                if vx < ax:
                    mx = ax if ax < bx else (bx if vx < bx else vx)
                else:
                    mx = vx if vx < bx else (bx if ax < bx else ax)
                if vr < ar:
                    mr = ar if ar < br else (br if vr < br else vr)
                else:
                    mr = vr if vr < br else (br if ar < br else ar)
                old = (
                    abs(vx - ax) + abs(vx - bx)
                    + row_pitch * (abs(vr - ar) + abs(vr - br))
                )
                new = (
                    abs(vx - mx)
                    + abs(mx - ax)
                    + abs(mx - bx)
                    + row_pitch * (abs(vr - mr) + abs(mr - ar) + abs(mr - br))
                )
                if old > new:
                    best_gain = old - new
                    best = (a, b, Point(mx, mr))
            else:
                for ai in range(deg):
                    a = nbrs[ai]
                    ax, ar = points[a]
                    dva = abs(vx - ax) + row_pitch * abs(vr - ar)
                    for bi in range(ai + 1, deg):
                        b = nbrs[bi]
                        bx, br = points[b]
                        # median of three via branches (hot inner loop)
                        if vx < ax:
                            mx = ax if ax < bx else (bx if vx < bx else vx)
                        else:
                            mx = vx if vx < bx else (bx if ax < bx else ax)
                        if vr < ar:
                            mr = ar if ar < br else (br if vr < br else vr)
                        else:
                            mr = vr if vr < br else (br if ar < br else ar)
                        old = dva + abs(vx - bx) + row_pitch * abs(vr - br)
                        new = (
                            abs(vx - mx)
                            + abs(mx - ax)
                            + abs(mx - bx)
                            + row_pitch * (abs(vr - mr) + abs(mr - ar) + abs(mr - br))
                        )
                        gain = old - new
                        if gain > best_gain:
                            best_gain = gain
                            best = (a, b, Point(mx, mr))
            if best is None:
                break
            a, b, m = best
            m_idx = len(points)
            points.append(m)
            for idx in range(len(edges) - 1, -1, -1):
                e = edges[idx]
                if e == (v, a) or e == (a, v) or e == (v, b) or e == (b, v):
                    del edges[idx]
            edges.append((v, m_idx))
            edges.append((m_idx, a))
            edges.append((m_idx, b))
            adj[v] = [w for w in adj[v] if w != a and w != b] + [m_idx]
            adj[a] = [w for w in adj[a] if w != v] + [m_idx]
            adj[b] = [w for w in adj[b] if w != v] + [m_idx]
            adj[m_idx] = [v, a, b]
            saved_total += best_gain
            improved = True
        v += 1
    return saved_total


def _median(a: int, b: int, c: int) -> int:
    return sorted((a, b, c))[1]


def tree_segments(tree: NetTree) -> List[Segment]:
    """The tree's edges as canonical segments, zero-length edges dropped."""
    out: List[Segment] = []
    for i, j in tree.edges:
        a, b = tree.points[i], tree.points[j]
        if a == b:
            continue
        out.append(Segment.make(a, b))
    return out


def clip_tree_to_rows(
    tree: NetTree, row_lo: int, row_hi: int
) -> List[Segment]:
    """Segments of ``tree`` restricted to rows ``[row_lo, row_hi]``.

    Used by the row-wise parallel algorithm: a rank keeps the portions of
    whole-net trees that fall inside its row block (the crossing points
    having been materialized as fake pins).  Diagonal segments are split at
    block boundaries along their vertical extent, pinning the crossing at
    the segment's *lower endpoint column* — the same convention
    :func:`repro.parallel.fakepins.crossing_columns` uses, so fake pins and
    clipped segments always agree.

    Cut endpoints are *phantoms* placed one row beyond the block: a wire
    continuing past the boundary still passes **through** the boundary
    rows, so they must keep demanding feedthroughs.  With phantoms, the
    union of the clipped pieces' interior rows across all blocks equals
    the original segment's interior rows exactly — parallel runs plan the
    same feedthroughs the serial router would.  The coarse grid clips the
    phantom rows back to its own window.
    """
    return clip_segments(tree_segments(tree), row_lo, row_hi)


def clip_segments(
    segments: Sequence[Segment], row_lo: int, row_hi: int
) -> List[Segment]:
    """:func:`clip_tree_to_rows` over a tree's :func:`tree_segments`.

    Lets a caller that also needs the boundary crossings cut the tree into
    segments once.  Segments must be canonical (``a.row <= b.row``), as
    :meth:`Segment.make` builds them.
    """
    out: List[Segment] = []
    for seg in segments:
        bottom, top = seg.a, seg.b
        lo, hi = bottom.row, top.row
        if hi < row_lo or lo > row_hi:
            continue
        if lo >= row_lo and hi <= row_hi:
            out.append(seg)
            continue
        # The segment sticks out of the block: clip its vertical extent.
        # The vertical run is at the lower endpoint's column by convention.
        run_x = bottom.x
        p_low = bottom if lo >= row_lo else Point(run_x, row_lo - 1)
        p_high = top if hi <= row_hi else Point(run_x, row_hi + 1)
        if p_low == p_high:
            continue
        out.append(Segment.make(p_low, p_high))
    return out
