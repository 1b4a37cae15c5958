import pickle

import numpy as np
import pytest

from repro.circuits import mcnc
from repro.geometry import Point
from repro.mpi.sizes import estimate_size
from repro.steiner import NetTree, build_net_tree, steinerize, tree_segments
from repro.steiner.tree import clip_tree_to_rows


def test_single_terminal():
    t = build_net_tree(0, [Point(1, 1)])
    assert t.edges == []
    assert t.is_connected()


def test_two_terminals():
    t = build_net_tree(0, [Point(0, 0), Point(5, 5)])
    assert len(t.edges) == 1
    assert t.is_connected()
    assert t.num_terminals == 2


def test_terminal_indices_stable():
    pts = [Point(0, 0), Point(9, 0), Point(4, 4)]
    t = build_net_tree(1, pts)
    assert t.points[: t.num_terminals] == pts


def test_steinerize_reduces_length():
    # A classic 3-terminal case: the median point saves wirelength.
    pts = [Point(0, 0), Point(10, 0), Point(5, 8)]
    t_plain = build_net_tree(0, pts, refine=False)
    t_ref = build_net_tree(0, pts, refine=True)
    assert t_ref.length() <= t_plain.length()
    assert t_ref.is_connected()


def test_steinerize_never_lengthens():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(3, 10))
        pts = [Point(int(x), int(r)) for x, r in rng.integers(0, 40, size=(n, 2))]
        before = build_net_tree(0, pts, refine=False)
        gain = steinerize(before)
        assert gain >= 0
        assert before.is_connected()


def test_steiner_point_is_median():
    pts = [Point(0, 0), Point(10, 0), Point(5, 8)]
    t = build_net_tree(0, pts, refine=True)
    steiner_pts = t.points[t.num_terminals :]
    if steiner_pts:  # refinement inserted a point: must be the median
        assert steiner_pts[0] == Point(5, 0)


def test_tree_segments_drop_zero_length():
    t = NetTree(net=0, points=[Point(1, 1), Point(1, 1)], edges=[(0, 1)], num_terminals=2)
    assert tree_segments(t) == []


def test_is_connected_detects_cycle_and_disconnect():
    pts = [Point(0, 0), Point(1, 0), Point(2, 0)]
    good = NetTree(0, list(pts), [(0, 1), (1, 2)], 3)
    assert good.is_connected()
    bad_count = NetTree(0, list(pts), [(0, 1)], 3)
    assert not bad_count.is_connected()
    cyclic = NetTree(0, list(pts), [(0, 1), (0, 1)], 3)
    assert not cyclic.is_connected()


def test_degree_and_neighbors():
    t = NetTree(0, [Point(0, 0), Point(1, 0), Point(2, 0)], [(0, 1), (1, 2)], 3)
    assert t.degree_of(1) == 2
    assert sorted(t.neighbors(1)) == [0, 2]


class TestClipToRows:
    def make(self):
        # one diagonal edge spanning rows 0..6 at columns 2 -> 9
        return NetTree(0, [Point(2, 0), Point(9, 6)], [(0, 1)], 2)

    def test_inside_untouched(self):
        t = self.make()
        segs = clip_tree_to_rows(t, 0, 6)
        assert len(segs) == 1
        assert segs[0].row_span == (0, 6)

    def test_outside_dropped(self):
        t = self.make()
        assert clip_tree_to_rows(t, 8, 10) == []

    def test_bottom_block_gets_vertical_with_phantom_top(self):
        t = self.make()
        segs = clip_tree_to_rows(t, 0, 2)
        assert len(segs) == 1
        s = segs[0]
        # vertical at the lower endpoint's column, phantom one row above
        assert s.is_vertical and s.a.x == 2
        assert s.row_span == (0, 3)

    def test_top_block_gets_bend_with_phantom_bottom(self):
        t = self.make()
        segs = clip_tree_to_rows(t, 3, 6)
        assert len(segs) == 1
        s = segs[0]
        assert s.row_span == (2, 6)  # phantom one row below the block
        assert not s.is_flat

    def test_middle_block_pure_vertical(self):
        t = self.make()
        segs = clip_tree_to_rows(t, 2, 4)
        assert len(segs) == 1
        s = segs[0]
        assert s.is_vertical and s.a.x == 2
        assert s.row_span == (1, 5)  # phantoms both sides

    def test_interior_rows_union_equals_serial(self):
        """Feed demand conservation: clipped pieces' interior rows across
        all blocks must equal the original segment's interior rows."""
        t = self.make()
        blocks = [(0, 2), (3, 4), (5, 6)]
        rows = set()
        for lo, hi in blocks:
            for seg in clip_tree_to_rows(t, lo, hi):
                a, b = seg.row_span
                rows.update(r for r in range(a + 1, b) if lo <= r <= hi)
        assert rows == set(range(1, 6))  # serial interior of rows 0..6


# ---------------------------------------------------------------------------
# wire form (what the multiprocess transport pickles)
# ---------------------------------------------------------------------------

#: terminals with a duplicate position; the first three make a Steiner point
WIRE_TERMINALS = [
    Point(0, 0), Point(10, 0), Point(5, 8), Point(5, 8), Point(12, 3), Point(2, 6),
]


@pytest.fixture(scope="module")
def biomed_trees():
    circuit = mcnc.generate("biomed", seed=1)
    return {
        net.id: build_net_tree(net.id, circuit.net_points(net.id))
        for net in circuit.nets
    }


def _assert_wire_round_trip(tree):
    back = pickle.loads(pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL))
    assert back == tree
    assert type(back) is NetTree
    assert all(type(p) is Point for p in back.points)
    assert all(type(e) is tuple and len(e) == 2 for e in back.edges)
    return back


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 6])
def test_tree_wire_round_trip(n):
    tree = build_net_tree(7, WIRE_TERMINALS[:n])
    back = _assert_wire_round_trip(tree)
    assert back.num_terminals == n
    if n >= 3:
        assert len(back.points) > n  # a Steiner point
    if n >= 4:  # the duplicate terminal hangs on a zero-length edge
        assert any(back.points[i] == back.points[j] for i, j in back.edges)


def test_tree_wire_round_trip_hand_built():
    tree = NetTree(
        net=3, points=[Point(4, 1), Point(4, 1), Point(-2, 0)],
        edges=[(0, 1), (2, 0)], num_terminals=2,
    )
    _assert_wire_round_trip(tree)


def test_tree_wire_round_trip_biomed(biomed_trees):
    back = pickle.loads(pickle.dumps(biomed_trees, protocol=pickle.HIGHEST_PROTOCOL))
    assert back == biomed_trees
    assert all(
        type(p) is Point and type(p.x) is int and type(p.row) is int
        for t in back.values() for p in t.points
    )
    assert all(type(e) is tuple for t in back.values() for e in t.edges)


def test_tree_modeled_bytes_pinned(biomed_trees):
    """The communicator charges ``estimate_size`` of the object, never its
    pickle: these figures predate the flat wire form and must not move."""
    fixed = {k: build_net_tree(k, WIRE_TERMINALS[:k]) for k in range(7)}
    shipped = pickle.loads(pickle.dumps(fixed))
    assert estimate_size(fixed) == estimate_size(shipped) == 1928
    shipped = pickle.loads(pickle.dumps(biomed_trees))
    assert estimate_size(biomed_trees) == estimate_size(shipped) == 1734100
