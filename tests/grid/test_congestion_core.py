"""The one congestion core: the surface benchmark harnesses read, and
how long a route keeps its congestion state alive."""

from __future__ import annotations

import gc

from repro.circuits import mcnc
from repro.twgr import GlobalRouter, RouterConfig


def test_backend_label_and_flip_pass_stats():
    # fingerprints and trajectory records stamp this label; committed
    # history chains by it
    assert RouterConfig().resolved_backend() == "python"
    cfg = RouterConfig(seed=1, coarse_passes=3)
    circuit = mcnc.generate("primary1", scale=0.05, seed=1)
    _result, art = GlobalRouter(cfg).route_with_artifacts(circuit)
    stats = art.grid.flip_pass_stats()
    # one {"clean", "dirty"} split per coarse pass run (passes stop early
    # once a pass changes nothing)
    assert 1 <= len(stats) <= cfg.coarse_passes
    for split in stats:
        assert set(split) == {"clean", "dirty"}
        assert all(isinstance(n, int) and n >= 0 for n in split.values())
    assert stats[0]["dirty"] > 0  # the first pass evaluates every candidate


def test_serial_route_leaves_no_cyclic_garbage():
    # the router pauses the cyclic collector while it routes, so a
    # reference cycle through the grid would keep every route's
    # congestion state alive until a later full collection
    circuit = mcnc.generate("primary1", scale=0.05, seed=1)
    router = GlobalRouter(RouterConfig(seed=1))
    gc.collect()
    router.route(circuit)
    assert gc.collect() == 0
