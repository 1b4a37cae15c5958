import pytest

from repro.circuits import mcnc
from repro.circuits.model import CircuitStats
from repro.mpi.runtime import RankError
from repro.parallel import ParallelConfig, route_parallel, serial_baseline
from repro.perfmodel import INTEL_PARAGON, SPARCCENTER_1000
from repro.twgr import RouterConfig


@pytest.fixture(scope="module")
def circuit():
    return mcnc.generate("primary1", scale=0.25, seed=5)


@pytest.fixture(scope="module")
def config():
    return RouterConfig(seed=5)


@pytest.fixture(scope="module")
def baseline(circuit, config):
    return serial_baseline(circuit, config, machine=SPARCCENTER_1000)


def test_baseline_has_model_time(baseline):
    assert baseline.model_time is not None
    assert baseline.model_time > 0


def test_baseline_oom_with_memory_stats(circuit, config):
    huge = CircuitStats(num_rows=80, num_pins=10**7, num_cells=10**6, num_nets=10**6)
    r = serial_baseline(circuit, config, machine=INTEL_PARAGON, memory_stats=huge)
    assert r.model_time is None
    assert r.total_tracks > 0  # quality still computed


def test_run_bundle_fields(circuit, config, baseline):
    run = route_parallel(
        circuit, "hybrid", nprocs=4, config=config, baseline=baseline
    )
    assert run.result.algorithm == "hybrid"
    assert run.result.nprocs == 4
    assert run.result.model_time == run.timing.elapsed
    assert run.timing.nprocs == 4
    assert len(run.timing.rank_times) == 4
    assert run.speedup is not None and run.speedup > 0
    assert run.scaled_tracks is not None
    assert run.scaled_area is not None
    assert "hybrid" in run.summary()


def test_unknown_algorithm(circuit, config):
    with pytest.raises(ValueError, match="unknown algorithm"):
        route_parallel(circuit, "bogus", nprocs=2, config=config)


@pytest.mark.parametrize("algorithm", ["rowwise", "netwise", "hybrid"])
def test_bad_net_scheme_rejected_on_one_rank(circuit, config, algorithm):
    """A single rank takes the partition's trivial path, which must still
    reject a scheme the partition does not know."""
    with pytest.raises(RankError, match="unknown net scheme"):
        route_parallel(
            circuit, algorithm, nprocs=1, config=config,
            pconfig=ParallelConfig(net_scheme="bogus"), compute_baseline=False,
        )


def test_bad_nprocs(circuit, config):
    with pytest.raises(ValueError):
        route_parallel(circuit, "hybrid", nprocs=0, config=config)
    with pytest.raises(ValueError, match="processors"):
        route_parallel(
            circuit, "hybrid", nprocs=16, machine=SPARCCENTER_1000, config=config
        )


def test_no_baseline_mode(circuit, config):
    run = route_parallel(
        circuit, "rowwise", nprocs=2, config=config, compute_baseline=False
    )
    assert run.baseline is None
    assert run.speedup is None
    assert run.scaled_tracks is None


def test_oom_baseline_marks_timing(circuit, config):
    huge = CircuitStats(num_rows=80, num_pins=10**7, num_cells=10**6, num_nets=10**6)
    run = route_parallel(
        circuit, "hybrid", nprocs=4, machine=INTEL_PARAGON, config=config,
        memory_stats=huge,
    )
    assert run.timing.serial_oom
    assert run.speedup is None


def test_parallel_config_defaults():
    pc = ParallelConfig()
    assert pc.net_scheme == "pin_weight"
    assert pc.switch_sync_mode == "scalar"
    assert pc.alpha == 2.0


def test_precomputed_baseline_reused(circuit, config, baseline):
    run = route_parallel(circuit, "hybrid", nprocs=2, config=config, baseline=baseline)
    assert run.baseline is baseline
