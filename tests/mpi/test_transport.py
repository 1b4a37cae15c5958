"""The multiprocess transport: registry, parity with in-process, faults.

Every rank program lives at module level so the suite stays correct
under the ``spawn`` start method (children must be able to import the
function by qualified name), even though the transport prefers ``fork``
where available.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.circuits import mcnc
from repro.faults import make_plan
from repro.mpi.runtime import RankError, run_spmd
from repro.mpi.trace import TraceRecorder
from repro.mpi.transports import (
    DEFAULT_TRANSPORT,
    TRANSPORT_ENV,
    TRANSPORT_NAMES,
    get_transport,
    resolve_transport_name,
)
from repro.parallel.driver import route_parallel
from repro.twgr.config import RouterConfig


# ---------------------------------------------------------------------------
# registry (central transport-name authority)
# ---------------------------------------------------------------------------

def test_registry_names_and_factories():
    assert DEFAULT_TRANSPORT == "inprocess"
    assert set(TRANSPORT_NAMES) == {"inprocess", "multiprocess"}
    for name in TRANSPORT_NAMES:
        assert callable(get_transport(name))


def test_resolve_default_env_and_explicit(monkeypatch):
    monkeypatch.delenv(TRANSPORT_ENV, raising=False)
    assert resolve_transport_name(None) == "inprocess"
    assert resolve_transport_name("") == "inprocess"
    assert resolve_transport_name("auto") == "inprocess"
    monkeypatch.setenv(TRANSPORT_ENV, "multiprocess")
    assert resolve_transport_name(None) == "multiprocess"
    # an explicit name always beats the environment
    assert resolve_transport_name("inprocess") == "inprocess"


def test_resolve_unknown_fails_fast_listing_names(monkeypatch):
    monkeypatch.delenv(TRANSPORT_ENV, raising=False)
    with pytest.raises(ValueError, match="unknown SPMD transport") as exc:
        resolve_transport_name("mpi")
    for name in TRANSPORT_NAMES:
        assert name in str(exc.value)


def test_resolve_names_env_var_for_env_sourced_values(monkeypatch):
    monkeypatch.setenv(TRANSPORT_ENV, "bogus")
    with pytest.raises(ValueError, match=TRANSPORT_ENV):
        resolve_transport_name(None)


def test_router_config_carries_transport(monkeypatch):
    monkeypatch.delenv(TRANSPORT_ENV, raising=False)
    RouterConfig(transport="multiprocess").validate()
    with pytest.raises(ValueError, match="unknown SPMD transport"):
        RouterConfig(transport="mpi").validate()
    assert RouterConfig().resolved_transport() == "inprocess"
    assert RouterConfig(transport="multiprocess").resolved_transport() == (
        "multiprocess"
    )


# ---------------------------------------------------------------------------
# collectives parity (bit-identical payloads across transports)
# ---------------------------------------------------------------------------

def _collective_program(comm):
    """Exercise every collective once; return comparable payloads."""
    seed = comm.bcast(
        np.arange(6, dtype=np.float64) + 0.125 if comm.rank == 0 else None
    )
    total = comm.reduce(int(seed.sum()) + comm.rank)
    gathered = comm.gather((comm.rank, float(seed[comm.rank % seed.size])))
    exchanged = comm.alltoall(
        [(comm.rank, dest, comm.rank * comm.size + dest)
         for dest in range(comm.size)]
    )
    # tobytes() makes the bcast payload comparison bit-exact, not just
    # numerically equal
    return (seed.tobytes(), total, gathered, exchanged)


@pytest.mark.parametrize("nprocs", [2, 3, 5])
def test_collectives_parity_across_transports(nprocs):
    ref = run_spmd(nprocs, _collective_program, transport="inprocess")
    out = run_spmd(nprocs, _collective_program, transport="multiprocess")
    assert out.values == ref.values
    assert out.message_count == ref.message_count
    assert out.byte_count == ref.byte_count
    assert ref.transport == "inprocess"
    assert out.transport == "multiprocess"


def _pingpong_program(comm):
    """Point-to-point ordering: ring exchange with tagged messages."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.send(("hello", comm.rank), dest=right, tag=1)
    got = comm.recv(source=left, tag=1)
    return got


@pytest.mark.parametrize("nprocs", [2, 3])
def test_point_to_point_parity(nprocs):
    ref = run_spmd(nprocs, _pingpong_program, transport="inprocess")
    out = run_spmd(nprocs, _pingpong_program, transport="multiprocess")
    assert out.values == ref.values


# ---------------------------------------------------------------------------
# routing parity (the drivers run unmodified; results are bit-identical)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", ["rowwise", "netwise", "hybrid"])
def test_routing_parity_across_transports(algorithm):
    circuit = mcnc.generate("primary1", scale=0.1, seed=1)
    config = RouterConfig(seed=1)
    traces = {t: TraceRecorder() for t in ("inprocess", "multiprocess")}
    runs = {
        transport: route_parallel(
            circuit, algorithm=algorithm, nprocs=2, config=config,
            compute_baseline=False, transport=transport, trace=trace,
        )
        for transport, trace in traces.items()
    }
    ref, out = runs["inprocess"], runs["multiprocess"]
    assert out.result.total_tracks == ref.result.total_tracks
    assert out.result.channel_tracks == ref.result.channel_tracks
    assert out.result.area == ref.result.area
    assert out.result.num_feedthroughs == ref.result.num_feedthroughs
    # the modeled logical clocks must agree exactly, transport or not
    assert out.result.model_time == ref.result.model_time
    assert out.timing.rank_times == ref.timing.rank_times
    # ... and so must the model underneath: work charges, messages, bytes
    assert out.result.work_units == ref.result.work_units
    ref_events, out_events = traces["inprocess"].events, traces["multiprocess"].events
    assert len(ref_events) > 0
    assert len(out_events) == len(ref_events)
    assert sum(e.nbytes for e in out_events) == sum(e.nbytes for e in ref_events)


def test_multiprocess_records_measured_times():
    circuit = mcnc.generate("primary1", scale=0.1, seed=1)
    run = route_parallel(
        circuit, algorithm="rowwise", nprocs=2, config=RouterConfig(seed=1),
        transport="multiprocess",
    )
    t = run.timing
    assert t.transport == "multiprocess"
    assert t.measured_wall_s is not None and t.measured_wall_s > 0
    assert len(t.measured_rank_s) == 2
    assert all(s > 0 for s in t.measured_rank_s)
    # the serial baseline was routed in the same call, so the measured
    # speedup is defined (its value is a host fact, not asserted)
    assert t.measured_speedup is not None


# ---------------------------------------------------------------------------
# fault containment parity
# ---------------------------------------------------------------------------

def _contained_crash(transport):
    plan = make_plan("crash-step3", 3, 0)
    circuit = mcnc.generate("primary1", scale=0.1, seed=1)
    with pytest.raises(RankError) as exc:
        route_parallel(
            circuit, algorithm="rowwise", nprocs=3, config=RouterConfig(seed=1),
            compute_baseline=False, faults=plan, transport=transport,
        )
    assert exc.value.report is not None
    return exc.value.report, plan.fired()


def test_crash_containment_matches_inprocess():
    ref, ref_fired = _contained_crash("inprocess")
    out, out_fired = _contained_crash("multiprocess")
    assert out.failed_rank == ref.failed_rank
    assert out.step == ref.step
    assert out.injected is True and ref.injected is True
    assert out.error_type == ref.error_type
    assert len(out.ranks) == 3
    assert [r.kind for r in out.ranks] == [r.kind for r in ref.ranks]
    # the children ship their fired-injection logs back to the parent
    assert out_fired == ref_fired


def _hard_exit_program(comm):
    if comm.rank == 1:
        os._exit(3)  # die without reporting — not even an exception
    if comm.rank == 0:
        comm.recv(source=1, tag=7)  # must not hang on the dead peer
    return comm.rank


def test_silent_process_death_is_contained():
    with pytest.raises(RankError) as exc:
        run_spmd(
            2, _hard_exit_program, transport="multiprocess",
            deadlock_timeout=30.0,
        )
    report = exc.value.report
    assert report is not None
    assert len(report.ranks) == 2
    dead = next(r for r in report.ranks if r.rank == 1)
    assert dead.kind == "crashed"
    assert dead.error_type == "ProcessExit"
