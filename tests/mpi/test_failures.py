"""Failure injection: the runtime must fail loudly, never hang."""

import threading

import pytest

from repro.mpi import RankError, run_spmd
from repro.perfmodel import SPARCCENTER_1000


def test_failure_inside_collective_aborts_all():
    def prog(comm):
        if comm.rank == 2:
            raise RuntimeError("mid-collective crash")
        # other ranks are inside a collective waiting on rank 2
        return comm.allreduce(comm.rank)

    with pytest.raises(RankError) as exc:
        run_spmd(4, prog, deadlock_timeout=10.0)
    assert exc.value.rank == 2


def test_failure_after_some_collectives():
    def prog(comm):
        comm.barrier()
        total = comm.allreduce(1)
        if comm.rank == 0 and total == comm.size:
            raise ValueError("late crash")
        comm.barrier()  # others blocked here must be released

    with pytest.raises(RankError) as exc:
        run_spmd(3, prog, deadlock_timeout=10.0)
    assert exc.value.rank == 0
    assert isinstance(exc.value.original, ValueError)


def test_failure_during_alltoall():
    def prog(comm):
        if comm.rank == 1:
            raise KeyError("boom")
        return comm.alltoall([comm.rank] * comm.size)

    with pytest.raises(RankError):
        run_spmd(4, prog, deadlock_timeout=10.0)


def test_first_failure_wins_reported():
    def prog(comm):
        if comm.rank == 0:
            raise RuntimeError("zero")
        comm.recv(0, tag=1)  # never satisfied

    with pytest.raises(RankError) as exc:
        run_spmd(2, prog, deadlock_timeout=10.0)
    assert exc.value.rank == 0


def test_mismatched_collective_types_detected():
    """A gather on one rank against a bcast on another is a deadlock,
    not silent corruption."""

    def prog(comm):
        if comm.rank == 0:
            return comm.gather(1, root=0)
        return comm.bcast(None, root=0)

    with pytest.raises(Exception):  # DeadlockError or RankError
        run_spmd(2, prog, deadlock_timeout=2.0)


def test_run_recovers_after_failed_run():
    """A failed SPMD run must not poison subsequent runs."""

    def bad(comm):
        raise RuntimeError("x")

    with pytest.raises(RankError):
        run_spmd(2, bad)
    out = run_spmd(2, lambda comm: comm.allreduce(1))
    assert out.values == [2, 2]


def test_failure_with_machine_model():
    def prog(comm):
        comm.counter.add("w", 10)
        if comm.rank == 1:
            raise RuntimeError("with clock")
        comm.barrier()

    with pytest.raises(RankError):
        run_spmd(2, prog, machine=SPARCCENTER_1000, deadlock_timeout=10.0)


# ---------------------------------------------------------------------------
# abort propagation: a rank raising mid-collective must release every
# sibling blocked inside the collective, at small and odd rank counts
# ---------------------------------------------------------------------------

COLLECTIVES = {
    "bcast": lambda comm: comm.bcast(comm.rank, root=0),
    "reduce": lambda comm: comm.reduce(comm.rank, root=0),
    "gather": lambda comm: comm.gather(comm.rank, root=0),
    "alltoall": lambda comm: comm.alltoall([comm.rank] * comm.size),
}


@pytest.mark.parametrize("nprocs", [2, 5])
@pytest.mark.parametrize("op", sorted(COLLECTIVES))
def test_abort_releases_ranks_blocked_in_collective(op, nprocs):
    crasher = nprocs - 1

    def prog(comm):
        if comm.rank == crasher:
            raise RuntimeError(f"crash instead of {op}")
        return COLLECTIVES[op](comm)

    # a hang here (not RankError) means the abort never reached a
    # blocked sibling; the timeout turns that into a loud failure
    with pytest.raises(RankError) as exc:
        run_spmd(nprocs, prog, deadlock_timeout=30.0)
    assert exc.value.rank == crasher
    assert isinstance(exc.value.original, RuntimeError)


@pytest.mark.parametrize("nprocs", [2, 5])
@pytest.mark.parametrize("op", sorted(COLLECTIVES))
def test_abort_mid_collective_carries_containment_report(op, nprocs):
    crasher = 0

    def prog(comm):
        if comm.rank == crasher:
            raise RuntimeError("early crash")
        return COLLECTIVES[op](comm)

    with pytest.raises(RankError) as exc:
        run_spmd(nprocs, prog, deadlock_timeout=30.0)
    report = exc.value.report
    assert report is not None
    assert report.nprocs == nprocs
    assert report.failed_rank == crasher
    assert report.crashed_ranks == [crasher]
    assert sorted(report.aborted_ranks) == [r for r in range(nprocs) if r != crasher]


# ---------------------------------------------------------------------------
# an unpicklable payload on the multiprocess transport is the sender's
# error, raised from its send call — not a dead sender thread that leaves
# the receiver to time out on a rank that reported success
# ---------------------------------------------------------------------------

def _unpicklable_send_program(comm):
    if comm.rank == 0:
        comm.send(threading.Lock(), 1, tag=3)
    else:
        comm.recv(0, tag=3)
    return comm.rank


def test_unpicklable_payload_blames_sending_rank(capfd):
    with pytest.raises(RankError) as exc:
        run_spmd(
            2, _unpicklable_send_program, transport="multiprocess",
            deadlock_timeout=30.0,
        )
    assert exc.value.rank == 0
    report = exc.value.report
    assert report is not None
    assert report.failed_rank == 0
    assert report.error_type == "TypeError"
    assert "pickle" in report.message
    assert report.crashed_ranks == [0]
    assert report.aborted_ranks == [1]
    err = capfd.readouterr().err
    assert "Exception in thread" not in err
    assert "Traceback" not in err
