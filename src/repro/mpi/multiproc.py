"""The ``multiprocess`` SPMD transport: one OS process per rank.

Each rank runs in its own process with a private mailbox; messages
travel over simplex OS pipes (one per directed rank pair), serialized
with pickle — which round-trips ints, floats, and numpy arrays
bit-exactly, so routing results are identical to the in-process
transport by construction.  What this transport adds is *measured*
wall-clock time on real cores: every rank reports its own
``time.perf_counter`` interval, and the parent measures the whole
parallel section including process startup (that cost is real; hiding
it would flatter the speedup).

Semantics parity with :func:`~repro.mpi.runtime.run_inprocess`:

* **Matching** — per-``(src, tag)`` FIFO, wildcard-free, MPI_Test-style
  polling via ``try_collect``.  Pipes preserve per-sender order and each
  rank drains its inbound pipes into a local mailbox, so non-overtaking
  holds exactly as it does in the shared-mailbox router.
* **Faults** — the seeded :class:`~repro.faults.plan.FaultPlan` is
  reconstructed inside every rank process from ``(seed, fault specs)``.
  Since every injection decision is a pure function of ``(seed, rank,
  rank's own event index)``, the per-rank schedules are bit-identical to
  the in-process run; reorder holds are chosen on the *sender* and
  shipped with the message, then applied against the receiver's arrival
  sequence.  Fired-injection logs are shipped back and merged into the
  caller's plan so replay comparisons see one coherent record.
* **Failure containment** — a crashing rank broadcasts an abort marker
  on every outbound pipe before reporting to the parent; peers raise
  :class:`~repro.mpi.runtime.RankError` out of their blocking calls, and
  the parent assembles the same structured
  :class:`~repro.faults.report.RunFailure` post-mortem (origin rank,
  step span, per-rank outcomes, undelivered user messages) that the
  in-process transport produces.  A rank that dies without reporting is
  recorded as ``ProcessExit``; a rank waiting on a peer that already
  exited fails fast with :class:`~repro.mpi.runtime.DeadlockError`
  instead of burning the full timeout.
* **Observability** — per-rank span trees, trace events, logical-clock
  state, and message/byte totals are shipped back and merged, so
  profiles and ``repro trace`` output look the same regardless of
  transport (child-process metrics counters are the one loss: they live
  in the child's registry and are not merged).

Payloads are pickled on the rank's own thread, inside the sending
call, so an unpicklable payload raises there (``TypeError`` from
``comm.send``) and the containment report names the sending rank.  The
pickled bytes then go through a per-rank sender thread with an
unbounded queue; that thread only writes bytes, which releases the GIL,
so it never competes with the rank's compute for the interpreter.  It
exists so that a full pipe buffer can never deadlock two ranks that are
both mid-send (the classic eager-protocol cycle); the main thread keeps
draining its inbound pipes whenever it blocks in ``collect``.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import threading
import time
from collections import deque
from multiprocessing.connection import Connection, wait as _conn_wait
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.plan import FaultPlan, InjectedFault, NULL_FAULT_PLAN
from repro.faults.report import RankFailure, RunFailure
from repro.mpi.comm import Communicator
from repro.mpi.runtime import DeadlockError, RankError, SpmdResult, _RankObs
from repro.perfmodel.clock import LogicalClock
from repro.perfmodel.machine import MachineModel

#: extra real seconds the parent waits past the rank deadlock timeout
#: before declaring unreported ranks dead
_PARENT_GRACE_S = 60.0

#: how long a finishing rank waits for its sender thread to flush
_SENDER_FLUSH_S = 10.0


#: pickles a message for a pipe exactly as ``Connection.send`` would, so
#: the receiving ``Connection.recv`` is unchanged
_dumps = ForkingPickler.dumps


def _pick_context() -> mp.context.BaseContext:
    # fork is strongly preferred: no re-import, closures and fault plans
    # travel for free, and startup is milliseconds not seconds.  spawn
    # (macOS/Windows default) still works for module-level rank programs.
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class _Sender(threading.Thread):
    """Flushes pickled messages so pipe backpressure cannot deadlock.

    A pipe write blocks once the pipe buffer fills; if two ranks block
    sending to each other neither ever drains, which is exactly the
    cyclic-buffer deadlock MPI's rendezvous protocol exists to avoid.
    Queueing writes through one thread keeps the rank's main thread free
    to drain its own inbound pipes, so the cycle cannot close.  Payloads
    arrive already pickled (see :func:`_dumps`): this thread only writes
    bytes.
    """

    def __init__(self, rank: int, writers: Dict[int, Connection]) -> None:
        super().__init__(name=f"spmd-sender-{rank}", daemon=True)
        self._q: "queue.Queue[Optional[Tuple[int, memoryview]]]" = queue.Queue()
        self._writers = writers

    def post(self, dest: int, data: memoryview) -> None:
        self._q.put((dest, data))

    def run(self) -> None:
        while True:
            item = self._q.get()
            if item is None:
                return
            dest, data = item
            conn = self._writers.get(dest)
            if conn is None:
                continue
            try:
                conn.send_bytes(data)
            except (BrokenPipeError, OSError):
                # peer is gone; its death is reported through the abort
                # / EOF paths, not by crashing the sender
                self._writers.pop(dest, None)

    def stop(self, timeout: float = _SENDER_FLUSH_S) -> None:
        self._q.put(None)
        self.join(timeout)


class _PipeRouter:
    """One rank's router: pipe channels behind the mailbox interface.

    Implements the same ``deliver`` / ``collect`` / ``try_collect``
    surface as the in-process ``_MailboxRouter``, including held-message
    (reorder-fault) bookkeeping — but all state is private to the rank's
    main thread, so no locks are needed on the receive path.
    """

    def __init__(
        self,
        rank: int,
        nprocs: int,
        writers: Dict[int, Connection],
        readers: Dict[int, Connection],
        faults: Any,
        deadlock_timeout: float,
    ) -> None:
        self._rank = rank
        self._nprocs = nprocs
        self._faults = faults
        self._timeout = deadlock_timeout
        self._readers = dict(readers)
        self._src_of = {conn: src for src, conn in self._readers.items()}
        self._sender = _Sender(rank, writers)
        self._sender.start()
        # mailbox[(src, tag)] -> deque of (obj, timestamp, nbytes)
        self._boxes: Dict[Tuple[int, int], deque] = {}
        # held reorder-fault messages: [release_seq, (src, tag), item]
        self._held: List[list] = []
        self._seq = 0
        self._eof: set = set()
        self.aborted: Optional[RankError] = None
        self.message_count = 0
        self.byte_count = 0

    # -- held-message bookkeeping (mirrors _MailboxRouter) ---------------
    def _release_held(
        self, key: Optional[Tuple[int, int]] = None,
        due_seq: Optional[int] = None,
    ) -> None:
        if not self._held:
            return
        keep: List[list] = []
        for entry in self._held:
            release_seq, ekey, item = entry
            if (key is not None and ekey == key) or (
                due_seq is not None and release_seq <= due_seq
            ):
                self._boxes.setdefault(ekey, deque()).append(item)
            else:
                keep.append(entry)
        self._held = keep

    def _pending_keys(self, user_only: bool = False) -> List[Tuple[int, int]]:
        keys = [k for k, q in self._boxes.items() if q]
        keys += [entry[1] for entry in self._held]
        if user_only:
            keys = [k for k in keys if k[1] >= 0]
        return sorted(set(keys))

    # -- inbound ---------------------------------------------------------
    def _ingest(
        self, src: int, tag: int, obj: Any, timestamp: Optional[float],
        nbytes: int, hold: int,
    ) -> None:
        self._seq += 1
        seq = self._seq
        key = (src, tag)
        if self._held:
            # non-overtaking: a same-key arrival flushes held ones first
            self._release_held(key=key)
        if hold > 0:
            self._held.append([seq + hold, key, (obj, timestamp, nbytes)])
            self._release_held(due_seq=seq)
            return
        if self._held:
            self._release_held(due_seq=seq)
        self._boxes.setdefault(key, deque()).append((obj, timestamp, nbytes))

    def _handle(self, msg: Tuple[Any, ...]) -> None:
        if msg[0] == "m":
            _, src, tag, obj, timestamp, nbytes, hold = msg
            self._ingest(src, tag, obj, timestamp, nbytes, hold)
        else:  # ("a", origin_rank, errinfo)
            _, origin, errinfo = msg
            if self.aborted is None:
                if errinfo.get("injected"):
                    original: BaseException = InjectedFault(
                        errinfo.get("message", "injected fault"),
                        rank=origin, step=errinfo.get("step"),
                    )
                else:
                    original = RuntimeError(
                        f"{errinfo.get('error_type', 'RuntimeError')}: "
                        f"{errinfo.get('message', '')}"
                    )
                self.aborted = RankError(origin, original)

    def _drain(self, timeout: float) -> None:
        conns = list(self._readers.values())
        if not conns:
            if timeout > 0:
                time.sleep(min(timeout, 0.05))
            return
        try:
            ready = _conn_wait(conns, timeout)
        except OSError:
            ready = []
        for conn in ready:
            src = self._src_of.get(conn)
            while True:
                try:
                    if not conn.poll(0):
                        break
                    msg = conn.recv()
                except (EOFError, OSError):
                    # peer exited; all its data was drained before EOF
                    if src is not None:
                        self._eof.add(src)
                        self._readers.pop(src, None)
                    self._src_of.pop(conn, None)
                    conn.close()
                    break
                self._handle(msg)

    # -- mailbox interface (used by the Communicator) --------------------
    def deliver(
        self, src: int, dest: int, tag: int, obj: Any,
        timestamp: Optional[float], nbytes: int,
    ) -> None:
        self._drain(0.0)  # notice aborts promptly, even on send-heavy paths
        if self.aborted is not None:
            raise self.aborted
        self.message_count += 1
        self.byte_count += nbytes
        hold = 0
        if self._faults is not NULL_FAULT_PLAN:
            # chosen from the sender's stream (scheduling-independent)
            # and shipped with the message for the receiver to apply
            hold = self._faults.deliver_hold(src, dest, tag)
        if dest == self._rank:
            self._ingest(src, tag, obj, timestamp, nbytes, hold)
        else:
            # pickled here, not on the sender thread: the GIL-bound work
            # stays on the rank, and an unpicklable payload raises from
            # the sending call
            self._sender.post(
                dest, _dumps(("m", src, tag, obj, timestamp, nbytes, hold))
            )

    def collect(
        self, dest: int, src: int, tag: int
    ) -> Tuple[Any, Optional[float], int]:
        key = (src, tag)
        deadline: Optional[float] = None
        start: Optional[float] = None
        while True:
            if self.aborted is not None:
                raise self.aborted
            if self._held:
                # a receiver asking for a held message gets it now:
                # injected reordering must never deadlock the run
                self._release_held(key=key)
            q = self._boxes.get(key)
            if q:
                item = q.popleft()
                if not q:
                    del self._boxes[key]
                return item
            now = time.monotonic()
            if deadline is None:
                start = now
                deadline = now + self._timeout
            if src in self._eof and src != self._rank:
                # the sender already exited and everything it wrote has
                # been drained — this message can never arrive
                elapsed = now - (start if start is not None else now)
                pending = self._pending_keys()
                pretty = (
                    ", ".join(f"(src={s}, tag={t})" for s, t in pending)
                    or "none"
                )
                raise DeadlockError(
                    f"rank {dest} waiting for message from rank {src} tag "
                    f"{tag}, but that rank has exited; undelivered in its "
                    f"mailbox: {pretty}",
                    elapsed_s=elapsed,
                    pending=pending,
                )
            remaining = deadline - now
            if remaining <= 0:
                elapsed = now - (start if start is not None else now)
                pending = self._pending_keys()
                pretty = (
                    ", ".join(f"(src={s}, tag={t})" for s, t in pending)
                    or "none"
                )
                raise DeadlockError(
                    f"rank {dest} waited {elapsed:.2f}s (timeout "
                    f"{self._timeout}s) for message from rank {src} tag "
                    f"{tag}; undelivered in its mailbox: {pretty}",
                    elapsed_s=elapsed,
                    pending=pending,
                )
            self._drain(min(remaining, 0.25))

    def try_collect(
        self, dest: int, src: int, tag: int
    ) -> Optional[Tuple[Any, Optional[float], int]]:
        self._drain(0.0)
        if self.aborted is not None:
            raise self.aborted
        key = (src, tag)
        if self._held:
            self._release_held(key=key)
        q = self._boxes.get(key)
        if not q:
            return None
        item = q.popleft()
        if not q:
            del self._boxes[key]
        return item

    # -- teardown --------------------------------------------------------
    def broadcast_abort(self, origin: int, errinfo: Dict[str, Any]) -> None:
        for dest in range(self._nprocs):
            if dest != self._rank:
                self._sender.post(dest, _dumps(("a", origin, errinfo)))

    def shutdown(self) -> None:
        self._sender.stop()


def _rebuild_faults(plan_spec: Any, nprocs: int) -> Any:
    if plan_spec is None:
        return NULL_FAULT_PLAN
    kind, *rest = plan_spec
    if kind == "spec":
        seed, fault_specs = rest
        faults = FaultPlan(seed, fault_specs)
    else:  # "pickle": an arbitrary plan-like object shipped whole
        (faults,) = rest
    faults.begin_run(nprocs)
    return faults


def _child_main(
    rank: int,
    nprocs: int,
    fn: Callable[..., Any],
    args: Tuple[Any, ...],
    kwargs: Dict[str, Any],
    machine: Optional[MachineModel],
    deadlock_timeout: float,
    want_trace: bool,
    want_obs: bool,
    plan_spec: Any,
    msg_pipes: Dict[Tuple[int, int], Tuple[Connection, Connection]],
    res_pipes: Dict[int, Tuple[Connection, Connection]],
) -> None:
    """Entry point of one rank process."""
    from repro.mpi.trace import TraceRecorder
    from repro.obs.tracer import NULL_TRACER, Tracer

    # keep only this rank's channel ends; close every inherited copy so
    # peer EOFs are observable (an fd held open here would mask them)
    writers: Dict[int, Connection] = {}
    readers: Dict[int, Connection] = {}
    for (s, d), (rconn, wconn) in msg_pipes.items():
        if s == rank:
            writers[d] = wconn
            rconn.close()
        elif d == rank:
            readers[s] = rconn
            wconn.close()
        else:
            rconn.close()
            wconn.close()
    result_conn: Optional[Connection] = None
    for r, (rres, wres) in res_pipes.items():
        if r == rank:
            result_conn = wres
            rres.close()
        else:
            rres.close()
            wres.close()
    assert result_conn is not None

    faults = _rebuild_faults(plan_spec, nprocs)
    clock = LogicalClock(machine) if machine is not None else None
    if clock is not None and faults is not NULL_FAULT_PLAN:
        clock.slowdown = faults.compute_factor(rank)
    tracer = Tracer() if want_obs else NULL_TRACER
    robs = _RankObs(tracer, rank, faults)
    recorder = TraceRecorder() if want_trace else None
    router = _PipeRouter(rank, nprocs, writers, readers, faults, deadlock_timeout)
    comm = Communicator(
        rank, nprocs, router, clock, trace=recorder, obs=robs, faults=faults
    )
    robs.bind_clock(clock)

    status = "done"
    value: Any = None
    errinfo: Dict[str, Any] = {}
    t_start = time.perf_counter()
    try:
        with robs.span("rank", rank=rank, nprocs=nprocs):
            value = fn(comm, *args, **kwargs)
    except RankError as err:  # propagated abort from another rank
        status = "aborted"
        errinfo = {"origin": err.rank, "pending": router._pending_keys(user_only=True)}
    except BaseException as exc:  # noqa: BLE001 - must not hang siblings
        status = "error"
        injected = isinstance(exc, InjectedFault)
        step = robs.current_step
        if injected and getattr(exc, "step", None) is not None:
            step = exc.step
        errinfo = {
            "step": step,
            "error_type": type(exc).__name__,
            "message": str(exc),
            "injected": injected,
            "pending": router._pending_keys(user_only=True),
        }
        router.broadcast_abort(rank, errinfo)
    finally:
        measured_s = time.perf_counter() - t_start
        robs.bind_clock(None)
        router.shutdown()  # flush queued sends before reporting

    fired: List[str] = []
    stream = getattr(faults, "_stream", None)
    if stream is not None:
        fired = list(stream(rank).fired)
    report: Dict[str, Any] = {
        "status": status,
        "rank": rank,
        "errinfo": errinfo,
        "measured_s": measured_s,
        "fired": fired,
        "message_count": router.message_count,
        "byte_count": router.byte_count,
        "clock": None,
        "value": value if status == "done" else None,
        "spans": [s.to_dict() for s in tracer.roots] if want_obs else [],
        "trace_events": list(recorder.events) if recorder is not None else [],
    }
    if clock is not None:
        report["clock"] = (
            clock.time, dict(clock.work_units), clock.comm_seconds,
            clock.idle_seconds, clock.slowdown,
        )
    try:
        result_conn.send(report)
    except Exception as exc:  # value not picklable, or parent gone
        try:
            result_conn.send({
                "status": "error",
                "rank": rank,
                "errinfo": {
                    "step": None,
                    "error_type": type(exc).__name__,
                    "message": f"rank result could not be serialized: {exc}",
                    "injected": False,
                    "pending": [],
                },
                "measured_s": measured_s,
                "fired": fired,
                "message_count": router.message_count,
                "byte_count": router.byte_count,
                "clock": None,
                "value": None,
                "spans": [],
                "trace_events": [],
            })
        except Exception:
            pass
    finally:
        result_conn.close()


def _restore_clock(
    machine: Optional[MachineModel], state: Optional[Tuple[Any, ...]]
) -> Optional[LogicalClock]:
    if machine is None or state is None:
        return None
    clock = LogicalClock(machine)
    clock.time, units, clock.comm_seconds, clock.idle_seconds, clock.slowdown = state
    clock.work_units.update(units)
    return clock


def _synthesize_original(errinfo: Dict[str, Any], rank: int) -> BaseException:
    message = errinfo.get("message", "")
    error_type = errinfo.get("error_type", "RuntimeError")
    if errinfo.get("injected"):
        return InjectedFault(message, rank=rank, step=errinfo.get("step"))
    if error_type == "DeadlockError":
        return DeadlockError(message)
    return RuntimeError(f"{error_type}: {message}")


def run_multiprocess(
    nprocs: int,
    fn: Callable[..., Any],
    args: Sequence[Any] = (),
    kwargs: Optional[Dict[str, Any]] = None,
    machine: Optional[MachineModel] = None,
    deadlock_timeout: float = 60.0,
    trace: Optional[Any] = None,
    obs: Optional[Any] = None,
    faults: Optional[Any] = None,
) -> SpmdResult:
    """The ``multiprocess`` transport runner (see module docstring).

    Same signature and contract as
    :func:`~repro.mpi.runtime.run_inprocess`; prefer calling
    :func:`~repro.mpi.runtime.run_spmd` with ``transport`` instead of
    calling either runner directly.
    """
    from repro.obs.metrics import REGISTRY
    from repro.obs.tracer import NULL_TRACER, NullTracer, Span

    if nprocs <= 0:
        raise ValueError("nprocs must be positive")
    kwargs = kwargs or {}
    obs = obs if obs is not None else NULL_TRACER
    faults = faults if faults is not None else NULL_FAULT_PLAN
    faults.begin_run(nprocs)
    if faults is NULL_FAULT_PLAN:
        plan_spec = None
    elif isinstance(faults, FaultPlan):
        plan_spec = ("spec", faults.seed, faults.faults)
    else:
        plan_spec = ("pickle", faults)
    want_obs = not isinstance(obs, NullTracer)
    want_trace = trace is not None

    ctx = _pick_context()
    msg_pipes: Dict[Tuple[int, int], Tuple[Connection, Connection]] = {
        (s, d): ctx.Pipe(duplex=False)
        for s in range(nprocs)
        for d in range(nprocs)
        if s != d
    }
    res_pipes: Dict[int, Tuple[Connection, Connection]] = {
        r: ctx.Pipe(duplex=False) for r in range(nprocs)
    }

    wall_start = time.perf_counter()
    procs: List[mp.process.BaseProcess] = []
    reports: Dict[int, Optional[Dict[str, Any]]] = {}
    # Child lifecycle is try/finally-scoped: a KeyboardInterrupt or any
    # parent-side exception raised between the first start() and the
    # normal join path used to orphan every rank process still running.
    # Children are additionally daemonic (fork-safe here: rank programs
    # spawn threads, never processes), so even a parent hard-kill that
    # skips `finally` cannot leave ranks behind.
    try:
        for rank in range(nprocs):
            p = ctx.Process(
                target=_child_main,
                args=(
                    rank, nprocs, fn, tuple(args), dict(kwargs), machine,
                    deadlock_timeout, want_trace, want_obs, plan_spec,
                    msg_pipes, res_pipes,
                ),
                name=f"spmd-rank-{rank}",
                daemon=True,
            )
            p.start()
            procs.append(p)
        # the children own the channels now; parent copies must close so
        # pipe EOFs propagate when a rank exits
        for rconn, wconn in msg_pipes.values():
            rconn.close()
            wconn.close()
        for _, wres in res_pipes.values():
            wres.close()

        waiting: Dict[Connection, int] = {
            rres: rank for rank, (rres, _) in res_pipes.items()
        }
        hard_deadline = time.monotonic() + deadlock_timeout + _PARENT_GRACE_S
        while waiting and time.monotonic() < hard_deadline:
            ready = _conn_wait(list(waiting), timeout=0.5)
            for conn in ready:
                rank = waiting.pop(conn)
                try:
                    reports[rank] = conn.recv()
                except (EOFError, OSError):
                    reports[rank] = None  # died without reporting
                conn.close()
            for conn in list(waiting):
                rank = waiting[conn]
                if not procs[rank].is_alive() and not conn.poll(0):
                    del waiting[conn]
                    reports[rank] = None
                    conn.close()
        for conn, rank in list(waiting.items()):
            reports[rank] = None  # hung past the parent grace deadline
            conn.close()
        measured_wall_s = time.perf_counter() - wall_start
        for rank, p in enumerate(procs):
            p.join(timeout=5.0)
    finally:
        # no-op on the clean path (every rank already joined); on an
        # interrupted or failing path this reaps all surviving children
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            if p.is_alive():
                p.join(timeout=5.0)
            if p.is_alive():
                p.kill()
                p.join(timeout=1.0)

    # merge shipped fired-injection logs into the caller's plan so chaos
    # replay comparisons and summaries see one coherent record
    stream = getattr(faults, "_stream", None)
    if stream is not None:
        for rank in range(nprocs):
            rep = reports.get(rank)
            if rep is not None:
                stream(rank).fired[:] = rep.get("fired", [])

    failed = {
        rank: rep for rank, rep in reports.items()
        if rep is None or rep["status"] == "error"
    }
    if failed:
        ranks: List[RankFailure] = []
        pending: Dict[int, List[Tuple[int, int]]] = {}
        for rank in range(nprocs):
            rep = reports.get(rank)
            if rep is None:
                exitcode = procs[rank].exitcode
                ranks.append(RankFailure(
                    rank=rank,
                    kind="crashed",
                    error_type="ProcessExit",
                    message=(
                        f"rank {rank} exited without reporting "
                        f"(exitcode {exitcode})"
                    ),
                ))
            elif rep["status"] == "done":
                ranks.append(RankFailure(rank=rank, kind="ok"))
            elif rep["status"] == "error":
                info = rep["errinfo"]
                ranks.append(RankFailure(
                    rank=rank,
                    kind="crashed",
                    step=info.get("step"),
                    error_type=info.get("error_type"),
                    message=info.get("message"),
                    injected=bool(info.get("injected")),
                ))
                keys = [tuple(k) for k in info.get("pending", [])]
                if keys:
                    pending[rank] = keys
            else:  # aborted: released by another rank's failure
                ranks.append(RankFailure(
                    rank=rank, kind="aborted", error_type="RankError"
                ))
        origin_rank = min(failed)
        origin_rec = next(r for r in ranks if r.rank == origin_rank)
        REGISTRY.counter("spmd.failed_runs").inc()
        REGISTRY.counter("spmd.rank_failures").inc(
            sum(1 for r in ranks if r.kind == "crashed")
        )
        origin_rep = reports.get(origin_rank)
        origin_info = origin_rep["errinfo"] if origin_rep is not None else {
            "error_type": "ProcessExit",
            "message": origin_rec.message or "",
            "injected": False,
        }
        failure = RunFailure(
            nprocs=nprocs,
            failed_rank=origin_rank,
            step=origin_rec.step,
            error_type=origin_rec.error_type or "ProcessExit",
            message=origin_rec.message or "",
            injected=origin_rec.injected,
            ranks=ranks,
            pending=pending,
        )
        err = RankError(origin_rank, _synthesize_original(origin_info, origin_rank))
        err.report = failure
        raise err

    values: List[Any] = [None] * nprocs
    clocks: List[Optional[LogicalClock]] = [None] * nprocs
    measured: List[float] = [0.0] * nprocs
    message_count = 0
    byte_count = 0
    adopted: List[Any] = []
    for rank in range(nprocs):
        rep = reports[rank]
        assert rep is not None  # the failed branch above raised otherwise
        if rep["status"] == "aborted":
            # every erroring rank is in `failed`, so a lone "aborted"
            # here means its origin never materialized — treat as error
            origin = rep["errinfo"].get("origin", rank)
            raise RankError(origin, RuntimeError(
                f"rank {rank} observed an abort from rank {origin} but no "
                "rank reported a failure"
            ))
        values[rank] = rep["value"]
        clocks[rank] = _restore_clock(machine, rep["clock"])
        measured[rank] = rep["measured_s"]
        message_count += rep["message_count"]
        byte_count += rep["byte_count"]
        adopted.extend(Span.from_dict(d) for d in rep["spans"])
        if trace is not None and rep["trace_events"]:
            with trace._lock:
                trace.events.extend(rep["trace_events"])
    if adopted:
        adopt = getattr(obs, "adopt", None)
        if adopt is not None:
            adopt(adopted)

    return SpmdResult(
        values=values,
        clocks=clocks,
        message_count=message_count,
        byte_count=byte_count,
        transport="multiprocess",
        measured_rank_s=measured,
        measured_wall_s=measured_wall_s,
    )
