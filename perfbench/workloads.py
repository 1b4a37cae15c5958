"""The in-process workloads: serial route, hybrid multiprocess route and
the cold sweep.  Each has a timed runner (tracing off, end-to-end
metrics) and a traced runner (per-layer metrics); both check outputs.

Inputs come only from the workload seed: the circuit is
``mcnc.generate(<name>, scale, seed)`` and the router seed is ``seed``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Sequence

from common import (
    SETUP_REPEATS,
    STEPS,
    Op,
    Outcome,
    expected_for,
    frac,
    make_tmpdir,
    median,
    quality,
    ref_median,
    repeat_for,
    timed,
)

from repro import GlobalRouter, RouterConfig, mcnc, route_parallel
from repro.exec.cache import RunCache
from repro.exec.engine import SweepPoint, run_sweep_salvage
from repro.mpi.trace import TraceRecorder
from repro.obs.tracer import Tracer

#: sweep fan-out width (the host has two cores)
SWEEP_JOBS = 2
SWEEP_ALGORITHMS = ("rowwise", "netwise", "hybrid")
SWEEP_NPROCS = (2, 4, 8)


def biomed_scale(tiny: bool) -> float:
    return 0.05 if tiny else 1.0


def struct_scale(tiny: bool) -> float:
    return 0.1 if tiny else 1.0


def generate_setup(name: str, scale: float, seed: int) -> tuple:
    """Generate the workload circuit :data:`SETUP_REPEATS` times;
    returns ``(circuit, [Op per generation])``.  Only the newest circuit
    is kept, so set-up adds one circuit to the peak RSS."""
    kept: List[Any] = []

    def generate() -> None:
        kept.clear()
        kept.append(mcnc.generate(name, scale=scale, seed=seed))

    gens = repeat_for(0.0, generate, min_runs=SETUP_REPEATS)
    return kept[0], gens


def reference(workload: str, args: Any, first: Any) -> Any:
    """The recorded output at this seed (full scale only), else ``first``."""
    recorded = None if args.tiny else expected_for(workload, args.seed)
    return first if recorded is None else recorded


def check_all(out: Outcome, workload: str, args: Any, results: Sequence[Any]) -> None:
    """Every routed result must equal the recorded (or the first) output."""
    ref = reference(workload, args, quality(results[0]))
    for i, res in enumerate(results):
        got = quality(res)
        out.check(got == ref, f"{workload} op {i}: {got} != expected {ref}")


def step_walls(totals: Dict[str, Dict[str, float]], key: str = "wall_sum_s") -> List[float]:
    return [totals.get(s, {}).get(key, 0.0) for s in STEPS]


def put_step_metrics(out: Outcome, fmt: str, rows: Sequence[Sequence[float]]) -> None:
    """Per-step medians over ``rows`` (one five-step row per operation),
    named ``fmt.format(step)``."""
    for i, step in enumerate(STEPS):
        out.metrics[fmt.format(step)] = median([r[i] for r in rows])


def dirty_frac(pass_stats: Sequence[Dict[str, int]]) -> float:
    dirty = sum(p.get("dirty", 0) for p in pass_stats)
    clean = sum(p.get("clean", 0) for p in pass_stats)
    return frac(dirty, dirty + clean)


def put_e2e(out: Outcome, gens: Sequence[Op], ops: Sequence[Op], name: str) -> None:
    """Every operation of these workloads computes its result (none is
    read from a cache), so all of them are fresh operations.  The gated
    medians are host-normalized; the measured ones are printed, the
    operation's as ``name``."""
    gen_s, out.metrics["setup_s"] = ref_median(gens)
    op_s, ref_s = ref_median(ops)
    out.metrics["fresh_p50_ms"] = ref_s * 1e3
    out.extra["setup_measured_s"] = (gen_s, "s")
    out.extra[name] = (op_s, "s")
    out.extra["calib_p50_ms"] = (median([op.calib_s for op in ops]) * 1e3, "ms")


def put_serial_layers(out: Outcome, traced: Sequence[tuple]) -> None:
    """Layer metrics of traced serial routes ``(seconds, result, artifacts,
    tracer)``: step split, wasted-work shares and work units."""
    put_step_metrics(out, "twgr.{}_s", [step_walls(tr.step_totals()) for _, _, _, tr in traced])
    _, res, art, _ = traced[0]
    out.metrics["grid.coarse_dirty_frac"] = dirty_frac(art.grid.flip_pass_stats())
    out.metrics["twgr.switch_dirty_frac"] = dirty_frac(art.switch_stats)
    out.metrics["twgr.work_units"] = sum(res.work_units.values())


# -- route-biomed ------------------------------------------------------------


def _serial_setup(args: Any) -> tuple:
    circuit, gens = generate_setup("biomed", biomed_scale(args.tiny), args.seed)
    return circuit, gens, GlobalRouter(RouterConfig(seed=args.seed))


def _traced_serial(router: GlobalRouter, circuit: Any) -> tuple:
    tracer = Tracer()
    t, (res, art) = timed(lambda: router.route_with_artifacts(circuit, tracer=tracer))
    return t, res, art, tracer


def route_timed(args: Any, out: Outcome) -> None:
    circuit, gens, router = _serial_setup(args)
    ops = repeat_for(args.seconds, lambda: router.route(circuit))
    check_all(out, "route-biomed", args, [op.result for op in ops])
    put_e2e(out, gens, ops, "route_s")


def route_traced(args: Any, out: Outcome) -> None:
    circuit, gens, router = _serial_setup(args)
    plain: List[tuple] = []
    traced: List[tuple] = []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < args.seconds:
        plain.append(timed(lambda: router.route(circuit)))
        traced.append(_traced_serial(router, circuit))
    check_all(out, "route-biomed", args,
              [r for _, r in plain] + [r for _, r, _, _ in traced])
    out.metrics["circuits.generate_s"] = median([op.seconds for op in gens])
    put_serial_layers(out, traced)
    out.metrics["obs.trace_overhead"] = (
        median([t for t, *_ in traced]) / median([t for t, _ in plain]) - 1.0
    )


# -- hybrid-p2-biomed --------------------------------------------------------


def _hybrid(circuit: Any, cfg: RouterConfig, transport: str = "multiprocess",
            **kw: Any) -> Any:
    return route_parallel(
        circuit, algorithm="hybrid", nprocs=2, config=cfg,
        transport=transport, compute_baseline=False, **kw,
    )


def hybrid_timed(args: Any, out: Outcome) -> None:
    circuit, gens = generate_setup("biomed", biomed_scale(args.tiny), args.seed)
    cfg = RouterConfig(seed=args.seed)
    ops = repeat_for(args.seconds, lambda: _hybrid(circuit, cfg))
    check_all(out, "hybrid-p2-biomed", args, [op.result.result for op in ops])
    put_e2e(out, gens, ops, "route_s")


def hybrid_traced(args: Any, out: Outcome) -> None:
    circuit, gens = generate_setup("biomed", biomed_scale(args.tiny), args.seed)
    cfg = RouterConfig(seed=args.seed)
    router = GlobalRouter(cfg)
    plain: List[tuple] = []
    traced: List[tuple] = []
    serial: List[tuple] = []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < args.seconds:
        plain.append(timed(lambda: _hybrid(circuit, cfg)))
        tracer, rec = Tracer(), TraceRecorder()
        t, run = timed(lambda: _hybrid(circuit, cfg, obs=tracer, trace=rec))
        traced.append((t, run, tracer, rec))
        serial.append(_traced_serial(router, circuit))
    results = [r.result for _, r in plain] + [r.result for _, r, _, _ in traced]
    check_all(out, "hybrid-p2-biomed", args, results)
    inproc = _hybrid(circuit, cfg, transport="inprocess").result
    out.check(
        quality(inproc) == quality(results[0]),
        f"in-process hybrid {quality(inproc)} != multiprocess {quality(results[0])}",
    )

    plain_s = median([t for t, _ in plain])
    serial_s = median([t for t, *_ in serial])
    ranks = [run.timing.measured_rank_s for _, run, _, _ in traced]
    out.metrics["circuits.generate_s"] = median([op.seconds for op in gens])
    put_serial_layers(out, serial)
    out.metrics["twgr.work_units"] = sum(results[0].work_units.values())
    put_step_metrics(out, "parallel.rank_{}_max_s", [
        step_walls(tr.step_totals(), "wall_max_s") for _, _, tr, _ in traced
    ])
    out.metrics["parallel.work_inflation"] = median([sum(r) for r in ranks]) / serial_s
    out.metrics["parallel.speedup"] = serial_s / plain_s
    out.metrics["mpi.rank_max_s"] = median([max(r) for r in ranks])
    out.metrics["mpi.rank_imbalance"] = median([max(r) / min(r) for r in ranks])
    out.metrics["mpi.outside_ranks_s"] = median(
        [t - max(run.timing.measured_rank_s) for t, run, _, _ in traced]
    )
    out.metrics["mpi.messages"] = traced[0][3].total_messages()
    out.metrics["mpi.bytes"] = traced[0][3].total_bytes()
    out.metrics["obs.trace_overhead"] = median([t for t, *_ in traced]) / plain_s - 1.0


# -- sweep-struct ------------------------------------------------------------


class TimedCache(RunCache):
    """A run cache that adds up the time spent in :meth:`put`."""

    def __init__(self, root: Any) -> None:
        super().__init__(root)
        self.put_s = 0.0

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        t0 = time.perf_counter()
        try:
            super().put(key, payload)
        finally:
            self.put_s += time.perf_counter() - t0


def sweep_points(seed: int, tiny: bool) -> List[SweepPoint]:
    """The shared serial baseline plus algorithms x processor counts."""
    cfg = RouterConfig(seed=seed)
    scale = struct_scale(tiny)
    base = SweepPoint("struct", "serial", 1, scale, seed, config=cfg)
    return [base] + [
        SweepPoint("struct", alg, p, scale, seed, config=cfg)
        for alg in SWEEP_ALGORITHMS for p in SWEEP_NPROCS
    ]


def point_label(point: SweepPoint) -> str:
    return f"{point.algorithm}/{point.nprocs}"


def sweep_once(points: Sequence[SweepPoint]) -> tuple:
    """One cold sweep into a fresh cache: ``(outcome, cache)``."""
    cache = TimedCache(make_tmpdir("sweep"))
    return run_sweep_salvage(points, jobs=SWEEP_JOBS, cache=cache), cache


def run_sweeps(args: Any, points: Sequence[SweepPoint]) -> List[Op]:
    """Cold sweeps for ``args.seconds``; each result is ``(outcome, cache)``."""
    return repeat_for(args.seconds, lambda: sweep_once(points), min_runs=2)


def check_sweeps(out: Outcome, args: Any, points: Sequence[SweepPoint],
                 sweeps: Sequence[Op]) -> None:
    """Every point of every sweep is fresh and matches the reference."""
    first = {point_label(r): quality(r.result) for r in sweeps[0].result[0].records
             if not r.cached}
    ref = reference("sweep-struct", args, first)
    for n, (outcome, _) in enumerate(op.result for op in sweeps):
        got = {point_label(r): quality(r.result) for r in outcome.records
               if not r.cached}
        for p in points:
            label = point_label(p)
            out.check(
                got.get(label) == ref.get(label),
                f"sweep {n} point {label}: {got.get(label)} != {ref.get(label)}",
            )


def _sweep_setup(args: Any) -> tuple:
    _, gens = generate_setup("struct", struct_scale(args.tiny), args.seed)
    return gens, sweep_points(args.seed, args.tiny)


def sweep_timed(args: Any, out: Outcome) -> None:
    gens, points = _sweep_setup(args)
    sweeps = run_sweeps(args, points)
    check_sweeps(out, args, points, sweeps)
    put_e2e(out, gens, sweeps, "sweep_s")


def sweep_traced(args: Any, out: Outcome) -> None:
    gens, points = _sweep_setup(args)
    sweeps = run_sweeps(args, points)
    check_sweeps(out, args, points, sweeps)
    point_sums, base_s, put_s, eff, steps, units, hosts = [], [], [], [], [], [], []
    for t, (outcome, cache), _ in sweeps:
        fresh = [r for r in outcome.records if not r.cached]
        point_sums.append(sum(r.host_seconds for r in fresh))
        eff.append(point_sums[-1] / (t * SWEEP_JOBS))
        base_s.append(next((r.host_seconds for r in fresh if r.algorithm == "serial"), 0.0))
        put_s.append(cache.put_s)
        steps.append([
            sum(r.profile["steps"].get(s, {}).get("wall_sum_s", 0.0) for r in fresh)
            for s in STEPS
        ])
        units.append(sum(sum(r.result["work_units"].values()) for r in fresh))
        hosts.extend(r.host_seconds * 1e3 for r in fresh)
    out.metrics["circuits.generate_s"] = median([op.seconds for op in gens])
    put_step_metrics(out, "twgr.{}_s", steps)
    out.metrics["twgr.work_units"] = units[0]
    out.metrics["exec.point_s_sum"] = median(point_sums)
    out.metrics["exec.fanout_eff"] = median(eff)
    out.metrics["exec.baseline_s"] = median(base_s)
    out.metrics["exec.cache_put_s"] = median(put_s)
    out.metrics["exec.point_host_p50_ms"] = median(hosts)
