"""Tracing must be passive: bit-identical results, near-zero off cost."""

from __future__ import annotations

import functools
import sys

from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    _NullSpanContext,
    _SpanContext,
    _TracingCounter,
)
from repro.parallel.driver import route_parallel, serial_baseline
from repro.perfmodel.counter import NULL_COUNTER
from repro.twgr.router import GlobalRouter


def _fingerprint(result):
    return (
        result.total_tracks,
        dict(result.channel_tracks),
        result.num_feedthroughs,
        result.horizontal_wirelength,
        result.vertical_wirelength,
        result.core_width,
        result.area,
        result.side_conflicts,
        result.unplanned_crossings,
        result.num_spans,
        result.flips,
        dict(result.work_units),
        result.model_time,
    )


def test_serial_route_bit_identical_with_tracer(small_circuit, config):
    plain = GlobalRouter(config).route(small_circuit)
    tracer = Tracer()
    traced = GlobalRouter(config).route(small_circuit, tracer=tracer)
    assert _fingerprint(traced) == _fingerprint(plain)
    # ... and the tracer actually saw the pipeline.
    steps = tracer.step_totals()
    assert set(steps) >= {
        "step1_steiner",
        "step2_coarse",
        "step3_feedthrough",
        "step4_connect",
        "step5_switch",
    }


def test_serial_baseline_bit_identical_with_tracer(small_circuit, config):
    plain = serial_baseline(small_circuit, config=config)
    traced = serial_baseline(small_circuit, config=config, tracer=Tracer())
    assert _fingerprint(traced) == _fingerprint(plain)


def test_parallel_route_bit_identical_with_tracer(small_circuit, config):
    kwargs = dict(
        algorithm="hybrid",
        nprocs=2,
        config=config,
        compute_baseline=False,
    )
    plain = route_parallel(small_circuit, **kwargs)
    obs = Tracer()
    traced = route_parallel(small_circuit, obs=obs, **kwargs)
    assert _fingerprint(traced.result) == _fingerprint(plain.result)
    steps = obs.step_totals()
    assert "step1_steiner" in steps
    assert "step5_switch" in steps
    # one rank span per process
    assert steps["step1_steiner"]["count"] == 2


def test_netwise_route_bit_identical_with_tracer(small_circuit, config):
    kwargs = dict(
        algorithm="netwise",
        nprocs=2,
        config=config,
        compute_baseline=False,
    )
    plain = route_parallel(small_circuit, **kwargs)
    traced = route_parallel(small_circuit, obs=Tracer(), **kwargs)
    assert _fingerprint(traced.result) == _fingerprint(plain.result)


def _codes(*classes) -> set:
    """Code objects of every function and property defined on ``classes``."""
    out = set()
    for cls in classes:
        for attr in vars(cls).values():
            fn = attr.fget if isinstance(attr, property) else attr
            code = getattr(fn, "__code__", None)
            if code is not None:
                out.add(code)
    return out


def _count_calls(codes: set, fn) -> int:
    """Python-level calls into ``codes`` made by ``fn`` on this thread."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code in codes:
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_null_tracer_runs_no_tracing_code(small_circuit, medium_circuit, config):
    """The off-switch must be free: with ``NULL_TRACER`` no tracer, span or
    counter-wrapper code runs, and the no-op hooks it does run are a fixed
    handful per route, independent of how much routing work is done."""
    router = GlobalRouter(config)
    tracing = _codes(Tracer, Span, _SpanContext, _TracingCounter)
    hooks = _codes(NullTracer, _NullSpanContext)
    hook_calls = []
    for circuit in (small_circuit, medium_circuit):
        route = functools.partial(router.route, circuit, tracer=NULL_TRACER)
        assert _count_calls(tracing, route) == 0
        hook_calls.append(_count_calls(hooks, route))
    assert 0 < hook_calls[0] == hook_calls[1]
    # the probe does see tracing code when it runs: a real tracer's
    # counter wrapper is called on every work charge
    traced = functools.partial(router.route, small_circuit, tracer=Tracer())
    assert _count_calls(tracing, traced) > hook_calls[0]


def test_null_tracer_default_keeps_counter_identity(small_circuit, config):
    # route() with no tracer must not wrap NULL_COUNTER in anything.
    assert NULL_TRACER.wrap_counter(NULL_COUNTER) is NULL_COUNTER
    result = GlobalRouter(config).route(small_circuit)
    assert result.total_tracks > 0
