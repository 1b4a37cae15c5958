#!/usr/bin/env python3
"""Repository benchmark: one command per workload, one JSON line of results.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload route-biomed --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate traced run that reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the host fingerprint and every metric by name with its
unit.  ``BENCHMARK.json`` lists the workloads and metrics;
``perfbench/NOTES.md`` says why each exists.

The program under test is imported from ``src/`` of the current
directory.  Without ``src/repro`` the command exits with status 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent

#: environment variables that override the program's default
#: configuration; cleared so the defaults are what is measured
ISOLATED_ENV = ("REPRO_BACKEND", "REPRO_TRANSPORT", "REPRO_JOBS", "REPRO_CACHE_DIR")


def fingerprint() -> Dict[str, Any]:
    """Host fingerprint stamped on every output."""
    import numpy

    from repro.twgr.config import RouterConfig

    from common import calib_loop_s

    return {
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calib_ns": int(statistics.median(calib_loop_s() for _ in range(5)) * 1e9),
        "backend": RouterConfig().resolved_backend(),
        "transport": RouterConfig().resolved_transport(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="scaled-down inputs for the self-test (no recorded outputs)",
    )
    args = parser.parse_args(argv)

    if not Path("src/repro/__init__.py").is_file():
        print("perfbench: no src/repro here; run from a checkout's root",
              file=sys.stderr)
        return 2
    for name in ISOLATED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(Path("src").resolve()))

    import serve
    import workloads
    from common import InvalidRun, Outcome, cleanup_tmp, frac, peak_rss_mb

    runners = {
        ("route-biomed", 0): workloads.route_timed,
        ("route-biomed", 1): workloads.route_traced,
        ("hybrid-p2-biomed", 0): workloads.hybrid_timed,
        ("hybrid-p2-biomed", 1): workloads.hybrid_traced,
        ("sweep-struct", 0): workloads.sweep_timed,
        ("sweep-struct", 1): workloads.sweep_traced,
        ("serve-mixed", 0): serve.serve,
        ("serve-mixed", 1): serve.serve,
    }
    runner = runners.get((args.workload, args.trace))
    if runner is None:
        names = sorted({w for w, _ in runners})
        print(f"perfbench: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    out = Outcome()
    try:
        runner(args, out)
    except InvalidRun as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 1
    finally:
        cleanup_tmp()

    out.metrics["peak_rss_mb"] = peak_rss_mb()
    out.extra["fail_frac"] = (frac(out.failed, out.attempted), "ratio")
    metrics = {}
    for m in spec["per_layer"] if args.trace else spec["end_to_end"]:
        # a layer the workload does not exercise reads 0
        value = float(out.metrics.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']}")
    for name, (value, unit) in sorted(out.extra.items()):
        print(f"{name} = {value:.6g} {unit}")
    for note in out.notes:
        print(note)
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
