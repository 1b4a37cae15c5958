"""Helpers shared by the benchmark's workloads: timing and host
calibration, statistics, result tallies, scratch directories and the
recorded expected outputs."""

from __future__ import annotations

import json
import math
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

#: scratch space for caches and server logs, inside the checkout
TMP_ROOT = Path(".perfbench_tmp")

#: set-ups per run; ``setup_s`` is their host-normalized median
SETUP_REPEATS = 5

BENCH_DIR = Path(__file__).resolve().parent

#: iterations of the calibration loop (about 17 ms on the 2-CPU
#: development host)
CALIB_ITERS = 200_000

#: the calibration loop's time at the reference host speed.  A
#: host-normalized time is the measured time scaled by this over the
#: calibration measured next to it (see ``NOTES.md``).
CALIB_REF_S = 0.0175

#: the five TWGR steps, by their tracing span names
STEPS = (
    "step1_steiner", "step2_coarse", "step3_feedthrough",
    "step4_connect", "step5_switch",
)


class InvalidRun(Exception):
    """The run's own validity bound was exceeded; report no result."""


class Outcome:
    """Operation tally and measured metrics of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        #: gated metrics, by their ``BENCHMARK.json`` names
        self.metrics: Dict[str, float] = {}
        #: further figures printed for readers: name -> (value, unit)
        self.extra: Dict[str, Tuple[float, str]] = {}

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; a wrong result counts as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    """``(seconds, result)`` of one call."""
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def calib_loop_s() -> float:
    """Seconds of one run of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIB_ITERS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def calibrate() -> float:
    """The host's speed now: the median of 3 calibration loops (s)."""
    return statistics.median(calib_loop_s() for _ in range(3))


class Op(NamedTuple):
    """One timed call."""

    seconds: float
    result: Any
    #: the calibration around the call (mean of the readings before and after)
    calib_s: float


def ref_median(ops: Sequence[Op]) -> Tuple[float, float]:
    """``(measured median, host-normalized median)`` of ``ops`` in
    seconds.  The measured median is scaled to the reference host speed
    by the run's median calibration, which follows the host's speed
    better than any single reading."""
    op_s = median([op.seconds for op in ops])
    return op_s, op_s * CALIB_REF_S / median([op.calib_s for op in ops])


def repeat_for(seconds: float, fn: Callable[[], Any], min_runs: int = 3) -> List[Op]:
    """Call ``fn`` until ``seconds`` have passed, at least ``min_runs``
    times.  A calibration before every call and one after the last
    bracket each call, so the host's speed is read next to it."""
    calibs = [calibrate()]
    calls = []
    start = time.perf_counter()
    while len(calls) < min_runs or time.perf_counter() - start < seconds:
        calls.append(timed(fn))
        calibs.append(calibrate())
    return [
        Op(t, res, (calibs[i] + calibs[i + 1]) / 2)
        for i, (t, res) in enumerate(calls)
    ]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its waited-for
    children (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def quality(result: Any) -> List[int]:
    """The checked output of a routing run: tracks, area, feedthroughs.
    Accepts a ``RoutingResult`` or the ``result`` dict of a run record."""
    if isinstance(result, dict):
        return [result["total_tracks"], result["area"], result["num_feedthroughs"]]
    return [result.total_tracks, result.area, result.num_feedthroughs]


def expected_for(workload: str, seed: int) -> Any:
    """Recorded outputs of ``workload`` at ``seed``, or ``None``."""
    table = json.loads((BENCH_DIR / "expected.json").read_text())
    return table.get(workload, {}).get(str(seed))


def make_tmpdir(tag: str) -> Path:
    """A fresh directory under :data:`TMP_ROOT`."""
    TMP_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=TMP_ROOT))


def cleanup_tmp() -> None:
    shutil.rmtree(TMP_ROOT, ignore_errors=True)
