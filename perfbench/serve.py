"""The ``serve-mixed`` workload: an open-loop request stream against a
``repro serve`` child process.

Set-up boots the server with a fresh cache directory and warms a hot set
of request keys (cache reads later).  The timed phase sends a seeded
Poisson schedule of ``POST /route`` requests over
:data:`CONNECTIONS` persistent connections.  Most requests are Zipf
draws from the hot set; every :data:`FRESH_EVERY`-th request is a fresh
key, so misses (generate, route, cache write) are spread evenly through
the stream.  Each latency is timed from the request's due time, so a
stall also counts against the requests queued behind it.
"""

from __future__ import annotations

import asyncio
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (
    STEPS,
    InvalidRun,
    Op,
    Outcome,
    calibrate,
    expected_for,
    frac,
    make_tmpdir,
    median,
    percentile,
    quality,
    ref_median,
    timed,
)

from repro import mcnc
from repro.exec.engine import execute_point
from repro.service.client import AsyncServiceClient, ServiceClient
from repro.service.schema import point_from_request

CIRCUIT = "primary2"
#: the request schema's default scale: a miss costs ~0.14 s on 2 CPUs
SCALE = 0.1
HOT_KEYS = 16
#: offered load, well below the server's saturation point at this commit
RATE_RPS = 12.0
#: one request in this many is a fresh key (a miss)
FRESH_EVERY = 5
ZIPF_S = 1.0
CONNECTIONS = 2
#: fresh keys re-routed in this process after timing, as a check
RECHECK_FRESH = 3
#: set-ups (boot and warm-up) per run; ``setup_s`` is their
#: host-normalized median
SETUPS = 3
#: a run whose generator ran later than this (p95) is invalid
LATE_BOUND_MS = 25.0
BOOT_TIMEOUT_S = 60.0

_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")


def hot_seeds(seed: int, tiny: bool) -> List[int]:
    return [seed * 1000 + k for k in range(1, (4 if tiny else HOT_KEYS) + 1)]


def fresh_seed(seed: int, j: int) -> int:
    return seed * 1000 + 500 + j


def body_for(key_seed: int, tiny: bool) -> Dict[str, Any]:
    return {"circuit": CIRCUIT, "scale": SCALE / 2 if tiny else SCALE, "seed": key_seed}


def schedule(seed: int, seconds: float, tiny: bool) -> List[Tuple[float, int, bool]]:
    """``(due offset s, key seed, fresh)`` of every request in the run."""
    rng = random.Random(seed)
    hot = hot_seeds(seed, tiny)
    weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, len(hot) + 1)]
    out, due, nfresh = [], 0.0, 0
    for i in range(int(RATE_RPS * seconds)):
        due += rng.expovariate(RATE_RPS)
        if i % FRESH_EVERY == FRESH_EVERY // 2:
            out.append((due, fresh_seed(seed, nfresh), True))
            nfresh += 1
        else:
            out.append((due, rng.choices(hot, weights=weights)[0], False))
    return out


class Server:
    """One ``repro serve`` child with its own cache directory."""

    def __init__(self) -> None:
        self.dir = make_tmpdir("serve")
        self.log_path = self.dir / "server.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path("src").resolve())
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--cache-dir", str(self.dir / "cache")],
                stdout=log, stderr=subprocess.STDOUT, env=env,
            )
        self.host, self.port = self._wait_listening()

    def _wait_listening(self) -> Tuple[str, int]:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log_path.read_text(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.proc.kill()
        self.proc.wait()
        raise RuntimeError(f"server did not start; log:\n{self.log_path.read_text()}")

    def stop(self, out: Outcome) -> None:
        """``POST /shutdown``, then wait; kill if it does not exit.
        Notes a traceback in the server log (a known shutdown defect)."""
        if self.proc.poll() is None:
            try:
                with ServiceClient(self.host, self.port, timeout_s=10) as client:
                    client.shutdown()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        log = self.log_path.read_text(errors="replace")
        if "Traceback" in log:
            last = log[log.rindex("Traceback"):].strip().splitlines()[-1]
            out.notes.append(f"note: server logged a traceback ({last}); known defect")


def _answer_ok(status: int, body: Any) -> bool:
    return status == 200 and isinstance(body, dict) and "record" in body


def warm(server: Server, seeds: List[int], tiny: bool) -> Dict[int, Any]:
    """Route every hot key once; returns each key's answer (or ``None``)."""
    answers: Dict[int, Any] = {}
    with ServiceClient(server.host, server.port) as client:
        for s in seeds:
            status, body = client.route(body_for(s, tiny))
            answers[s] = quality(body["record"]["result"]) if _answer_ok(status, body) else None
    return answers


def boot_and_warm(args: Any, out: Outcome) -> Tuple[Server, Dict[int, Any], List[Op]]:
    """:data:`SETUPS` set-ups, keeping the last server running.  A
    calibration before the first and after each brackets every set-up."""
    seeds = hot_seeds(args.seed, args.tiny)
    recorded = None if args.tiny else expected_for("serve-mixed", args.seed)
    setups: List[Op] = []
    server: Optional[Server] = None
    answers: Dict[int, Any] = {}
    before = calibrate()
    for n in range(SETUPS):
        if server is not None:
            server.stop(out)
        t0 = time.perf_counter()
        server = Server()
        try:
            answers = warm(server, seeds, args.tiny)
            setup_s = time.perf_counter() - t0
            after = calibrate()
        except BaseException:
            server.stop(out)
            raise
        setups.append(Op(setup_s, None, (before + after) / 2))
        before = after
        for s in seeds:
            ref = recorded[str(s)] if recorded else answers[s]
            out.check(answers[s] is not None and answers[s] == ref,
                      f"set-up {n} hot key {s}: {answers[s]} != {ref}")
    assert server is not None
    return server, answers, setups


async def _drive(host: str, port: int, plan: List[Tuple[float, int, bool]],
                 tiny: bool) -> Tuple[List[Any], List[float]]:
    """Send ``plan`` open-loop; returns per-request ``(latency s, status,
    body)`` and the generator's lateness per request (s)."""
    loop = asyncio.get_running_loop()
    queue: "asyncio.Queue[Optional[Tuple[int, float]]]" = asyncio.Queue()
    results: List[Any] = [None] * len(plan)
    late: List[float] = []
    clients = [AsyncServiceClient(host, port) for _ in range(CONNECTIONS)]
    for client in clients:
        await client.healthz()  # connect before the clock starts

    async def generate() -> None:
        t0 = loop.time() + 0.05
        for i, (offset, _, _) in enumerate(plan):
            due = t0 + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(max(0.0, loop.time() - due))
            queue.put_nowait((i, due))
        for _ in clients:
            queue.put_nowait(None)

    async def connection(client: AsyncServiceClient) -> None:
        while (item := await queue.get()) is not None:
            i, due = item
            status, body = await client.route(body_for(plan[i][1], tiny))
            results[i] = (loop.time() - due, status, body)

    try:
        await asyncio.gather(generate(), *(connection(c) for c in clients))
    finally:
        for client in clients:
            await client.close()
    return results, late


def _prom_quantile(text: str, metric: str, q: str) -> float:
    match = re.search(rf'^{metric}{{quantile="{q}"}} (\S+)$', text, re.M)
    return float(match.group(1)) if match else 0.0


async def _scrape(host: str, port: int) -> Tuple[str, Dict[str, Any]]:
    async with AsyncServiceClient(host, port) as client:
        _, text = await client.request("GET", "/metrics")
        _, stats = await client.stats()
    return text, stats


def serve(args: Any, out: Outcome) -> None:
    server, answers, setups = boot_and_warm(args, out)
    try:
        plan = schedule(args.seed, args.seconds, args.tiny)
        results, late = asyncio.run(_drive(server.host, server.port, plan, args.tiny))
        scraped = asyncio.run(_scrape(server.host, server.port)) if args.trace else None
    finally:
        server.stop(out)

    # check every answer: hot keys against their warm-up answers, the
    # first few fresh keys against a re-route in this process
    fresh_keys = [k for _, k, fresh in plan if fresh][:RECHECK_FRESH]
    rerouted = {
        k: quality(execute_point(point_from_request(body_for(k, args.tiny))).result)
        for k in fresh_keys
    }
    for i, ((_, key, fresh), (_, status, body)) in enumerate(zip(plan, results)):
        ok = _answer_ok(status, body)
        got = quality(body["record"]["result"]) if ok else None
        ref = rerouted.get(key, got) if fresh else answers[key]
        out.check(ok and got == ref, f"request {i} key {key} (HTTP {status}): {got} != {ref}")

    lat_ms = [r[0] * 1e3 for r in results]
    late_p95_ms = percentile(late, 0.95) * 1e3
    if late_p95_ms > LATE_BOUND_MS:
        raise InvalidRun(
            f"generator lateness p95 {late_p95_ms:.1f} ms exceeds {LATE_BOUND_MS} ms"
        )
    fresh_idx = [i for i, (_, _, fresh) in enumerate(plan) if fresh]
    hot_idx = [i for i, (_, _, fresh) in enumerate(plan) if not fresh]
    setup_s, out.metrics["setup_s"] = ref_median(setups)
    out.metrics["fresh_p50_ms"] = median([lat_ms[i] for i in fresh_idx])
    p95 = percentile(lat_ms, 0.95)
    out.extra.update({
        "setup_measured_s": (setup_s, "s"),
        "req_p50_ms": (median(lat_ms), "ms"),
        "req_p95_ms": (p95, "ms"),
        "requests": (len(lat_ms), "count"),
        "requests_beyond_p95": (sum(1 for v in lat_ms if v > p95), "count"),
        "gen_late_p95_ms": (late_p95_ms, "ms"),
    })
    if not args.trace:
        return

    text, stats = scraped
    records = [results[i][2]["record"] for i in fresh_idx
               if _answer_ok(*results[i][1:])]
    for step in STEPS:
        out.metrics[f"twgr.{step}_s"] = median(
            [r["profile"]["steps"].get(step, {}).get("wall_sum_s", 0.0) for r in records]
        )
    out.metrics["twgr.work_units"] = sum(
        sum(r["result"]["work_units"].values()) for r in records
    )
    out.metrics["circuits.generate_s"] = median([
        timed(lambda: mcnc.generate(CIRCUIT, scale=body_for(k, args.tiny)["scale"], seed=k))[0]
        for k in fresh_keys
    ])
    out.metrics["service.hit_p50_ms"] = median([lat_ms[i] for i in hot_idx])
    out.metrics["service.miss_p50_ms"] = out.metrics["fresh_p50_ms"]
    out.metrics["service.server_p50_ms"] = _prom_quantile(
        text, "repro_service_request_ms", "0.5")
    out.metrics["service.queue_wait_p95_ms"] = _prom_quantile(
        text, "repro_service_queue_wait_ms", "0.95")
    out.metrics["exec.point_host_p50_ms"] = _prom_quantile(
        text, "repro_engine_point_host_ms", "0.5")
    out.metrics["service.miss_frac"] = frac(
        sum(1 for _, _, b in results if isinstance(b, dict) and not b.get("cached")),
        len(results),
    )
    out.metrics["service.coalesced"] = float(stats.get("coalesced", 0))
    out.metrics["service.gen_late_p95_ms"] = late_p95_ms
