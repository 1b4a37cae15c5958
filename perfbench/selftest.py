#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

Runs every workload on scaled-down inputs, with tracing off and on, and
asserts that each run succeeds, checks its outputs and prints every
metric ``BENCHMARK.json`` names, by name with its unit, both as a text
line and in the final JSON line.  Also asserts that the command fails
without printing a result in a directory that holds only the benchmark.

Usage, from the root of a checkout (about half a minute)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"
BARE_DIR = Path(".perfbench_selftest")


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_workload(spec: dict, workload: str, trace: int) -> None:
    proc = run(Path("."), "--workload", workload, "--seed", "3",
               "--seconds", "2", "--trace", str(trace), "--tiny")
    label = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{label} exited {proc.returncode}:\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], label
    assert result["correct"] and result["failed"] == 0, f"{label}:\n{proc.stdout}"
    assert result["attempted"] >= 1, label
    assert lines[0].startswith("fingerprint "), label
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted), label
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], float), f"{label}: {m['name']}"
        assert any(
            line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
            for line in lines
        ), f"{label}: no line for {m['name']}"
        if not trace:
            assert got["value"] > 0, f"{label}: {m['name']} is not positive"


def check_bare_directory() -> None:
    shutil.rmtree(BARE_DIR, ignore_errors=True)
    try:
        BARE_DIR.mkdir()
        shutil.copy(SPEC_PATH, BARE_DIR / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, BARE_DIR / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(BARE_DIR, "--workload", "route-biomed", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0, "bare directory run succeeded"
        assert "correct" not in proc.stdout, "bare directory run printed a result"
    finally:
        shutil.rmtree(BARE_DIR, ignore_errors=True)


def main() -> int:
    spec = json.loads(SPEC_PATH.read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_workload(spec, workload, trace)
            print(f"ok {workload} --trace {trace}", flush=True)
    check_bare_directory()
    print("ok bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
