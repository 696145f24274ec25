"""Smoke test of the benchmark itself.

Run from the repository root:

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json at ``--size tiny`` through the same
code path as a full run, once untraced and once traced, and checks that
each run exits 0, finds its outputs correct, and emits exactly the
metrics BENCHMARK.json names, each with its unit.  It then checks that
the runner, copied without the chewdet sources, exits nonzero without
printing a result.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    label = f"{workload} --trace {trace}"
    cmd = spec["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    ]
    proc = run(cmd, ROOT)
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{label}: not correct: {proc.stdout.strip().splitlines()[-2]}")
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    for name in sorted(set(want) | set(got)):
        if want.get(name) != got.get(name):
            problems.append(f"{label}: {name}: unit {got.get(name)!r}, BENCHMARK.json says {want.get(name)!r}")
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{label}: {name}: value {m.get('value')!r} is not a number")
    return problems


def check_without_sources(spec: dict) -> list[str]:
    bare = ROOT / "bench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        workload = spec["workloads"][0]["name"]
        proc = run(spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                                      "--trace", "0"], bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            return ["without sources: the runner exited 0 or printed a result"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, w["name"], trace)
            print(("FAIL " if found else "ok   ") + f"{w['name']} --trace {trace}", flush=True)
            problems += found
    found = check_without_sources(spec)
    print(("FAIL " if found else "ok   ") + "refuses to run without sources", flush=True)
    problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
