"""Benchmark runner for chewdet: one workload, one seed, one process.

Run from the repository root:

    python3 bench/run.py --workload day2h --seed 1 --seconds 22 --trace 0

The runner imports chewdet from ``src/`` next to this directory, builds
the workload's inputs from the seed (set-up, repeated and timed), then
runs complete passes until ``--seconds`` have gone by.  The first pass is
a warm-up and is not timed into the figures; every pass, the warm-up too,
has its outputs checked and digested, and a pass fails if it raises, if a
check fails, or if its digest differs from the warm-up's.

Every time the runner reports (set-up, pass, per-layer time) is corrected
for the shared host's drifting speed by hostspeed.py: the section's wall
time, less the probes taken during it, at the host speed at which the
probe takes its reference time.  The raw wall times are printed in the
run's info line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes after the warm-up and reports the per-layer
metrics of the traced passes (medians), plus the tracing overhead: the
median, over traced passes, of the pass time minus that of the untraced
pass that follows it.  The spans of the traced passes are written to
``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are JSON objects with the run's provenance and pass statistics.
``--size tiny`` runs the same code on small inputs (for bench/smoke.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
MIN_TIMED_PASSES = 2
MAX_PASSES = 500
# Set-up is timed in at least SETUP_MIN_GROUPS groups, and more (up to
# SETUP_MAX_GROUPS) while the groups together take under SETUP_TARGET_S,
# so that a cheap set-up still gets a steady median.  A group repeats the
# set-up for at least SETUP_GROUP_S.
SETUP_MIN_GROUPS = 3
SETUP_MAX_GROUPS = 10
SETUP_TARGET_S = 2.0
SETUP_GROUP_S = 0.3
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "frames_per_s": "frames/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "f1_second": "ratio",
    "f1_episode": "ratio",
}


@dataclass
class PassRecord:
    traced: bool
    seconds: float  # at the reference host speed (hostspeed.py)
    raw: float  # wall seconds
    verdict: object  # workloads.Verdict, or None when the pass raised
    layers: dict | None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def emit(kind: str, payload: dict) -> None:
    print(json.dumps({kind: payload}), flush=True)


def setup_repeatedly(wl, seed: int):
    """Set up SETUP_MIN_GROUPS or more times; per-set-up seconds of each group.

    A group repeats the set-up until it has run SETUP_GROUP_S, so that a
    cheap set-up is timed over enough host-speed probes.
    """
    groups, raw, fingerprints, state = [], [], set(), None
    while len(groups) < SETUP_MIN_GROUPS or (
        sum(raw) < SETUP_TARGET_S and len(groups) < SETUP_MAX_GROUPS
    ):
        reps = 0
        state = None
        gc.collect()
        with hostspeed.timed() as timing:
            t0 = time.perf_counter()
            while reps == 0 or time.perf_counter() - t0 < SETUP_GROUP_S:
                state = wl.setup(seed)
                reps += 1
                fingerprints.add(state.fingerprint)
        groups.append(timing.seconds / reps)
        raw.append(timing.raw)
    return state, groups, raw, len(fingerprints) == 1


def run_passes(wl, state, seconds: float, tracer) -> list[PassRecord]:
    records: list[PassRecord] = []
    start = time.perf_counter()
    last = 0.0
    while len(records) < MAX_PASSES:
        timed = len(records) - 1
        if timed >= MIN_TIMED_PASSES and time.perf_counter() - start + last > seconds:
            break
        # Pass 0 is the untraced warm-up; traced runs then alternate.
        traced = tracer is not None and len(records) % 2 == 1
        pass_input = wl.new_pass(state)
        gc.collect()
        mark = len(tracer.spans) if tracer is not None else 0
        if traced:
            tracer.install()
        out = None
        try:
            with hostspeed.timed() as timing:
                out = wl.run(pass_input, tracer if traced else None)
        except Exception:
            traceback.print_exc()
        finally:
            last = timing.raw
            if traced:
                tracer.uninstall()
        verdict = None
        if out is not None:
            try:
                verdict = wl.check(state, out)
            except Exception:
                traceback.print_exc()
        layers = None
        if traced:
            layers = tracing.layer_metrics(tracing.totals(tracer.spans, mark))
            layers = {
                name: v * timing.factor if tracing.unit(name) in ("s", "ms") else v
                for name, v in layers.items()
            }
        records.append(PassRecord(traced, timing.seconds, timing.raw, verdict, layers))
    return records


def pass_problems(k: int, rec: PassRecord, reference: str | None) -> list[str]:
    """Why pass k failed, or nothing when it ran, checked out and matched the warm-up."""
    if rec.verdict is None:
        return [f"pass {k} raised"]
    found = [f"pass {k}: {p}" for p in rec.verdict.problems]
    if rec.verdict.digest != reference:
        found.append(f"pass {k}: digest {rec.verdict.digest} != warm-up digest {reference}")
    return found


def highest_percentile(times: list[float]) -> dict | None:
    """The highest percentile with at least ten samples above it."""
    n = len(times)
    if n < 11:
        return None
    ordered = sorted(times)
    return {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "chewdet" / "__init__.py").is_file():
        print(f"error: chewdet sources not found under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import numpy

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    emit("provenance", {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    })

    wl = WORKLOADS[args.workload](tiny=args.size == "tiny")
    tracer = tracing.Tracer() if args.trace else None
    state = None
    try:
        state, setup_times, setup_raw, setup_steady = setup_repeatedly(wl, args.seed)
        records = run_passes(wl, state, args.seconds, tracer)
    finally:
        wl.close(state)

    reference = records[0].verdict.digest if records[0].verdict else None
    per_pass = [pass_problems(k, rec, reference) for k, rec in enumerate(records)]
    failed = sum(1 for found in per_pass if found)
    problems = [] if setup_steady else ["set-up gave different inputs on repetition"]
    problems += [p for found in per_pass for p in found]
    timed = records[1:]
    untraced = [r.seconds for r in timed if not r.traced]
    emit("info", {
        "workload": args.workload,
        "seed": args.seed,
        "setup_groups": len(setup_times),
        "setup_s": setup_times,
        "setup_group_raw_s": setup_raw,
        "passes": len(timed),
        "pass_s": [r.seconds for r in records],
        "pass_raw_s": [r.raw for r in records],
        "highest_percentile": highest_percentile(untraced),
        "digest": reference,
        "problems": problems,
    })

    if args.trace:
        spans_path = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        emit("spans", {"path": str(spans_path.relative_to(ROOT)), "count": len(tracer.spans)})
        layer_runs = [r.layers for r in timed if r.traced]
        values = {name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]}
        # Each traced pass is compared with the untraced pass right after
        # it, so that a slow drift of the machine cancels out.
        pairs = zip(records[1::2], records[2::2])
        values["trace.overhead_s"] = statistics.median(t.seconds - u.seconds for t, u in pairs)
        metrics = {name: {"value": v, "unit": tracing.unit(name)} for name, v in values.items()}
    else:
        wall = statistics.median(untraced)
        good = next((r.verdict for r in records if r.verdict is not None), None)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "frames_per_s": state.frames / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (len(records) - failed) / len(records),
            "f1_second": good.f1_second if good else 0.0,
            "f1_episode": good.f1_episode if good else 0.0,
        }
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}
    print(json.dumps({
        "correct": failed == 0 and setup_steady,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
