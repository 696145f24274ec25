"""Span recorder for the traced benchmark run.

A span is one call into a chewdet layer: its name, start, end, the span
that was open when it started (its parent) and a few named counts.  Spans
are kept in memory and written out once, when the run ends.

The program itself is not instrumented.  For a traced pass the benchmark
replaces public names with timing wrappers at the place the caller looks
them up (``chewdet.evaluation.find_prominent_peaks`` is the name that
``session_candidates`` calls, ``chewdet.features.find_prominent_peaks`` the
one the per-window peak count calls), and puts the originals back after
the pass.  A name that a later version of the program no longer has is
skipped, and the metrics fed by it read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        sp = Span(name, time.perf_counter(), parent=self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def install(self) -> None:
        """Wrap every name in WRAPS that the loaded program defines."""
        for module_name, attr, span_name, count in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self._wrapper(original, span_name, count))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrapper(self, original: Callable, span_name: str, count) -> Callable:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(span_name) as sp:
                result = original(*args, **kwargs)
            if count is not None:
                sp.counts.update(count(args, kwargs, result))
            return result

        return traced

    def write_jsonl(self, path: Path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": sp.name,
                            "start": sp.start - origin,
                            "end": sp.end - origin,
                            "parent": sp.parent,
                            "counts": sp.counts,
                        }
                    )
                    + "\n"
                )


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _peak_counts(args, kwargs, result):
    return {"samples": len(_arg(args, kwargs, 0, "signal")), "peaks": len(result)}


def _segment_counts(args, kwargs, result):
    return {"candidates": len(result), "distinct": len({(c.c1, c.c2) for c in result})}


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _n(args, kwargs, result):
    return {"n": len(result)}


def _train_counts(args, kwargs, result):
    cfg = _arg(args, kwargs, 2, "cfg")
    return {
        "rows": len(_arg(args, kwargs, 0, "X")),
        "rounds": cfg.n_rounds,
        "trees": len(result.trees),
    }


def _grid_points(args, kwargs, result):
    return {"points": len(_arg(args, kwargs, 1, "grid"))}


def _frames(args, kwargs, result):
    return {"frames": len(result)}


def _file_mb(args, kwargs, result):
    return {"mb": os.path.getsize(_arg(args, kwargs, 0, "path")) / 1e6}


# (module, attribute, span name, counts taken from the call)
WRAPS: list[tuple[str, str, str, Callable | None]] = []
for _module in ("chewdet.peaks", "chewdet.evaluation", "chewdet.cli"):
    WRAPS.append((_module, "find_prominent_peaks", "peaks.find", _peak_counts))
WRAPS.append(("chewdet.features", "find_prominent_peaks", "features.peak_count", None))
for _module in ("chewdet.signals", "chewdet.evaluation", "chewdet.cli"):
    WRAPS.append((_module, "derive", "signals.derive", None))
for _module in ("chewdet.periodic", "chewdet.evaluation", "chewdet.cli"):
    WRAPS.append((_module, "segment", "periodic.segment", _segment_counts))
for _module in ("chewdet.features", "chewdet.evaluation", "chewdet.cli"):
    WRAPS.append((_module, "extract_table", "features.extract", _rows))
for _module in ("chewdet.evaluation", "chewdet.cli"):
    WRAPS.append((_module, "train_fold", "evaluation.train_fold", None))
    WRAPS.append((_module, "classify_candidates", "boosting.predict", None))
    WRAPS.append((_module, "per_second_metrics", "evaluation.metrics", None))
    WRAPS.append((_module, "per_episode_metrics", "evaluation.metrics", None))
for _module in ("chewdet.episodes", "chewdet.evaluation", "chewdet.cli"):
    WRAPS.append((_module, "score_seconds", "episodes.score", _n))
    WRAPS.append((_module, "cluster", "episodes.cluster", None))
    WRAPS.append((_module, "episodes_from_clusters", "episodes.merge", _n))
WRAPS += [
    ("chewdet.evaluation", "train", "boosting.train", _train_counts),
    ("chewdet.evaluation", "_prepare_all", "evaluation.prepare", None),
    ("chewdet.evaluation", "_select_grid_point", "evaluation.select", _grid_points),
    ("chewdet.cli", "save_model", "boosting.model_io", None),
    ("chewdet.cli", "load_model", "boosting.model_io", None),
    ("chewdet.cli", "write_feature_csv", "features.csv_io", None),
    ("chewdet.cli", "read_feature_csv", "features.csv_io", None),
    ("chewdet.cli", "write_candidate_csv", "periodic.csv_io", None),
    ("chewdet.cli", "read_candidate_csv", "periodic.csv_io", None),
    ("chewdet.cli", "ingest_sensor_csv", "records.ingest", _frames),
    ("chewdet.cli", "write_sensor_csv", "records.sensor_write", _file_mb),
    ("chewdet.cli", "read_label_csv", "records.label_io", None),
    ("chewdet.cli", "write_label_csv", "records.label_io", None),
    ("chewdet.cli", "write_derived_csv", "signals.csv_write", None),
    ("chewdet.cli", "read_derived_csv", "signals.csv_read", None),
    ("chewdet.cli", "file_digest", "config.digest", _file_mb),
    ("chewdet.cli", "generate", "synthetic.generate", None),
]

CLI_COMMANDS = (
    "synth", "derive", "peaks", "segment", "featurize",
    "train", "predict", "episodes", "evaluate",
)


@dataclass
class _Totals:
    total: float = 0.0
    self: float = 0.0
    calls: int = 0
    counts: dict = field(default_factory=dict)


def totals(spans: list[Span], first: int) -> dict[str, _Totals]:
    """Sum duration, self time, calls and counts per span name over spans[first:].

    Self time is a span's duration minus the durations of its direct
    children; the run is single-threaded, so children never overlap.
    """
    child = [0.0] * (len(spans) - first)
    for sp in spans[first:]:
        if sp.parent >= first:
            child[sp.parent - first] += sp.end - sp.start
    out: dict[str, _Totals] = {}
    for k, sp in enumerate(spans[first:]):
        t = out.setdefault(sp.name, _Totals())
        t.total += sp.end - sp.start
        t.self += sp.end - sp.start - child[k]
        t.calls += 1
        for key, value in sp.counts.items():
            t.counts[key] = t.counts.get(key, 0) + value
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(agg: dict[str, _Totals]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; a layer not called reads 0."""
    def get(name: str) -> _Totals:
        return agg.get(name, _Totals())

    def count(name: str, key: str) -> float:
        return get(name).counts.get(key, 0)

    seg = get("periodic.segment")
    train = get("boosting.train")
    extract = get("features.extract")
    m = {
        "peaks.find_s": get("peaks.find").self,
        "peaks.calls": get("peaks.find").calls,
        "peaks.samples": count("peaks.find", "samples"),
        "peaks.peaks": count("peaks.find", "peaks"),
        "features.extract_s": extract.self,
        "features.peak_count_s": get("features.peak_count").total,
        "features.rows": count("features.extract", "rows"),
        "features.ms_per_row": 1000.0 * _ratio(extract.total, count("features.extract", "rows")),
        "features.csv_io_s": get("features.csv_io").total,
        "periodic.segment_s": seg.self,
        "periodic.candidates": seg.counts.get("candidates", 0),
        "periodic.distinct_spans": seg.counts.get("distinct", 0),
        "periodic.distinct_ratio": _ratio(seg.counts.get("distinct", 0), seg.counts.get("candidates", 0)),
        "periodic.csv_io_s": get("periodic.csv_io").total,
        "boosting.train_s": train.self,
        "boosting.train_calls": train.calls,
        "boosting.rows": train.counts.get("rows", 0),
        "boosting.rounds": train.counts.get("rounds", 0),
        "boosting.trees": train.counts.get("trees", 0),
        "boosting.tree_ratio": _ratio(train.counts.get("trees", 0), train.counts.get("rounds", 0)),
        "boosting.predict_s": get("boosting.predict").total,
        "boosting.model_io_s": get("boosting.model_io").total,
        "evaluation.prepare_s": get("evaluation.prepare").total,
        "evaluation.folds": count("evaluation.losocv", "folds"),
        "evaluation.grid_points": count("evaluation.select", "points"),
        "evaluation.train_fold_calls": get("evaluation.train_fold").calls,
        "evaluation.metrics_s": get("evaluation.metrics").total,
        "records.ingest_s": get("records.ingest").total,
        "records.sensor_write_s": get("records.sensor_write").total,
        "records.label_io_s": get("records.label_io").total,
        "records.frames": count("records.ingest", "frames"),
        "records.sensor_csv_mb": count("records.sensor_write", "mb"),
        "signals.derive_s": get("signals.derive").total,
        "signals.csv_write_s": get("signals.csv_write").total,
        "signals.csv_read_s": get("signals.csv_read").total,
        "signals.csv_reads": get("signals.csv_read").calls,
        "config.digest_s": get("config.digest").total,
        "config.digest_mb": count("config.digest", "mb"),
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = get(f"cli.{command}").total
    m["cli.bytes_written"] = count("cli.pass", "bytes")
    m["episodes.score_s"] = get("episodes.score").total
    m["episodes.cluster_s"] = get("episodes.cluster").total
    m["episodes.scored_seconds"] = count("episodes.score", "n")
    m["episodes.episodes"] = count("episodes.merge", "n")
    m["synthetic.generate_s"] = get("synthetic.generate").total
    return m


def unit(metric: str) -> str:
    if metric.endswith("bytes_written"):
        return "bytes"
    if metric.endswith("ms_per_row"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"
