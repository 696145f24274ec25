"""Core records: sensor sessions, labeled intervals, and label derivation.

On-disk formats are two small CSVs: a 20 Hz sensor log
(``t_ms,prox,ambient,qw,qx,qy,qz,ax,ay,az``) and a label file
(``participant,kind,start_s,end_s``) with ``kind`` in ``{chew, episode}``.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

SENSOR_HEADER = ("t_ms", "prox", "ambient", "qw", "qx", "qy", "qz", "ax", "ay", "az")
LABEL_HEADER = ("participant", "kind", "start_s", "end_s")

NOMINAL_RATE_HZ = 20.0
# A frame-to-frame step more than 1.5x the nominal period counts as a gap.
GAP_FACTOR = 1.5
# Rows whose quaternion norm strays further than this from 1 are dropped.
MAX_QUAT_NORM_ERROR = 0.1


class IntervalKind(str, Enum):
    CHEW = "chew"
    EPISODE = "episode"


@dataclass(frozen=True)
class LabeledInterval:
    """A ground-truth or predicted interval in epoch seconds."""

    start: float
    end: float
    kind: IntervalKind
    participant: str = ""

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise ValueError(
                f"interval start must precede end, got [{self.start}, {self.end}]"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class GapReport:
    """Sampling gaps found at ingest; gaps are reported, never interpolated."""

    count: int = 0
    max_gap_s: float = 0.0
    rejected_rows: int = 0


@dataclass(frozen=True)
class Session:
    """One recording: aligned sensor arrays plus ground-truth labels.

    Immutable after construction; the backing arrays are marked read-only
    so sessions can be shared freely across workers.
    """

    participant: str
    t: np.ndarray
    prox: np.ndarray
    ambient: np.ndarray
    quat: np.ndarray  # (n, 4) unit quaternions, (w, x, y, z)
    accel: np.ndarray  # (n, 3) in g
    labels: tuple[LabeledInterval, ...] = ()
    gaps: GapReport = GapReport()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        arrays = {}
        for name, width in (("t", 1), ("prox", 1), ("ambient", 1), ("quat", 4), ("accel", 3)):
            arr = np.array(getattr(self, name), dtype=float, copy=True)
            if width == 1 and arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            if width > 1 and (arr.ndim != 2 or arr.shape[1] != width):
                raise ValueError(f"{name} must have shape (n, {width})")
            arr.setflags(write=False)
            arrays[name] = arr
        n = arrays["t"].shape[0]
        for name, arr in arrays.items():
            if arr.shape[0] != n:
                raise ValueError(f"{name} length {arr.shape[0]} != frame count {n}")
            object.__setattr__(self, name, arr)
        if n and not np.all(np.diff(arrays["t"]) > 0):
            i = int(np.flatnonzero(np.diff(arrays["t"]) <= 0)[0])
            raise ValueError(
                f"timestamps must be strictly increasing; frames {i} and {i + 1} "
                f"have t={arrays['t'][i]:.3f} and t={arrays['t'][i + 1]:.3f}"
            )
        if n:
            for iv in self.labels:
                if iv.start < arrays["t"][0] or iv.end > arrays["t"][-1]:
                    raise ValueError(
                        f"label [{iv.start}, {iv.end}] lies outside the session span "
                        f"[{arrays['t'][0]}, {arrays['t'][-1]}]"
                    )
        elif self.labels:
            raise ValueError("an empty session cannot carry labels")
        object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self) -> int:
        return int(self.t.shape[0])

    @property
    def span(self) -> tuple[float, float]:
        if not len(self):
            raise ValueError("empty session has no time span")
        return float(self.t[0]), float(self.t[-1])

    def chew_labels(self) -> tuple[LabeledInterval, ...]:
        return tuple(iv for iv in self.labels if iv.kind is IntervalKind.CHEW)

    def with_labels(self, labels: Iterable[LabeledInterval]) -> "Session":
        return replace(self, labels=tuple(labels))


def ingest_sensor_csv(path: str | Path, participant: str = "") -> Session:
    """Read a sensor CSV into a validated Session.

    Quaternions are normalized on ingest; rows whose quaternion norm is off
    by more than 0.1 are rejected and counted.  Sampling gaps (steps above
    1.5x the nominal 20 Hz period) are reported, not filled.

    Raises:
        ValueError: on a bad header, a malformed row (with its line number),
            or non-monotonic timestamps (naming the first offending pair).
    """
    path = Path(path)
    rows: list[tuple[float, ...]] = []
    rejected = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected header {','.join(SENSOR_HEADER)}")
        if tuple(h.strip() for h in header) != SENSOR_HEADER:
            raise ValueError(
                f"{path}: bad header {header!r}, expected {','.join(SENSOR_HEADER)}"
            )
        prev_t = None
        prev_line = None
        for lineno, raw in enumerate(reader, start=2):
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            if len(raw) != len(SENSOR_HEADER):
                raise ValueError(
                    f"{path}: line {lineno}: expected {len(SENSOR_HEADER)} fields, got {len(raw)}"
                )
            try:
                t_ms = int(raw[0])
                vals = [float(v) for v in raw[1:]]
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: malformed row {','.join(raw)!r}")
            t = t_ms / 1000.0
            if prev_t is not None and t <= prev_t:
                raise ValueError(
                    f"{path}: line {lineno}: non-monotonic timestamp "
                    f"(t={t:.3f} s follows t={prev_t:.3f} s from line {prev_line})"
                )
            prev_t, prev_line = t, lineno
            norm = math.sqrt(sum(v * v for v in vals[2:6]))
            if abs(norm - 1.0) > MAX_QUAT_NORM_ERROR:
                rejected += 1
                continue
            q = tuple(v / norm for v in vals[2:6])
            rows.append((t, vals[0], vals[1], *q, *vals[6:9]))

    data = np.array(rows, dtype=float).reshape(len(rows), 10)
    t = data[:, 0]
    gap_count, max_gap = 0, 0.0
    if len(t) > 1:
        dt = np.diff(t)
        gap_mask = dt > GAP_FACTOR / NOMINAL_RATE_HZ
        gap_count = int(gap_mask.sum())
        if gap_count:
            max_gap = float(dt[gap_mask].max())
    return Session(
        participant=participant,
        t=t,
        prox=data[:, 1],
        ambient=data[:, 2],
        quat=data[:, 3:7],
        accel=data[:, 7:10],
        gaps=GapReport(count=gap_count, max_gap_s=max_gap, rejected_rows=rejected),
    )


def write_sensor_csv(path: str | Path, session: Session) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SENSOR_HEADER)
        for i in range(len(session)):
            writer.writerow(
                [int(round(session.t[i] * 1000.0))]
                + [repr(float(v)) for v in (session.prox[i], session.ambient[i])]
                + [repr(float(v)) for v in session.quat[i]]
                + [repr(float(v)) for v in session.accel[i]]
            )


def read_label_csv(path: str | Path) -> list[LabeledInterval]:
    path = Path(path)
    out: list[LabeledInterval] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != LABEL_HEADER:
            raise ValueError(f"{path}: bad header {header!r}, expected {','.join(LABEL_HEADER)}")
        for lineno, raw in enumerate(reader, start=2):
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            if len(raw) != 4:
                raise ValueError(f"{path}: line {lineno}: expected 4 fields, got {len(raw)}")
            participant, kind, start_s, end_s = (v.strip() for v in raw)
            try:
                interval = LabeledInterval(
                    start=float(start_s),
                    end=float(end_s),
                    kind=IntervalKind(kind),
                    participant=participant,
                )
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}")
            out.append(interval)
    return out


def write_label_csv(path: str | Path, intervals: Iterable[LabeledInterval]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABEL_HEADER)
        for iv in intervals:
            writer.writerow([iv.participant, iv.kind.value, repr(iv.start), repr(iv.end)])


def merge_intervals(
    spans: Iterable[tuple[float, float]], delta: float
) -> list[tuple[float, float]]:
    """Merge spans separated by gaps <= delta; overlapping inputs are an error."""
    ordered = sorted((float(a), float(b)) for a, b in spans)
    merged: list[list[float]] = []
    for start, end in ordered:
        if merged and start < merged[-1][1]:
            raise ValueError(
                f"overlapping intervals: [{merged[-1][0]}, {merged[-1][1]}] and [{start}, {end}]"
            )
        if merged and start - merged[-1][1] <= delta:
            merged[-1][1] = end
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def derive_episode_labels(
    chews: Sequence[LabeledInterval], delta: float
) -> list[LabeledInterval]:
    """Group chewing sequences into eating episodes.

    Consecutive chewing sequences with an inter-gap <= ``delta`` seconds
    belong to one episode; a longer gap starts a new episode.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    participants = {iv.participant for iv in chews}
    if len(participants) > 1:
        raise ValueError(f"intervals span multiple participants: {sorted(participants)}")
    participant = participants.pop() if participants else ""
    spans = merge_intervals(((iv.start, iv.end) for iv in chews), delta)
    return [
        LabeledInterval(start=a, end=b, kind=IntervalKind.EPISODE, participant=participant)
        for a, b in spans
    ]


def inter_sequence_gap_cdf(
    chews: Sequence[LabeledInterval],
) -> list[tuple[float, float]]:
    """Empirical CDF of gaps between consecutive chewing sequences.

    Returns (gap seconds, cumulative fraction) pairs sorted by gap; the last
    fraction is 1.  Used to pick the episode-split parameter from data.
    """
    if len(chews) < 2:
        raise ValueError(f"need at least 2 intervals to compute gaps, got {len(chews)}")
    ordered = sorted(chews, key=lambda iv: iv.start)
    gaps = []
    for prev, nxt in zip(ordered, ordered[1:]):
        if nxt.start < prev.end:
            raise ValueError(
                f"overlapping intervals: [{prev.start}, {prev.end}] and [{nxt.start}, {nxt.end}]"
            )
        gaps.append(nxt.start - prev.end)
    counts = Counter(gaps)
    total = len(gaps)
    table = []
    running = 0
    for gap in sorted(counts):
        running += counts[gap]
        table.append((gap, running / total))
    return table


def covered_seconds(start: float, end: float) -> range:
    """Whole seconds sharing positive-measure overlap with [start, end]."""
    if not end > start:
        raise ValueError(f"need end > start, got [{start}, {end}]")
    lo = math.floor(start)
    hi = max(math.ceil(end), lo + 1)
    return range(lo, hi)
