"""Core records: sensor sessions, labeled intervals, and label derivation.

On-disk formats are two small CSVs: a 20 Hz sensor log
(``t_ms,prox,ambient,qw,qx,qy,qz,ax,ay,az``) and a label file
(``participant,kind,start_s,end_s``) with ``kind`` in ``{chew, episode}``.

``check_increasing`` is the one time-order check and ``check_range`` the one
range check for every numeric setting.  The interval rules live here too, for
ground truth and predictions alike: ``covered_seconds`` maps an interval to
whole seconds, ``disjoint_spans`` decides when spans are disjoint, and
``episode_intervals`` merges spans into episodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .tables import read_table, transpose, write_table

SENSOR_HEADER = ("t_ms", "prox", "ambient", "qw", "qx", "qy", "qz", "ax", "ay", "az")
SENSOR_KINDS = "m" + "f" * 9
LABEL_HEADER = ("participant", "kind", "start_s", "end_s")
LABEL_KINDS = "ssff"
GAP_CDF_HEADER = ("gap_s", "cum_frac")
OVERLAP_BASES = ("truth", "pred", "min")

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
            raise ValueError(f"interval start must precede end, got [{self.start}, {self.end}]")

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

    Immutable, its arrays read-only, so sessions can be shared freely.  An
    input is copied unless it is a read-only float64 array that owns its data:
    that one is kept, and re-enabling writes on it changes the session too.
    """

    participant: str
    t: np.ndarray
    prox: np.ndarray
    ambient: np.ndarray
    quat: np.ndarray  # (n, 4) unit quaternions, (w, x, y, z)
    accel: np.ndarray  # (n, 3) in g
    labels: tuple[LabeledInterval, ...] = ()
    gaps: GapReport = GapReport()

    def __post_init__(self) -> None:
        arrays = {}
        for name, width in (("t", 1), ("prox", 1), ("ambient", 1), ("quat", 4), ("accel", 3)):
            arr = getattr(self, name)
            kept = type(arr) is np.ndarray and arr.dtype == float and arr.flags.owndata
            if not kept or arr.flags.writeable:
                arr = np.array(arr, dtype=float)
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
        check_increasing(arrays["t"])
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
        ValueError: on a bad header, a malformed or non-finite row (with its
            line number), or non-monotonic timestamps (naming the first
            offending pair).
    """
    table = read_table(path, SENSOR_HEADER, SENSOR_KINDS)
    t, prox, ambient, qw, qx, qy, qz, ax, ay, az = table.columns
    back = np.flatnonzero(np.diff(t) <= 0)
    if back.size:
        i = int(back[0]) + 1
        raise table.error(
            i,
            f"non-monotonic timestamp (t={t[i]:.3f} s follows t={t[i - 1]:.3f} s "
            f"from line {table.lines[i - 1]})",
        )
    norm = np.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    keep = np.abs(norm - 1.0) <= MAX_QUAT_NORM_ERROR
    quat = np.column_stack((qw, qx, qy, qz))[keep] / norm[keep, None]
    t = t[keep]
    dt = np.diff(t)
    gaps = dt[dt > GAP_FACTOR / NOMINAL_RATE_HZ]
    return Session(
        participant=participant,
        t=t,
        prox=prox[keep],
        ambient=ambient[keep],
        quat=quat,
        accel=np.column_stack((ax, ay, az))[keep],
        gaps=GapReport(gaps.size, float(gaps.max(initial=0.0)), int((~keep).sum())),
    )


def write_sensor_csv(path: str | Path, session: Session) -> None:
    columns = (session.t, session.prox, session.ambient, *session.quat.T, *session.accel.T)
    write_table(path, SENSOR_HEADER, SENSOR_KINDS, columns)


def read_label_csv(path: str | Path) -> list[LabeledInterval]:
    return read_table(path, LABEL_HEADER, LABEL_KINDS).rows(
        lambda pid, kind, start, end: LabeledInterval(start, end, IntervalKind(kind), pid)
    )


def write_label_csv(path: str | Path, intervals: Iterable[LabeledInterval]) -> None:
    rows = ((iv.participant, iv.kind.value, iv.start, iv.end) for iv in intervals)
    write_table(path, LABEL_HEADER, LABEL_KINDS, transpose(rows, len(LABEL_KINDS)))


def disjoint_spans(spans: Iterable[tuple[float, float]], what: str) -> list[tuple[float, float]]:
    """The spans as floats sorted by (start, end), or ``{what} overlap: ...``
    naming the first pair where one starts before the other ends.  O(n log n)."""
    ordered = sorted((float(a), float(b)) for a, b in spans)
    for (a0, a1), (b0, b1) in zip(ordered, ordered[1:]):
        if b0 < a1:
            raise ValueError(f"{what} overlap: [{a0}, {a1}] and [{b0}, {b1}]")
    return ordered


def overlap_range(spans: Sequence[tuple[float, float]], lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Per query [lo, hi], the index range [first, last) of ``spans`` (sorted
    by start, maybe overlapping) outside which no span shares positive measure
    with the query: two searches, on the running max of the ends and on the
    starts.  O((spans + queries) log spans)."""
    arr = np.asarray(spans, dtype=float).reshape(-1, 2)
    first = np.searchsorted(np.maximum.accumulate(arr[:, 1]), lo, side="right")
    return first, np.maximum(first, np.searchsorted(arr[:, 0], hi, side="left"))


def check_increasing(t: np.ndarray) -> None:
    """Raise unless ``t`` rises strictly (a NaN fails), naming the first bad pair.  O(n)."""
    back = np.flatnonzero(~(t[1:] > t[:-1]))
    if back.size:
        i = int(back[0])
        raise ValueError(
            f"timestamps must be strictly increasing; t[{i}]={t[i]} >= t[{i + 1}]={t[i + 1]}"
        )


def check_range(name: str, value: float, interval: str) -> None:
    """Raise unless ``value`` lies in ``interval``, written as it is printed:
    ``"(0, 1]"``, ``"[1, inf)"``, ``"(-inf, inf)"``.  Only comparisons that
    NaN fails decide, so NaN is never in range."""
    lo, hi = (float(bound) for bound in interval[1:-1].split(","))
    above = lo <= value if interval[0] == "[" else lo < value
    below = value <= hi if interval[-1] == "]" else value < hi
    if not (above and below):
        raise ValueError(f"{name} must be in {interval}, got {value}")


def check_overlap_rule(threshold: float, base: str) -> None:
    if base not in OVERLAP_BASES:
        raise ValueError(f"base must be one of {OVERLAP_BASES}, got {base!r}")
    check_range("overlap_threshold", threshold, "[0, 1]")


def episode_intervals(
    spans: Iterable[tuple[float, float]], delta: float, participant: str
) -> list[LabeledInterval]:
    """``participant``'s EPISODE intervals: disjoint ``spans`` (touching ends
    allowed) merged across gaps <= ``delta``.  O(n log n)."""
    check_range("delta", delta, "(0, inf)")
    merged: list[list[float]] = []
    for start, end in disjoint_spans(spans, "intervals"):
        if merged and start - merged[-1][1] <= delta:
            merged[-1][1] = end
        else:
            merged.append([start, end])
    return [LabeledInterval(a, b, IntervalKind.EPISODE, participant) for a, b in merged]


def derive_episode_labels(
    chews: Sequence[LabeledInterval], delta: float
) -> list[LabeledInterval]:
    """Group chewing sequences into eating episodes.

    Consecutive chewing sequences with an inter-gap <= ``delta`` seconds
    belong to one episode; a longer gap starts a new episode.
    """
    participants = {iv.participant for iv in chews}
    if len(participants) > 1:
        raise ValueError(f"intervals span multiple participants: {sorted(participants)}")
    participant = participants.pop() if participants else ""
    return episode_intervals(((iv.start, iv.end) for iv in chews), delta, participant)


def inter_sequence_gap_cdf(
    chews: Sequence[LabeledInterval],
) -> list[tuple[float, float]]:
    """Empirical CDF of gaps between consecutive chewing sequences.

    Gaps are taken within each participant and pooled.  Returns (gap
    seconds, cumulative fraction) pairs sorted by gap; the last fraction
    is 1.  Used to pick the episode-split parameter from data.  O(n log n).
    """
    gaps = []
    for _, group in groupby(sorted(chews, key=attrgetter("participant")), attrgetter("participant")):
        spans = disjoint_spans(((iv.start, iv.end) for iv in group), "intervals")
        gaps += [b0 - a1 for (_, a1), (b0, _) in zip(spans, spans[1:])]
    if not gaps:
        raise ValueError(
            f"need at least 2 intervals of one participant to compute gaps, got {len(chews)}"
        )
    values, counts = np.unique(gaps, return_counts=True)
    return list(zip(values.tolist(), (np.cumsum(counts) / len(gaps)).tolist()))


def covered_seconds(start: float, end: float) -> range:
    """Whole seconds sharing positive-measure overlap with [start, end]: an
    interval ending exactly on second s does not cover s."""
    if not end > start:
        raise ValueError(f"need end > start, got [{start}, {end}]")
    return range(math.floor(start), math.ceil(end))
