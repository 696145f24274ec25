"""Per-candidate feature catalog.

Every candidate subsequence gets one fixed-layout vector computed over two
windows: the chewing window CW = [c1 - 2 s, c2 + 2 s] spanning the whole
run, and the bite window BW = [c1 - 2 s, c1 + 2 s] around its start.  Per
signal (prox, ambient, lfa, energy) and window the block is:

* 11 distribution statistics: max, min, mean, median, variance, RMS,
  skewness, kurtosis (excess), Q1, Q3, IQR;
* 10 spectrum amplitudes sampled at 0.25, 0.5, ..., 2.5 Hz (nearest bin of
  the mean-removed, unwindowed magnitude spectrum);
* 2 spectrum-shape moments: skewness and kurtosis of those 10 amplitudes;
* 7 run/location statistics: counts strictly below/above the window mean,
  relative first locations of min/max, longest strikes strictly below/above
  the mean, and the number of prominent peaks.

That is 30 x 4 signals x 2 windows = 240 values, followed by the 6 pairwise
signal correlations per window (12), the candidate's band metadata (p_min,
p_max, epsilon, length), and the local hour of day: 257 in total.  Dropping
signals for an ablation shrinks the layout, and boosting.layout_fingerprint
changes with it.

Zero-variance windows fall back to 0 for skewness, kurtosis, and
correlations so every vector stays finite.

Cost: per candidate, O(S * w * log w) time for S signals and windows of
w samples.  Windows of one length are gathered into (k, S, w) blocks of at
most _BLOCK_WINDOWS windows and every statistic is one reduction over the
block's last axis, so extra memory is bounded by one block.  Peaks are
counted only by peaks.window_peak_counts, one walled pass over the windows
of _BLOCK_WINDOWS candidates and one signal: O(window samples) time, one
block of extra memory, and a non-finite sample named by its trace index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import inf
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .boosting import TrainedModel, split_counts
from .peaks import window_peak_counts
from .periodic import CandidateWindow
from .records import LabeledInterval, overlap_range
from .signals import DerivedTrace
from .tables import read_table, write_table

SIGNALS = ("prox", "ambient", "lfa", "energy")
WINDOWS = ("cw", "bw")
STAT_FEATURES = (
    "max", "min", "mean", "median", "variance", "rms",
    "skewness", "kurtosis", "q1", "q3", "iqr",
)
FREQ_HZ = tuple(0.25 * k for k in range(1, 11))
SPECTRUM_FEATURES = ("spec_skewness", "spec_kurtosis")
TS_FEATURES = (
    "count_below_mean", "count_above_mean",
    "first_loc_min", "first_loc_max",
    "longest_strike_below_mean", "longest_strike_above_mean",
    "n_peaks",
)
META_FEATURES = ("p_min", "p_max", "epsilon", "length", "hour_of_day")
# Bookkeeping columns that follow the feature matrix in a feature CSV.
FEATURE_TAIL = ("c1_s", "c2_s", "participant", "label")
FEATURE_TAIL_KINDS = "ffsi"

WINDOW_PAD_S = 2.0
DEFAULT_MIN_PROMINENCE = 4.5
# Guard band on window edges; absorbs sub-ns float wobble when a window
# boundary lands exactly on a sample time.
_EDGE_EPS = 1e-9


def feature_layout(signals: Sequence[str] = SIGNALS) -> tuple[str, ...]:
    """Canonical ordered feature names for a sensor subset."""
    for s in signals:
        if s not in SIGNALS:
            raise ValueError(f"unknown signal {s!r}, expected subset of {SIGNALS}")
    names: list[str] = []
    for s in signals:
        for w in WINDOWS:
            names.extend(f"{s}_{w}_{f}" for f in STAT_FEATURES)
            names.extend(f"{s}_{w}_fft_{hz:g}hz" for hz in FREQ_HZ)
            names.extend(f"{s}_{w}_{f}" for f in SPECTRUM_FEATURES)
            names.extend(f"{s}_{w}_{f}" for f in TS_FEATURES)
    for w in WINDOWS:
        names.extend(f"corr_{a}_{b}_{w}" for a, b in combinations(signals, 2))
    names.extend(META_FEATURES)
    return tuple(names)


def local_hour(tz_offset_s: float = 0.0) -> Callable[[float], int]:
    """Clock converter: epoch seconds -> hour of day 0-23 at a fixed offset."""

    def hour(t: float) -> int:
        return int(((t + tz_offset_s) % 86400.0) // 3600.0)

    return hour


# Windows of one length gathered into one block of array work; a call's
# extra memory is one block, whatever the candidate count.
_BLOCK_WINDOWS = 64
_PER_WINDOW = len(STAT_FEATURES) + len(FREQ_HZ) + len(SPECTRUM_FEATURES) + len(TS_FEATURES)


def _pow15(v: float) -> float:
    try:
        return v**1.5
    except OverflowError:
        return inf


def _moments(d: np.ndarray, m2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Population skewness and excess kurtosis over the last axis of the
    # mean-removed d, whose mean square is m2; constants give exactly 0.
    # m2**1.5 is a Python-float pow per value: numpy's vectorised power
    # rounds some last bits differently.  A pow that overflows is inf, and
    # the row then fails as non-finite.
    flat = m2 == 0.0
    m2 = np.where(flat, 1.0, m2)
    skew = np.mean(d**3, axis=-1) / np.reshape([_pow15(v) for v in m2.ravel().tolist()], m2.shape)
    kurt = np.mean(d**4, axis=-1) / (m2 * m2) - 3.0
    return np.where(flat, 0.0, skew), np.where(flat, 0.0, kurt)


def _longest_runs(mask: np.ndarray) -> np.ndarray:
    # Longest run of True along the last axis: each sample's distance to
    # the last False at or before it, maximised.  Exact integer work.
    at = np.arange(mask.shape[-1])
    return (at - np.maximum.accumulate(np.where(mask, -1, at), axis=-1)).max(axis=-1)


def _window_features(block: np.ndarray, sample_rate_hz: float, a, b) -> tuple[np.ndarray, np.ndarray]:
    # The _PER_WINDOW features of each (k, S, n) block row, n_peaks left 0,
    # and the correlations of the signal pairs (a[i], b[i]).  Every
    # reduction runs over a C-contiguous last axis, so each row's result is
    # that of its window alone, bit for bit.
    n = block.shape[-1]
    mean = block.mean(axis=-1)
    d = block - mean[..., None]
    m2 = np.mean(d * d, axis=-1)
    q1, med, q3 = np.percentile(block, [25.0, 50.0, 75.0], axis=-1)
    amps = np.zeros(block.shape[:-1] + (len(FREQ_HZ),))
    if n >= 2:
        spectrum = np.abs(np.fft.rfft(d, axis=-1)) * (2.0 / n)
        freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate_hz)
        bins = [int(np.argmin(np.abs(freqs - hz))) for hz in FREQ_HZ]
        amps = np.ascontiguousarray(spectrum[..., bins])
    d_amps = amps - amps.mean(axis=-1, keepdims=True)
    below, above = block < mean[..., None], block > mean[..., None]
    per_window = [
        block.max(axis=-1), block.min(axis=-1), mean, med, m2,
        np.sqrt(np.mean(block * block, axis=-1)), *_moments(d, m2), q1, q3, q3 - q1,
        *np.moveaxis(amps, -1, 0), *_moments(d_amps, np.mean(d_amps * d_amps, axis=-1)),
        below.sum(axis=-1), above.sum(axis=-1),
        np.argmin(block, axis=-1) / n, np.argmax(block, axis=-1) / n,
        _longest_runs(below), _longest_runs(above), np.zeros(block.shape[:-1]),
    ]
    flat = (m2[:, a] == 0.0) | (m2[:, b] == 0.0)
    cov = np.mean(np.ascontiguousarray(d[:, a] * d[:, b]), axis=-1)
    corr = np.where(flat, 0.0, cov / np.sqrt(np.where(flat, 1.0, m2[:, a] * m2[:, b])))
    return np.stack(per_window, axis=-1), corr


def _feature_rows(
    trace: DerivedTrace, candidates: Sequence, clock: Callable[[float], int],
    signals: Sequence[str], min_prominence: float, sample_rate_hz: float,
) -> np.ndarray:
    if not len(trace):
        raise ValueError("cannot extract features from an empty trace")
    meta = np.array([[c.p_min, c.p_max, c.epsilon, c.length, clock(c.c1)] for c in candidates], float)
    t = trace.t
    t0, t1 = float(t[0]), float(t[-1])
    start = np.searchsorted(t, np.array([max(c.c1 - WINDOW_PAD_S, t0) for c in candidates]) - _EDGE_EPS)
    stops = [
        np.searchsorted(t, np.array([min(end + WINDOW_PAD_S, t1) for end in ends]) + _EDGE_EPS, "right")
        for ends in ([c.c2 for c in candidates], [c.c1 for c in candidates])
    ]
    empty = np.flatnonzero((stops[0] <= start) | (stops[1] <= start))
    n_rows = int(empty[0]) if empty.size else len(candidates)

    sig = [trace.signal(s) for s in signals]
    n_windows = len(sig) * len(WINDOWS)
    per_window = np.zeros((n_rows, len(sig), len(WINDOWS), _PER_WINDOW))
    a, b = np.array(list(combinations(range(len(sig)), 2)), dtype=np.intp).reshape(-1, 2).T
    corr = np.zeros((n_rows, len(WINDOWS), a.size))
    for w, stop in enumerate(stops):
        lengths = stop[:n_rows] - start[:n_rows]
        for n in np.unique(lengths):
            group = np.flatnonzero(lengths == n)
            for chunk in np.split(group, range(_BLOCK_WINDOWS, group.size, _BLOCK_WINDOWS)):
                block = np.stack([x[start[chunk, None] + np.arange(n)] for x in sig], axis=1)
                per_window[chunk, :, w], corr[chunk, w] = _window_features(block, sample_rate_hz, a, b)
    rows = np.hstack([per_window.reshape(n_rows, n_windows * _PER_WINDOW),
                      corr.reshape(n_rows, len(WINDOWS) * a.size), meta[:n_rows]])

    # Errors are raised in input order, so a failure names the first failing
    # candidate as one-at-a-time work would.  Peaks are counted a block of
    # windows at a time up to and including the first bad row: rows before it
    # hold only finite samples, so a non-finite sample fails there first.  A
    # window whose max - min (its first two columns) is below the threshold
    # holds no peak and is passed as empty; a NaN spread is still counted.
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    counted = int(bad[0]) + 1 if bad.size else n_rows
    peak_cols = np.arange(1, n_windows + 1) * _PER_WINDOW - 1  # n_peaks ends each window
    for lo in range(0, counted, _BLOCK_WINDOWS):
        chunk = slice(lo, min(lo + _BLOCK_WINDOWS, counted))
        for col, (x, stop) in zip(peak_cols, product(sig, stops)):
            spread = rows[chunk, col + 1 - _PER_WINDOW] - rows[chunk, col + 2 - _PER_WINDOW]
            ends = np.where(spread < min_prominence, start[chunk], stop[chunk])
            rows[chunk, col] = window_peak_counts(x, start[chunk], ends, min_prominence)
    if bad.size:
        c = candidates[bad[0]]
        at = int(np.flatnonzero(~np.isfinite(rows[bad[0]]))[0])
        raise ValueError(f"candidate [{c.c1}, {c.c2}]: non-finite feature at index {at}")
    if empty.size:
        c = candidates[n_rows]
        w = WINDOWS[0] if stops[0][n_rows] <= start[n_rows] else WINDOWS[1]
        raise ValueError(
            f"candidate [{c.c1}, {c.c2}]: window {w} is empty after "
            f"clipping to the trace span [{t0}, {t1}]"
        )
    return rows


def extract(
    trace: DerivedTrace,
    cand,
    clock: Callable[[float], int],
    *,
    signals: Sequence[str] = SIGNALS,
    min_prominence: float = DEFAULT_MIN_PROMINENCE,
    sample_rate_hz: float = 20.0,
) -> np.ndarray:
    """Feature vector for one candidate; layout given by feature_layout(signals).

    Windows are clipped to the trace span; a window left empty by clipping
    is an error naming the candidate.
    """
    kwargs = dict(signals=signals, min_prominence=min_prominence, sample_rate_hz=sample_rate_hz)
    return extract_table(trace, [cand], clock, "", **kwargs).X[0]


def label_candidates(
    candidates: Sequence, chews: Sequence[LabeledInterval], min_overlap: float = 0.5
) -> np.ndarray:
    """Binary training labels: 1 when >= min_overlap of a candidate's span
    is covered by ground-truth chewing intervals.  Each candidate sums only
    the chews in its overlap range: O((candidates + chews) log chews), plus
    the chews that a long chew keeps in range when chews nest."""
    labels = np.zeros(len(candidates), dtype=int)
    spans = sorted((iv.start, iv.end) for iv in chews)
    first, last = overlap_range(spans, [c.c1 for c in candidates], [c.c2 for c in candidates])
    for k, cand in enumerate(candidates):
        covered = 0.0
        for a, b in spans[first[k]:last[k]]:
            covered += max(0.0, min(b, cand.c2) - max(a, cand.c1))
        duration = cand.c2 - cand.c1
        if duration > 0 and covered / duration >= min_overlap:
            labels[k] = 1
    return labels


@dataclass
class FeatureTable:
    """A feature matrix with per-row candidate bookkeeping."""

    names: tuple[str, ...]
    X: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    participant: list[str]
    label: np.ndarray  # 1 / 0 / -1 for unlabeled

    def __post_init__(self) -> None:
        n = self.X.shape[0]
        if self.X.ndim != 2 or self.X.shape[1] != len(self.names):
            raise ValueError(
                f"feature matrix width {self.X.shape} != layout width {len(self.names)}"
            )
        for name in ("c1", "c2", "label"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"{name} length != row count {n}")
        if len(self.participant) != n:
            raise ValueError(f"participant length != row count {n}")

    def __len__(self) -> int:
        return int(self.X.shape[0])

    def candidates(self) -> list[CandidateWindow]:
        """The candidate of each row, from its span and band metadata."""
        p_min, p_max, epsilon, length = (
            self.X[:, self.names.index(name)].tolist()
            for name in ("p_min", "p_max", "epsilon", "length")
        )
        return [
            CandidateWindow(*row[:5], int(row[5]))
            for row in zip(self.c1.tolist(), self.c2.tolist(), p_min, p_max, epsilon, length)
        ]


def extract_table(
    trace: DerivedTrace,
    candidates: Sequence,
    clock: Callable[[float], int],
    participant: str,
    chews: Sequence[LabeledInterval] | None = None,
    *,
    signals: Sequence[str] = SIGNALS,
    min_prominence: float = DEFAULT_MIN_PROMINENCE,
    sample_rate_hz: float = 20.0,
    label_min_overlap: float = 0.5,
) -> FeatureTable:
    """Feature rows of candidates on one trace, each computed as given, in
    input order.  Errors are extract's, for the first failing candidate in
    input order."""
    names = feature_layout(signals)
    n = len(candidates)
    X = np.zeros((0, len(names)))
    if n:
        X = _feature_rows(trace, candidates, clock, signals, min_prominence, sample_rate_hz)
    if chews is None:
        label = np.full(n, -1, dtype=int)
    else:
        label = label_candidates(candidates, chews, label_min_overlap)
    return FeatureTable(
        names=names,
        X=X,
        c1=np.array([c.c1 for c in candidates], dtype=float),
        c2=np.array([c.c2 for c in candidates], dtype=float),
        participant=[participant] * n,
        label=label,
    )


def rank_features(model: TrainedModel) -> list[tuple[str, int]]:
    """Features ordered by how often the ensemble splits on them.

    Split-usage count is the model's intrinsic importance measure; features
    never used do not appear.  Ties keep layout order.
    """
    counts = split_counts(model)
    ranked = [
        (model.feature_names[i], int(counts[i]))
        for i in np.argsort(-counts, kind="stable")
        if counts[i] > 0
    ]
    return ranked


def write_feature_csv(path: str | Path, table: FeatureTable) -> None:
    write_table(
        path,
        (*table.names, *FEATURE_TAIL),
        "f" * len(table.names) + FEATURE_TAIL_KINDS,
        zip(*table.X.T, table.c1, table.c2, table.participant, table.label),
    )


def read_feature_csv(path: str | Path) -> FeatureTable:
    table = read_table(path, FEATURE_TAIL, FEATURE_TAIL_KINDS, lead="f")
    *matrix, c1, c2, participant, label = table.columns
    return FeatureTable(
        names=table.header[: len(matrix)],
        X=np.column_stack(matrix),
        c1=c1,
        c2=c2,
        participant=participant,
        label=label,
    )
