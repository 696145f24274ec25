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
signals for an ablation shrinks the layout accordingly; the layout
fingerprint changes with it.

Zero-variance windows fall back to 0 for skewness, kurtosis, and
correlations so every vector stays finite.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .boosting import TrainedModel, split_counts
from .peaks import find_prominent_peaks
from .periodic import CandidateWindow
from .records import LabeledInterval
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


def layout_fingerprint(names: Sequence[str]) -> str:
    digest = hashlib.sha256("\n".join(names).encode("utf-8")).hexdigest()
    return digest[:16]


def local_hour(tz_offset_s: float = 0.0) -> Callable[[float], int]:
    """Clock converter: epoch seconds -> hour of day 0-23 at a fixed offset."""

    def hour(t: float) -> int:
        return int(((t + tz_offset_s) % 86400.0) // 3600.0)

    return hour


def _moments(x: np.ndarray) -> tuple[float, float]:
    # Population skewness and excess kurtosis; constants give exactly 0.
    d = x - x.mean()
    m2 = float(np.mean(d * d))
    if m2 == 0.0:
        return 0.0, 0.0
    skew = float(np.mean(d**3)) / m2**1.5
    kurt = float(np.mean(d**4)) / (m2 * m2) - 3.0
    return skew, kurt


def _stats_block(x: np.ndarray) -> list[float]:
    q1, med, q3 = (float(v) for v in np.percentile(x, [25.0, 50.0, 75.0]))
    skew, kurt = _moments(x)
    return [
        float(x.max()),
        float(x.min()),
        float(x.mean()),
        med,
        float(np.var(x)),
        float(np.sqrt(np.mean(x * x))),
        skew,
        kurt,
        q1,
        q3,
        q3 - q1,
    ]


def _freq_amplitudes(x: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    n = x.shape[0]
    if n < 2:
        return np.zeros(len(FREQ_HZ))
    spectrum = np.abs(np.fft.rfft(x - x.mean())) * (2.0 / n)
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate_hz)
    bins = [int(np.argmin(np.abs(freqs - hz))) for hz in FREQ_HZ]
    return spectrum[bins]


def _longest_run(mask: np.ndarray) -> int:
    best = run = 0
    for flag in mask:
        run = run + 1 if flag else 0
        if run > best:
            best = run
    return best


def _timeseries_block(
    x: np.ndarray, tw: np.ndarray, min_prominence: float
) -> list[float]:
    n = x.shape[0]
    m = x.mean()
    below = x < m
    above = x > m
    return [
        float(below.sum()),
        float(above.sum()),
        float(int(np.argmin(x)) / n),
        float(int(np.argmax(x)) / n),
        float(_longest_run(below)),
        float(_longest_run(above)),
        float(len(find_prominent_peaks(x, tw, min_prominence))),
    ]


def _correlation(a: np.ndarray, b: np.ndarray) -> float:
    da = a - a.mean()
    db = b - b.mean()
    va = float(np.mean(da * da))
    vb = float(np.mean(db * db))
    if va == 0.0 or vb == 0.0:
        return 0.0
    return float(np.mean(da * db)) / np.sqrt(va * vb)


def _window_indices(t: np.ndarray, lo: float, hi: float) -> slice:
    i0 = int(np.searchsorted(t, lo - _EDGE_EPS, side="left"))
    i1 = int(np.searchsorted(t, hi + _EDGE_EPS, side="right"))
    return slice(i0, i1)


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
    if not len(trace):
        raise ValueError("cannot extract features from an empty trace")
    t0, t1 = float(trace.t[0]), float(trace.t[-1])
    spans = {
        "cw": (max(cand.c1 - WINDOW_PAD_S, t0), min(cand.c2 + WINDOW_PAD_S, t1)),
        "bw": (max(cand.c1 - WINDOW_PAD_S, t0), min(cand.c1 + WINDOW_PAD_S, t1)),
    }
    windows: dict[str, slice] = {}
    for w, (lo, hi) in spans.items():
        sl = _window_indices(trace.t, lo, hi)
        if sl.stop <= sl.start:
            raise ValueError(
                f"candidate [{cand.c1}, {cand.c2}]: window {w} is empty after "
                f"clipping to the trace span [{t0}, {t1}]"
            )
        windows[w] = sl

    values: list[float] = []
    for s in signals:
        if s not in SIGNALS:
            raise ValueError(f"unknown signal {s!r}, expected subset of {SIGNALS}")
        full = trace.signal(s)
        for w in WINDOWS:
            sl = windows[w]
            x = full[sl]
            values.extend(_stats_block(x))
            amps = _freq_amplitudes(x, sample_rate_hz)
            values.extend(float(v) for v in amps)
            values.extend(_moments(amps))
            values.extend(_timeseries_block(x, trace.t[sl], min_prominence))
    for w in WINDOWS:
        sl = windows[w]
        for a, b in combinations(signals, 2):
            values.append(_correlation(trace.signal(a)[sl], trace.signal(b)[sl]))
    values.extend(
        [
            float(cand.p_min),
            float(cand.p_max),
            float(cand.epsilon),
            float(cand.length),
            float(clock(cand.c1)),
        ]
    )
    vec = np.array(values, dtype=float)
    if not np.all(np.isfinite(vec)):
        bad = int(np.flatnonzero(~np.isfinite(vec))[0])
        raise ValueError(
            f"candidate [{cand.c1}, {cand.c2}]: non-finite feature at index {bad}"
        )
    return vec


def label_candidates(
    candidates: Sequence, chews: Sequence[LabeledInterval], min_overlap: float = 0.5
) -> np.ndarray:
    """Binary training labels: 1 when >= min_overlap of a candidate's span
    is covered by ground-truth chewing intervals."""
    labels = np.zeros(len(candidates), dtype=int)
    spans = sorted((iv.start, iv.end) for iv in chews)
    for k, cand in enumerate(candidates):
        covered = 0.0
        for a, b in spans:
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
    names = feature_layout(signals)
    n = len(candidates)
    X = np.zeros((n, len(names)))
    for k, cand in enumerate(candidates):
        X[k] = extract(
            trace,
            cand,
            clock,
            signals=signals,
            min_prominence=min_prominence,
            sample_rate_hz=sample_rate_hz,
        )
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
