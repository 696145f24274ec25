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
correlations so every vector stays finite.  Skewness and kurtosis take d**3
and d**4 as sq*d and sq*sq (sq = d*d) and m2**1.5 as m2*sqrt(m2): correctly
rounded IEEE operations, whose bits, unlike numpy's power, do not follow the
CPU kernels that numpy dispatches.

Cost: O(S * w * log w) time per candidate for S signals and w-sample windows.
Both windows of every candidate go, in one length order, 64 at a time into
(k, S, w) blocks padded to the longest, at most one block more work, and
each length's spectrum bins are found once per process.  Peaks: one walled
peaks.window_peak_counts pass per 64 candidates over every signal, naming a
non-finite sample by its index, in O(window samples).  Extra memory: two blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import inf
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .peaks import window_peak_counts
from .periodic import CandidateWindow
from .records import NOMINAL_RATE_HZ, LabeledInterval, disjoint_spans, overlap_pairs
from .signals import SIGNALS, DerivedTrace
from .tables import read_table, write_table

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
DEFAULT_LABEL_MIN_OVERLAP = 0.5
# Guard band on window edges; absorbs sub-ns float wobble when a window
# boundary lands exactly on a sample time.
_EDGE_EPS = 1e-9


def feature_layout(signals: Sequence[str] = SIGNALS) -> tuple[str, ...]:
    """Canonical ordered feature names for a non-empty sensor subset."""
    if not signals:
        raise ValueError("sensor subset must be non-empty")
    for s in signals:
        if s not in SIGNALS:
            raise ValueError(f"unknown signal {s!r}, expected subset of {SIGNALS}")
        if signals.count(s) > 1:
            raise ValueError(f"signal {s!r} is named more than once in {tuple(signals)}")
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


# Windows per padded block; a peak-count pass holds two blocks' worth.
_BLOCK_WINDOWS = 64
_PER_WINDOW = len(STAT_FEATURES) + len(FREQ_HZ) + len(SPECTRUM_FEATURES) + len(TS_FEATURES)


def _moments(m2: np.ndarray, m3: np.ndarray, m4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Population skewness and excess kurtosis from the means of sq = d*d,
    # sq*d and sq*sq for mean-removed d; constants give exactly 0, and an
    # overflow inf or NaN: the row fails as non-finite.
    flat = m2 == 0.0
    m2 = np.where(flat, 1.0, m2)
    skew = m3 / (m2 * np.sqrt(m2))
    kurt = m4 / (m2 * m2) - 3.0
    return np.where(flat, 0.0, skew), np.where(flat, 0.0, kurt)


def _longest_runs(mask: np.ndarray) -> np.ndarray:
    # Longest run of True along the last axis.  Framed by False, a row's
    # edges alternate run start and end, and flat index // (w + 1) is the row.
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False, axis=-1))
    out = np.zeros(mask.shape[:-1], dtype=np.intp)
    np.maximum.at(out.reshape(-1), edges[::2] // (mask.shape[-1] + 1), edges[1::2] - edges[::2])
    return out


def _quartiles(block: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    # Q1, median and Q3, shape (3, k, S), of each (k, S, w) row's first
    # lengths[i] samples (+inf pads): np.percentile's _get_indexes and _lerp
    # over one sort, 1 sample getting weight 1 (b - 0.0).  Sort and partition
    # may swap -0.0 and 0.0, so mixed zeros, seen unsorted, or a NaN take it.
    n = lengths[:, None]
    at = (n - 1) * np.array([0.25, 0.5, 0.75])
    lo = np.where(at >= n - 1, -1.0, np.floor(at))  # index -1: the last sample
    ordered = np.sort(block, axis=-1)
    a, b = (np.take_along_axis(ordered, (i % n).astype(np.intp)[:, None], -1) for i in (lo, lo + 1))
    weight, diff = (at - lo)[:, None], b - a
    q = np.where(weight >= 0.5, b - diff * (1 - weight), a + diff * weight)
    zero, odd = block == 0.0, np.isnan(ordered[..., -1])
    if zero.any():
        odd |= (zero & np.signbit(block)).any(axis=-1) & (zero & ~np.signbit(block)).any(axis=-1)
    for i, s in zip(*np.nonzero(odd)):
        q[i, s] = np.percentile(block[i, s, : lengths[i]], [25.0, 50.0, 75.0])
    return np.moveaxis(q, -1, 0)


@lru_cache(maxsize=4096)
def _spectrum_bins(n: int, sample_rate_hz: float) -> np.ndarray:
    return np.argmin(np.abs(np.fft.rfftfreq(n, 1.0 / sample_rate_hz) - np.array(FREQ_HZ)[:, None]), 1)


def _length_stats(x: np.ndarray, sample_rate_hz: float, a, b) -> tuple[np.ndarray, ...]:
    # What of a C-contiguous (k, S, n) block has bits that depend on n: mean, the
    # means of sq = d*d, x*x, sq*d, sq*sq and d[:, a]*d[:, b] (ndarray.mean's sum / n),
    # max, min and the spectrum amplitudes (all 0 at n = 1: d is 0 for finite samples).
    n = x.shape[-1]
    mean = np.add.reduce(x, -1) / n
    d = x - mean[..., None]
    sq = d * d
    means = np.add.reduce(np.concatenate([sq, x * x, sq * d, sq * sq, d[:, a] * d[:, b]], 1), -1) / n
    amps = np.take(np.abs(np.fft.rfft(d, axis=-1)), _spectrum_bins(n, sample_rate_hz), axis=-1) * (2.0 / n)
    return mean, means, x.max(axis=-1), x.min(axis=-1), amps


def _window_features(block: np.ndarray, lengths: np.ndarray, sample_rate_hz: float, a, b):
    # The _PER_WINDOW features (n_peaks 0) and pair (a[i], b[i]) correlations
    # of each (k, S, w) block row: lengths[i] samples then +inf, rows sorted by
    # length.  One _length_stats per distinct length gives the bits that depend
    # on it; the rest is masked work and one sort: O(k S w log w), one block.
    k, n_sig, w = block.shape
    cuts = [0, *(np.flatnonzero(np.diff(lengths)) + 1), k]
    parts = [_length_stats(np.ascontiguousarray(block[lo:hi, :, : lengths[lo]]), sample_rate_hz, a, b)
             for lo, hi in zip(cuts, cuts[1:])]
    mean, means, top, low, amps = (np.concatenate(p) for p in zip(*parts))
    m2, ms, m3, m4, cov = np.split(means, np.arange(1, 5) * n_sig, axis=1)
    valid = np.arange(w) < lengths[:, None, None]
    below, above = block < mean[..., None], (block > mean[..., None]) & valid
    d_amps = amps - amps.mean(axis=-1, keepdims=True)
    sq = d_amps * d_amps
    q1, med, q3 = _quartiles(block, lengths)
    n = lengths[:, None]
    per_window = [
        top, low, mean, med, m2, np.sqrt(ms), *_moments(m2, m3, m4), q1, q3, q3 - q1,
        *np.moveaxis(amps, -1, 0), *_moments(*np.mean([sq, sq * d_amps, sq * sq], -1)),
        below.sum(axis=-1), above.sum(axis=-1),
        np.argmin(block, axis=-1) / n, np.argmax(np.where(valid, block, -inf), axis=-1) / n,
        _longest_runs(below), _longest_runs(above), np.zeros((k, n_sig)),
    ]
    flat = (m2[:, a] == 0.0) | (m2[:, b] == 0.0)
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
    ends = np.array([(c.c2, c.c1) for c in candidates], float)  # CW, BW
    stops = np.searchsorted(t, np.minimum(ends + WINDOW_PAD_S, t1) + _EDGE_EPS, "right")
    empty = np.flatnonzero((stops <= start[:, None]).any(axis=1))
    n_rows = int(empty[0]) if empty.size else len(candidates)

    sig = [trace.signal(s) for s in signals]
    per_window = np.zeros((n_rows, len(sig), len(WINDOWS), _PER_WINDOW))
    a, b = np.array(list(combinations(range(len(sig)), 2)), dtype=np.intp).reshape(-1, 2).T
    corr = np.zeros((n_rows, len(WINDOWS), a.size))
    # Every window, flattened by (row, window), in one stable length order.  The
    # longest block runs first, so the one the loop leaves held is the shortest.
    first = start[:n_rows].repeat(len(WINDOWS))
    lengths = stops[:n_rows].ravel() - first
    order = np.argsort(lengths, kind="stable")
    for lo in reversed(range(0, order.size, _BLOCK_WINDOWS)):
        chunk = order[lo:lo + _BLOCK_WINDOWS]
        at = np.arange(lengths[chunk[-1]])
        pad = at >= lengths[chunk, None]
        index = np.where(pad, 0, first[chunk, None] + at)
        block = np.where(pad[:, None], inf, np.stack([x[index] for x in sig], axis=1))
        row, w = np.divmod(chunk, len(WINDOWS))
        per_window[row, :, w], corr[row, w] = _window_features(block, lengths[chunk], sample_rate_hz, a, b)
    rows = np.hstack([per_window.reshape(n_rows, len(sig) * len(WINDOWS) * _PER_WINDOW),
                      corr.reshape(n_rows, len(WINDOWS) * a.size), meta[:n_rows]])

    # Errors are raised in input order, so a failure names the first failing
    # candidate as one-at-a-time work would.  Peaks are counted up to and
    # including the first bad row, whose windows come last in their pass:
    # rows before it hold only finite samples, so a non-finite sample fails
    # there first.  A window whose max - min is below the threshold holds no
    # peak and is passed as empty; a NaN spread is still counted.
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    counted = int(bad[0]) + 1 if bad.size else n_rows
    cols = np.arange(len(sig) * len(WINDOWS)) * _PER_WINDOW  # each window's max, by signal then window
    for lo in range(0, counted, _BLOCK_WINDOWS):
        chunk = slice(lo, min(lo + _BLOCK_WINDOWS, counted))
        spread = rows[chunk, cols] - rows[chunk, cols + 1]
        stop = np.where(spread < min_prominence, start[chunk, None], np.tile(stops[chunk], len(sig)))
        of = np.arange(stop.size) % cols.size // len(WINDOWS)
        counts = window_peak_counts(sig, start[chunk].repeat(cols.size), stop.ravel(), min_prominence, of)
        rows[chunk, cols + _PER_WINDOW - 1] = counts.reshape(stop.shape)  # n_peaks ends each window
    if bad.size:
        c = candidates[bad[0]]
        at = int(np.flatnonzero(~np.isfinite(rows[bad[0]]))[0])
        raise ValueError(f"candidate [{c.c1}, {c.c2}]: non-finite feature at index {at}")
    if empty.size:
        c = candidates[n_rows]
        w = WINDOWS[0] if stops[n_rows, 0] <= start[n_rows] else WINDOWS[1]
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
    sample_rate_hz: float = NOMINAL_RATE_HZ,
) -> np.ndarray:
    """Feature vector for one candidate; layout given by feature_layout(signals).

    Windows are clipped to the trace span; a window left empty by clipping
    is an error naming the candidate.
    """
    kwargs = dict(signals=signals, min_prominence=min_prominence, sample_rate_hz=sample_rate_hz)
    return extract_table(trace, [cand], clock, "", **kwargs).X[0]


def label_candidates(
    candidates: Sequence, chews: Sequence[LabeledInterval], min_overlap: float = DEFAULT_LABEL_MIN_OVERLAP
) -> np.ndarray:
    """Binary training labels: 1 when >= min_overlap of a candidate's span
    is covered by ground-truth chewing intervals, which must not overlap.
    Each candidate sums, in span order, the chews ``overlap_pairs`` joins to
    it: O((candidates + chews) log chews + pairs)."""
    spans = disjoint_spans(((iv.start, iv.end) for iv in chews), "chew labels")
    c1, c2 = np.array([(c.c1, c.c2) for c in candidates], dtype=float).reshape(-1, 2).T
    query, _, overlap = overlap_pairs(spans, c1, c2)
    covered = np.bincount(query, np.maximum(overlap, 0.0), minlength=len(candidates))
    duration = c2 - c1
    with np.errstate(divide="ignore", invalid="ignore"):
        return ((duration > 0) & (covered / duration >= min_overlap)).astype(int)


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
    sample_rate_hz: float = NOMINAL_RATE_HZ,
    label_min_overlap: float = DEFAULT_LABEL_MIN_OVERLAP,
) -> FeatureTable:
    """Feature rows of candidates on one trace, each computed as given, in
    input order.  Errors are extract's, for the first failing candidate in
    input order."""
    names = feature_layout(signals)
    n = len(candidates)
    X = np.zeros((0, len(names)))
    if n:
        X = _feature_rows(trace, candidates, clock, signals, min_prominence, sample_rate_hz)
    label = (np.full(n, -1, dtype=int) if chews is None
             else label_candidates(candidates, chews, label_min_overlap))
    return FeatureTable(
        names=names,
        X=X,
        c1=np.array([c.c1 for c in candidates], dtype=float),
        c2=np.array([c.c2 for c in candidates], dtype=float),
        participant=[participant] * n,
        label=label,
    )


def write_feature_csv(path: str | Path, table: FeatureTable) -> None:
    write_table(
        path,
        (*table.names, *FEATURE_TAIL),
        "f" * len(table.names) + FEATURE_TAIL_KINDS,
        (*table.X.T, table.c1, table.c2, table.participant, table.label),
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
