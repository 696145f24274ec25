"""Longest periodic-subsequence segmentation of peak event times.

A run of event timestamps is treated as periodic when every consecutive
gap lies inside a band [p_min, p_max].  For a single band the longest
such subsequence is found by a left-to-right dynamic program:

    opt[i] = 1 + max(opt[j])  over j with p_min <= t[i] - t[j] <= p_max

where opt[i] counts gaps of the best run ending at i.  Sweeping
geometrically spaced bands over the physiological inter-chew range (0.4 s
to 1.5 s by factors of 1 + epsilon) turns "find chewing of unknown rate"
into a small family of banded problems.

One rule gives every predecessor window.  A widened ``searchsorted`` pair
finds each event's union window over all bands; fl(t[i] - t[j]) falls as j
rises, so each band's exact window [first, stop) is one run inside it,
placed by counting the gaps above p_max and at or above p_min.  The screen,
the DP and the reference enumerator all read these windows.  ``segment``
screens the (fragment, band) pairs first: an event ends a chain of k gaps
exactly when its window holds one that ends k - 1, so whole-array rounds
keep an event only while its window holds one kept before, and the pairs
left after min(min_len, 8) - 1 rounds are exactly those whose optimum
reaches ``min_len`` (a superset above 8, where the DP decides).  The DP
takes each event's optimum from its window and carries forward the set of
chain starts that reach it: its own index for an empty window, a single
tied predecessor's set (shared), or the union over the ties.  Where the
optimum reaches ``min_len``, ``segment`` returns one ``CandidateWindow`` per
distinct (first, last) span of the tied optimal chains, never enumerating
the chains (2^k for k paired chews).  Cost for B bands, n peaks and K, the
most peaks in any union window: O(n log n) for the search, O(B K n) for the
windows with O(B n) extra memory, O(B n) per screen round, and per passed
pair O(sum of window lengths) for the DP plus O(events x distinct starts)
for the start sets.  Peaks of a 20 Hz trace are at least 2 samples apart,
so K <= 12 for the default sweep.  Only the reference search ``longest_abs_periodic`` enumerates
every tied chain, as ``PeriodicSubsequence``.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .peaks import Peak
from .records import check_increasing, check_range
from .tables import read_table, transpose, write_table

_RATIO_SLACK = 1.0 + 1e-12  # absorbs one rounding step in band-edge ratios
MAX_BANDS = 1000  # bands a sweep may have; the default sweep has 8
_SCREEN_ROUNDS = 8  # the screen's rounds, capped so its cost holds for any min_len


@dataclass(frozen=True)
class PeriodicSubsequence:
    """A maximal run of event times whose gaps all fall in one band.

    ``length`` counts inter-event gaps, so three timestamps have length 2.
    """

    timestamps: tuple[float, ...]
    p_min: float
    p_max: float
    epsilon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "timestamps", tuple(float(v) for v in self.timestamps))
        if len(self.timestamps) < 2:
            raise ValueError("a periodic subsequence needs at least 2 timestamps")
        if not 0 < self.p_min <= self.p_max < math.inf:
            raise ValueError(f"need 0 < p_min <= p_max < inf, got [{self.p_min}, {self.p_max}]")
        check_range("epsilon", self.epsilon, "(0, inf)")
        if self.p_max / self.p_min > (1.0 + self.epsilon) * _RATIO_SLACK:
            raise ValueError(
                f"band ratio {self.p_max / self.p_min} exceeds 1 + epsilon = {1 + self.epsilon}"
            )
        for a, b in zip(self.timestamps, self.timestamps[1:]):
            gap = b - a
            if not self.p_min <= gap <= self.p_max:
                raise ValueError(
                    f"gap {gap} between {a} and {b} outside band [{self.p_min}, {self.p_max}]"
                )

    @property
    def length(self) -> int:
        return len(self.timestamps) - 1

    @property
    def c1(self) -> float:
        return self.timestamps[0]

    @property
    def c2(self) -> float:
        return self.timestamps[-1]


@dataclass(frozen=True)
class CandidateWindow:
    """A candidate chewing subsequence, its fields in ``CANDIDATE_HEADER`` order."""

    c1: float
    c2: float
    p_min: float
    p_max: float
    epsilon: float
    length: int


@dataclass(frozen=True)
class SweepConfig:
    """Inter-chew sweep range: 0.4 s to 1.5 s covers 0.94-2.17 Hz chewing."""

    min: float = 0.4
    max: float = 1.5
    epsilon: float = 0.2

    def __post_init__(self) -> None:
        if not 0 < self.min < self.max:
            raise ValueError(f"need 0 < min < max, got [{self.min}, {self.max}]")
        check_range("max", self.max, "(0, inf)")
        check_range("epsilon", self.epsilon, "(0, inf)")
        # ceil() of this is the band count, found without building the bands.
        count = (math.log(self.max) - math.log(self.min)) / math.log1p(self.epsilon)
        if not count <= MAX_BANDS:
            count = math.ceil(count) if count < math.inf else count
            raise ValueError(
                f"epsilon {self.epsilon} needs {count:.6g} bands from {self.min} to "
                f"{self.max}, more than the {MAX_BANDS} allowed"
            )

    def bands(self) -> list[tuple[float, float]]:
        """Geometric bands [b, b(1+eps)] from min up to max, last one clipped."""
        out = []
        b = self.min
        while b < self.max:
            hi = b * (1.0 + self.epsilon)
            out.append((b, hi if hi < self.max else self.max))
            b = hi
        return out


def _validate_times(t) -> np.ndarray:
    ts = np.asarray(t, dtype=float)
    if ts.ndim != 1:
        raise ValueError("timestamps must be one-dimensional")
    check_increasing(ts)
    return ts


def _windows(times: np.ndarray, bands: list[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    # Every event's exact predecessor window [first, stop) per band, (B, n)
    # each: the j with p_min <= t[i] - t[j] <= p_max.  One search finds the
    # union window of all bands, widened by 4 ulps of the largest finite time
    # or band edge, which exceed the rounding of t[i] - t[j] and of its
    # bounds.  fl(t[i] - t[j]) falls as j rises, so each band's window is
    # one run inside it, placed by counting the gaps past each edge.
    scale = max(np.abs(times[np.isfinite(times)]).max(initial=0.0), bands[-1][1])
    tol = 4 * np.spacing(scale)
    lo = np.searchsorted(times, times - bands[-1][1] - tol, "left")
    hi = np.searchsorted(times, times - bands[0][0] + tol, "right")
    p_min, p_max = np.array(bands).T[:, :, None]
    width = np.max(hi - lo, initial=0)  # the most events in a union window
    over, reach = np.zeros((2, len(bands), times.size), dtype=np.min_scalar_type(width))
    with np.errstate(invalid="ignore"):  # inf - inf: an infinite time has no predecessor
        for k in range(width):
            gap = np.where(lo + k < hi, times - times.take(lo + k, mode="clip"), np.nan)
            over += gap > p_max
            reach += gap >= p_min
    return lo + over, lo + reach


def _optima(first: list[int], stop: list[int]) -> tuple[list[int], list]:
    # opt[i], the gaps of the longest chain ending at event i (1 + the best
    # in its window, 0 for an empty one), and the first events of those
    # chains: its own index, a single tied predecessor's starts (shared, not
    # copied), or the union over the tied predecessors.
    opt: list[int] = []
    starts: list = []
    for i, (f, s) in enumerate(zip(first, stop)):
        if f == s:
            opt.append(0)
            starts.append((i,))
        elif s - f == 1:
            opt.append(opt[f] + 1)
            starts.append(starts[f])
        else:
            window = opt[f:s]
            best = max(window)
            opt.append(best + 1)
            if window.count(best) == 1:
                starts.append(starts[f + window.index(best)])
            else:
                starts.append(set().union(*(starts[j] for j in range(f, s) if opt[j] == best)))
    return opt, starts


def longest_abs_periodic(t, p_min: float, p_max: float) -> list[PeriodicSubsequence]:
    """All longest subsequences whose consecutive gaps stay in [p_min, p_max].

    Both bounds are inclusive.  Every optimum (tie) is returned, ordered by
    start time, and tagged with the smallest epsilon consistent with the
    band ratio.  Ties can be exponential in number: k paired events give 2^k.
    """
    if not 0 < p_min <= p_max < math.inf:
        raise ValueError(f"need 0 < p_min <= p_max < inf, got [{p_min}, {p_max}]")
    ts = _validate_times(t)
    tl = ts.tolist()
    first, stop = (w[0].tolist() for w in _windows(ts, [(p_min, p_max)]))
    opt, _ = _optima(first, stop)
    best = max(opt, default=0)
    # Walk the backpointer DAG from every optimal endpoint (none when no gap
    # fits); each root-to-end path is one tied optimum.
    chains: list[tuple[float, ...]] = []
    for end in [i for i in range(len(tl)) if 0 < best == opt[i]]:
        stack: list[tuple[int, list[int]]] = [(end, [end])]
        while stack:
            i, tail = stack.pop()
            if opt[i] == 0:
                chains.append(tuple(tl[k] for k in reversed(tail)))
                continue
            preds = [j for j in range(first[i], stop[i]) if opt[j] == opt[i] - 1]
            if len(preds) == 1:
                tail.append(preds[0])
                stack.append((preds[0], tail))
            else:
                for j in preds:
                    stack.append((j, tail + [j]))
    epsilon = max(p_max / p_min - 1.0, 1e-12)
    return [PeriodicSubsequence(c, p_min, p_max, epsilon) for c in sorted(chains)]


def _screen(first: np.ndarray, stop: np.ndarray, bounds: np.ndarray, min_len: int):
    # The (fragment, band) pairs, in that order, whose optimum reaches
    # min(min_len, _SCREEN_ROUNDS) gaps.  Each round keeps an event only while
    # its window holds one kept in the round before.  Bands go one at a time,
    # so that a band's rows stay in cache through its rounds.
    hit = np.zeros((bounds.size - 1, len(first)), dtype=bool)
    count = np.zeros(first.shape[1] + 1, dtype=np.intp)
    for b, (f, s) in enumerate(zip(first, stop)):
        alive = s > f
        for _ in range(min(min_len, _SCREEN_ROUNDS) - 1):
            np.cumsum(alive, out=count[1:])
            alive = count[s] > count[f]
        np.cumsum(alive, out=count[1:])
        hit[:, b] = np.diff(count[bounds]) > 0
    return zip(*np.nonzero(hit))


def segment(peaks: Sequence[Peak], cfg: SweepConfig, min_len: int) -> list[CandidateWindow]:
    """Candidate chewing subsequences from a stream of prominent peaks.

    The peak stream is split wherever consecutive peaks are more than
    cfg.max apart (no band gap can bridge such a break), and each fragment
    is swept band by band, bar the pairs the screen rules out; up to 8 gaps
    the screen passes exactly the pairs whose optimum reaches ``min_len``.
    A band gives one candidate per distinct (c1, c2) of its tied optimal
    chains when the optimum reaches ``min_len`` gaps; a span found in
    several bands is kept once, in the lowest, with that band's optimum as
    ``length``.  Output is ordered by start time, band, then end time.  The
    screen and the DP read the windows of one search, and the DP carries
    chain starts forward; the module docstring states the cost.
    """
    check_range("min_len", min_len, "[1, inf)")
    times = _validate_times([p.t for p in peaks])
    bands = cfg.bands()
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(times) > cfg.max) + 1, [times.size]))
    tl = times.tolist()
    first, stop = _windows(times, bands)
    # Fragments hold disjoint times, so one table dedupes spans across bands.
    found: dict[tuple[float, float], CandidateWindow] = {}
    for f, b in _screen(first, stop, bounds, min_len):
        lo, hi = bounds[f : f + 2].tolist()
        opt, starts = _optima((first[b, lo:hi] - lo).tolist(), (stop[b, lo:hi] - lo).tolist())
        best = max(opt)
        for end in [e for e, o in enumerate(opt) if o == best >= min_len]:
            for s in starts[end]:
                cand = CandidateWindow(tl[lo + s], tl[lo + end], *bands[b], cfg.epsilon, best)
                found.setdefault((cand.c1, cand.c2), cand)
    return sorted(found.values(), key=lambda c: (c.c1, c.p_min, c.c2))


CANDIDATE_HEADER = ("c1_s", "c2_s", "p_min", "p_max", "epsilon", "length")
CANDIDATE_KINDS = "fffffi"


def write_candidate_csv(path: str | Path, candidates: Sequence[CandidateWindow]) -> None:
    rows = map(astuple, candidates)
    write_table(path, CANDIDATE_HEADER, CANDIDATE_KINDS, transpose(rows, len(CANDIDATE_KINDS)))


def read_candidate_csv(path: str | Path) -> list[CandidateWindow]:
    return read_table(path, CANDIDATE_HEADER, CANDIDATE_KINDS).rows(CandidateWindow)
