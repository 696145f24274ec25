"""Longest periodic-subsequence segmentation of peak event times.

A run of event timestamps is treated as periodic when every consecutive
gap lies inside a band [p_min, p_max].  For a single band the longest
such subsequence is found by a left-to-right dynamic program:

    opt[i] = 1 + max(opt[j])  over j with p_min <= t[i] - t[j] <= p_max

where opt[i] counts gaps of the best run ending at i.  Because the valid
predecessor window slides monotonically with i, a max-deque keeps the
whole pass linear in the number of events as long as the band width and
event density are bounded.

Sweeping geometrically spaced bands over the physiological inter-chew
range (0.4 s to 1.5 s by factors of 1 + epsilon) turns "find chewing of
unknown rate" into a small family of banded problems.

``segment`` first screens the (fragment, band) pairs: an event ends a
chain of k gaps only if its predecessor window holds an event that ends
one of k - 1.  Per band, two ``searchsorted`` calls give every window,
widened by a few ulps, and whole-array rounds keep an event only while its
window holds one kept in the round before.  The pairs left after
min(min_len, 8) - 1 rounds are a superset of those whose optimum reaches
``min_len``; only they run the DP.  Cost: O(B n log n) for B bands and n
peaks, plus the rounds' O(B n) each, plus the exact DP on the pairs that
get through.  Where the optimum reaches ``min_len`` gaps, ``segment``
returns one ``CandidateWindow`` per distinct (first, last) span of the
tied optimal chains.  Each on-optimum event carries the set of chain
starts that reach it, so this costs O(on-optimum events x distinct
starts), never the chain count (2^k for k paired chews).  Only the
reference searches ``longest_*_periodic`` enumerate every tied chain, as
``PeriodicSubsequence``.
"""

from __future__ import annotations

import math
from collections import deque
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


def _optima(tl: list[float], p_min: float, p_max: float) -> list[int]:
    # opt[i]: gaps of the longest chain ending at tl[i].  Sliding-window DP:
    # dq holds candidate predecessors with non-increasing opt values; a
    # predecessor enters once its gap reaches p_min and leaves once its gap
    # passes p_max.
    n = len(tl)
    opt = [0] * n
    dq: deque[int] = deque()
    nxt = 0  # next index eligible to enter the window
    for i in range(n):
        ti = tl[i]
        while nxt < i and ti - tl[nxt] >= p_min:
            while dq and opt[dq[-1]] <= opt[nxt]:
                dq.pop()
            dq.append(nxt)
            nxt += 1
        while dq and ti - tl[dq[0]] > p_max:
            dq.popleft()
        if dq:
            opt[i] = opt[dq[0]] + 1
    return opt


def _predecessors(tl: list[float], opt: list[int], i: int, p_min: float, p_max: float) -> list[int]:
    # The events one gap before i on a longest chain ending at i.
    out = []
    for j in range(i - 1, -1, -1):
        gap = tl[i] - tl[j]
        if gap > p_max:
            break
        if opt[j] == opt[i] - 1 and gap >= p_min:
            out.append(j)
    return out


def _longest_spans(
    tl: list[float], p_min: float, p_max: float, min_len: int
) -> tuple[int, set[tuple[float, float]]]:
    # The optimum and the distinct (first, last) times of its tied chains,
    # none when it is below min_len (>= 1).  On-optimum events are found
    # level by level back from the optimal endpoints; each then carries the
    # chain starts that reach it: its own, or the union of its predecessors'.
    opt = _optima(tl, p_min, p_max)
    best = max(opt)
    if best < min_len:
        return best, set()
    ends = level = [i for i in range(len(tl)) if opt[i] == best]
    preds: dict[int, list[int]] = {}
    while level:
        for i in level:
            preds[i] = _predecessors(tl, opt, i, p_min, p_max)
        level = {j for i in level for j in preds[i]}
    starts: dict[int, set[int]] = {}
    for i in sorted(preds):  # an event's predecessors come before it
        starts[i] = set().union(*(starts[j] for j in preds[i])) or {i}
    return best, {(tl[s], tl[e]) for e in ends for s in starts[e]}


def longest_abs_periodic(t, p_min: float, p_max: float) -> list[PeriodicSubsequence]:
    """All longest subsequences whose consecutive gaps stay in [p_min, p_max].

    Both bounds are inclusive.  Every optimum (tie) is returned, ordered by
    start time, and tagged with the smallest epsilon consistent with the
    band ratio.  Ties can be exponential in number: k paired events give 2^k.
    """
    if not 0 < p_min <= p_max < math.inf:
        raise ValueError(f"need 0 < p_min <= p_max < inf, got [{p_min}, {p_max}]")
    tl = _validate_times(t).tolist()
    opt = _optima(tl, p_min, p_max)
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
            preds = _predecessors(tl, opt, i, p_min, p_max)
            if len(preds) == 1:
                tail.append(preds[0])
                stack.append((preds[0], tail))
            else:
                for j in preds:
                    stack.append((j, tail + [j]))
    epsilon = max(p_max / p_min - 1.0, 1e-12)
    return [PeriodicSubsequence(c, p_min, p_max, epsilon) for c in sorted(chains)]


def longest_rel_periodic(t, cfg: SweepConfig) -> list[PeriodicSubsequence]:
    """Per-band optima over the whole sweep, deduplicated across bands.

    Each band is solved independently; a subsequence found in two adjacent
    bands (all gaps on the shared edge) is kept once, tagged with the lower
    band.  Results are ordered by start time, then band.
    """
    found: dict[tuple[float, ...], PeriodicSubsequence] = {}
    for p_min, p_max in cfg.bands():
        for s in longest_abs_periodic(t, p_min, p_max):
            found.setdefault(s.timestamps, PeriodicSubsequence(s.timestamps, p_min, p_max, cfg.epsilon))
    return sorted(found.values(), key=lambda s: (s.c1, s.p_min, s.timestamps))


def _screen(times: np.ndarray, bands: list[tuple[float, float]], bounds: np.ndarray, min_len: int):
    # The (fragment, band) pairs, in that order, that may reach min_len gaps
    # (module docstring).  4 ulps of the largest finite time or band edge
    # exceed the rounding of t[i] - t[j] and of the window bounds.
    scale = max(np.abs(times[np.isfinite(times)]).max(initial=0.0), bands[-1][1])
    tol = 4 * np.spacing(scale)
    frag = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    hit = np.zeros((bounds.size - 1, len(bands)), dtype=bool)
    count = np.zeros(times.size + 1, dtype=np.intp)
    for b, (p_min, p_max) in enumerate(bands):
        first = np.searchsorted(times, times - p_max - tol, "left")
        stop = np.searchsorted(times, times - p_min + tol, "right")
        alive = stop > first
        for _ in range(min(min_len, _SCREEN_ROUNDS) - 1):
            np.cumsum(alive, out=count[1:])
            alive = count[stop] > count[first]
        hit[frag[alive], b] = True
    return zip(*np.nonzero(hit))


def segment(peaks: Sequence[Peak], cfg: SweepConfig, min_len: int) -> list[CandidateWindow]:
    """Candidate chewing subsequences from a stream of prominent peaks.

    The peak stream is split wherever consecutive peaks are more than
    cfg.max apart (no band gap can bridge such a break), and each fragment
    is swept band by band, bar the pairs the screen rules out (see the
    module docstring).  A band gives one candidate per distinct (c1, c2) of
    its tied optimal chains when the optimum reaches ``min_len`` gaps; a
    span found in several bands is kept once, in the lowest, with that
    band's optimum as ``length``.  Output is ordered by start time, band,
    then end time.
    """
    check_range("min_len", min_len, "[1, inf)")
    times = _validate_times([p.t for p in peaks])
    bands = cfg.bands()
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(times) > cfg.max) + 1, [times.size]))
    tl = times.tolist()
    # Fragments hold disjoint times, so one table dedupes spans across bands.
    found: dict[tuple[float, float], CandidateWindow] = {}
    for f, b in _screen(times, bands, bounds, min_len):
        p_min, p_max = bands[b]
        best, spans = _longest_spans(tl[bounds[f] : bounds[f + 1]], p_min, p_max, min_len)
        for c1, c2 in spans:
            found.setdefault((c1, c2), CandidateWindow(c1, c2, p_min, p_max, cfg.epsilon, best))
    return sorted(found.values(), key=lambda c: (c.c1, c.p_min, c.c2))


CANDIDATE_HEADER = ("c1_s", "c2_s", "p_min", "p_max", "epsilon", "length")
CANDIDATE_KINDS = "fffffi"


def write_candidate_csv(path: str | Path, candidates: Sequence[CandidateWindow]) -> None:
    rows = map(astuple, candidates)
    write_table(path, CANDIDATE_HEADER, CANDIDATE_KINDS, transpose(rows, len(CANDIDATE_KINDS)))


def read_candidate_csv(path: str | Path) -> list[CandidateWindow]:
    return read_table(path, CANDIDATE_HEADER, CANDIDATE_KINDS).rows(CandidateWindow)
