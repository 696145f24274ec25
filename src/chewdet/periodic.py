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

``segment`` solves every (fragment, band) with that DP but enumerates the
tied optimal chains only where the optimum reaches ``min_len`` gaps; a
fragment of at most ``min_len`` peaks is skipped whole.  It returns a
``CandidateWindow`` per distinct chain, so k tied chains over one span give
k identical rows, and their enumeration is still combinatorial.  Only the
reference searches ``longest_*_periodic`` return ``PeriodicSubsequence``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .peaks import Peak
from .tables import read_table, write_table

_RATIO_SLACK = 1.0 + 1e-12  # absorbs one rounding step in band-edge ratios
MAX_BANDS = 1000  # bands a sweep may have; the default sweep has 8


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
        if not 0 < self.p_min <= self.p_max:
            raise ValueError(f"need 0 < p_min <= p_max, got [{self.p_min}, {self.p_max}]")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
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
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        # ceil() of this is the band count, found without building the bands.
        count = (math.log(self.max) - math.log(self.min)) / math.log1p(self.epsilon)
        if count > MAX_BANDS:
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
    if ts.shape[0] > 1 and not np.all(np.diff(ts) > 0):
        i = int(np.flatnonzero(np.diff(ts) <= 0)[0])
        raise ValueError(
            f"timestamps must be strictly increasing; t[{i}]={ts[i]} >= t[{i + 1}]={ts[i + 1]}"
        )
    return ts


def _longest_chains(tl: list[float], p_min: float, p_max: float, min_len: int) -> list[tuple[float, ...]]:
    # Every longest chain of the increasing times tl whose gaps lie in
    # [p_min, p_max], sorted; none when the longest has fewer than min_len
    # (>= 1) gaps, and then the tied chains are never enumerated.
    n = len(tl)
    if n <= min_len:
        return []
    # Sliding-window DP: dq holds candidate predecessors with non-increasing
    # opt values; a predecessor enters once its gap reaches p_min and leaves
    # once its gap passes p_max.
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

    best = max(opt)
    if best < min_len:
        return []

    def predecessors(i: int) -> list[int]:
        want = opt[i] - 1
        out = []
        j = i - 1
        while j >= 0:
            gap = tl[i] - tl[j]
            if gap > p_max:
                break
            if opt[j] == want and gap >= p_min:
                out.append(j)
            j -= 1
        out.reverse()
        return out

    # Walk the backpointer DAG from every optimal endpoint; each root-to-end
    # path is one tied optimum.
    chains: list[tuple[float, ...]] = []
    for end in [i for i in range(n) if opt[i] == best]:
        stack: list[tuple[int, list[int]]] = [(end, [end])]
        while stack:
            i, tail = stack.pop()
            if opt[i] == 0:
                chains.append(tuple(tl[k] for k in reversed(tail)))
                continue
            preds = predecessors(i)
            if len(preds) == 1:
                tail.append(preds[0])
                stack.append((preds[0], tail))
            else:
                for j in preds:
                    stack.append((j, tail + [j]))
    chains.sort()
    return chains


def _sweep(fragments: list[list[float]], cfg: SweepConfig, min_len: int) -> list[tuple]:
    """``(chain, band)`` of each distinct longest chain, by start, band, chain."""
    # Fragments hold disjoint times, so one table dedupes chains across
    # bands; the lowest band comes first and wins.
    bands = cfg.bands()
    found: dict[tuple[float, ...], tuple[float, float]] = {}
    for frag in fragments:
        for band in bands:
            for c in _longest_chains(frag, *band, min_len):
                found.setdefault(c, band)
    return sorted(found.items(), key=lambda item: (item[0][0], item[1][0], item[0]))


def longest_abs_periodic(t, p_min: float, p_max: float) -> list[PeriodicSubsequence]:
    """All longest subsequences whose consecutive gaps stay in [p_min, p_max].

    Both bounds are inclusive.  Every optimum (tie) is returned, ordered by
    start time, and tagged with the smallest epsilon consistent with the
    band ratio.
    """
    if not 0 < p_min <= p_max:
        raise ValueError(f"need 0 < p_min <= p_max, got [{p_min}, {p_max}]")
    ts = _validate_times(t)
    epsilon = max(p_max / p_min - 1.0, 1e-12)
    return [
        PeriodicSubsequence(timestamps=c, p_min=p_min, p_max=p_max, epsilon=epsilon)
        for c in _longest_chains(ts.tolist(), p_min, p_max, 1)
    ]


def longest_rel_periodic(t, cfg: SweepConfig) -> list[PeriodicSubsequence]:
    """Per-band optima over the whole sweep, deduplicated across bands.

    Each band is solved independently; a subsequence found in two adjacent
    bands (all gaps on the shared edge) is kept once, tagged with the lower
    band.  Results are ordered by start time, then band.
    """
    return [
        PeriodicSubsequence(c, p_min, p_max, cfg.epsilon)
        for c, (p_min, p_max) in _sweep([_validate_times(t).tolist()], cfg, 1)
    ]


def check_min_len(min_len: int) -> None:
    if min_len < 1:
        raise ValueError(f"min_len must be >= 1, got {min_len}")


def segment(peaks: Sequence[Peak], cfg: SweepConfig, min_len: int) -> list[CandidateWindow]:
    """Candidate chewing subsequences from a stream of prominent peaks.

    The peak stream is split wherever consecutive peaks are more than
    cfg.max apart (no band gap can bridge such a break), each fragment is
    swept independently, and candidates shorter than ``min_len`` gaps are
    dropped.  Output is ordered by start time, then band; tied chains over
    one span each give a row.
    """
    check_min_len(min_len)
    times = _validate_times([p.t for p in peaks])
    fragments = np.split(times, np.flatnonzero(np.diff(times) > cfg.max) + 1)
    return [
        CandidateWindow(c[0], c[-1], p_min, p_max, cfg.epsilon, len(c) - 1)
        for c, (p_min, p_max) in _sweep([f.tolist() for f in fragments], cfg, min_len)
    ]


CANDIDATE_HEADER = ("c1_s", "c2_s", "p_min", "p_max", "epsilon", "length")
CANDIDATE_KINDS = "fffffi"


def write_candidate_csv(path: str | Path, candidates: Sequence[CandidateWindow]) -> None:
    write_table(path, CANDIDATE_HEADER, CANDIDATE_KINDS, map(astuple, candidates))


def read_candidate_csv(path: str | Path) -> list[CandidateWindow]:
    return [
        CandidateWindow(*row)
        for row in read_table(path, CANDIDATE_HEADER, CANDIDATE_KINDS).rows()
    ]
