"""From positive candidates to predicted eating episodes.

Positive candidate subsequences are first flattened into scored seconds, an
``(S, 2)`` int64 array of ``(second, count)`` rows sorted by second: count
(>= 1) candidates cover that whole second by the ``covered_seconds`` rule
that counts ground truth.  It is the runs of ``records.covered_runs``, the
endpoint sweep that also counts the truth, expanded: O(C log C + S) for C
candidates and S scored seconds.  A 1-D DBSCAN then drops isolated or
sparse detections as noise, and the surviving clusters are merged into
episode intervals with the gap rule that derives ground-truth episodes.

The DBSCAN here exploits sorted 1-D whole seconds: neighborhoods are
contiguous index windows, so core flags come from prefix sums, and a
cluster is the span of its spine (a run of cores within floor(eps) of each
other) widened by floor(eps), handed on as its ``(first, last)`` scored
second: O(S log S) time with a few S-sized arrays.  Border points reachable
from two clusters join the leftmost one, matching a textbook implementation
that scans points in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .records import IntervalKind, LabeledInterval, check_range, covered_runs, covered_seconds, episode_intervals
from .tables import read_table, transpose, write_table


@dataclass(frozen=True)
class DbscanConfig:
    eps: float = 30.0
    min_pts: int = 15
    use_score_weight: bool = True

    def __post_init__(self) -> None:
        check_range("eps", self.eps, "(0, inf)")
        check_range("min_pts", self.min_pts, "[1, inf)")


def score_seconds(positives: Sequence) -> np.ndarray:
    """The scored seconds of the positive candidates: ``covered_runs`` expanded.

    A candidate scores the seconds ``covered_seconds`` gives it, the rule
    that counts ground truth: those sharing positive measure with its span,
    so a candidate ending exactly on a whole second does not score it.
    Candidates that together cover 2**63 seconds or more are refused.
    """
    starts, stops, counts = covered_runs(((c.c1, c.c2) for c in positives), "candidate")
    lengths = stops - starts
    if (total := sum(lengths.tolist())) >= 2**63:
        raise ValueError(f"candidates together cover {total} seconds, 2**63 or more: outside int64")
    seconds = np.repeat(starts + lengths - np.cumsum(lengths), lengths) + np.arange(total)
    return np.column_stack([seconds, np.repeat(counts, lengths)])


def cluster(scores: np.ndarray, cfg: DbscanConfig) -> list[tuple[int, int]]:
    """DBSCAN over scored seconds, the ``(second, count)`` rows of
    ``score_seconds``; returns each cluster as its ``(first, last)`` scored
    second, in ascending order.

    With ``use_score_weight`` set, a neighbor contributes its count to the
    neighborhood mass instead of counting once; the point itself is part of
    its own neighborhood either way.  Seconds are whole, so they are within
    eps exactly when within floor(eps).  A cluster is the span of its spine
    (a run of cores within floor(eps) of each other) widened by floor(eps),
    less what the previous cluster reaches.  Noise points are dropped.
    O(S log S) in the scored seconds, with a few S-sized arrays.
    """
    seconds, counts = scores.T
    if not np.all(np.diff(seconds) > 0):
        raise ValueError("scores must be sorted by second with no duplicates")
    if not np.all(counts >= 1):
        raise ValueError(f"scores are counts >= 1, got {counts.min()}")
    pts = seconds.astype(float)
    e = np.floor(cfg.eps)
    lo = np.searchsorted(pts, pts - e, side="left")
    hi = np.searchsorted(pts, pts + e, side="right")
    prefix = np.concatenate([[0], np.cumsum(counts if cfg.use_score_weight else np.ones_like(counts))])
    cores = pts[prefix[hi] - prefix[lo] >= cfg.min_pts]
    firsts = cores[np.diff(cores, prepend=-np.inf) > e]
    lasts = cores[np.diff(cores, append=np.inf) > e]
    # A border point joins the leftmost cluster: one within e of the previous spine is not ours.
    starts = np.maximum(firsts - e, np.append(-np.inf, lasts[:-1] + e + 1))
    first = np.searchsorted(pts, starts, side="left")
    last = np.searchsorted(pts, lasts + e, side="right") - 1
    return list(zip(seconds[first].tolist(), seconds[last].tolist()))


def episodes_from_clusters(
    clusters: Sequence[tuple[int, int]], delta: float, participant: str = ""
) -> list[LabeledInterval]:
    """``(first, last)`` clusters -> episode intervals, merging gaps <= delta; spans must be disjoint."""
    return episode_intervals(((first, last + 1.0) for first, last in clusters), delta, participant)


def detect_episodes(
    positives: Sequence, dbscan_cfg: DbscanConfig, delta: float, participant: str = ""
) -> tuple[np.ndarray, list[LabeledInterval]]:
    """Positive candidates -> scored seconds and merged predicted episodes."""
    scores = score_seconds(positives)
    return scores, episodes_from_clusters(cluster(scores, dbscan_cfg), delta, participant)


EPISODE_HEADER = ("participant", "start_s", "end_s", "n_seconds", "peak_score")
EPISODE_KINDS = "sffii"


def write_episode_csv(
    path: str | Path,
    episodes: Sequence[LabeledInterval],
    scores: np.ndarray,
) -> None:
    """One row per episode: the scored seconds it covers and their highest count."""
    seconds, counts = scores.T
    covered = [covered_seconds(ep.start, ep.end) for ep in episodes]
    firsts = np.searchsorted(seconds, [r.start for r in covered])
    stops = np.searchsorted(seconds, [r.stop for r in covered])
    rows = [(ep.participant, ep.start, ep.end, int(hi - lo), int(counts[lo:hi].max(initial=0)))
            for ep, lo, hi in zip(episodes, firsts, stops)]
    write_table(path, EPISODE_HEADER, EPISODE_KINDS, transpose(rows, len(EPISODE_KINDS)))


def read_episode_csv(path: str | Path) -> list[LabeledInterval]:
    return read_table(path, EPISODE_HEADER, EPISODE_KINDS).rows(
        lambda pid, start, end, _n, _peak: LabeledInterval(start, end, IntervalKind.EPISODE, pid)
    )
