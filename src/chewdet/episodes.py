"""From positive candidates to predicted eating episodes.

Positive candidate subsequences are first flattened into scored seconds, an
``(S, 2)`` int64 array of ``(second, count)`` rows sorted by second: count
(>= 1) candidates cover that whole second by the ``covered_seconds`` rule
that counts ground truth.  An endpoint sweep builds it (+1 at each covered
range's start, -1 at its stop, one sort and a running sum) in O(C log C + S)
for C candidates and S scored seconds.  A 1-D DBSCAN then drops isolated or
sparse detections as noise, and the surviving clusters are merged into
episode intervals with the gap rule that derives ground-truth episodes.

The DBSCAN here exploits sorted 1-D input: neighborhoods are contiguous
index windows, so core flags come from prefix sums and clusters from a
single left-to-right pass, O(S log S) in the scored seconds.  Border points
reachable from two clusters join the leftmost one, matching a textbook
implementation that scans points in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .records import IntervalKind, LabeledInterval, check_range, covered_seconds, episode_intervals
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
    """The scored seconds of the positive candidates, by the endpoint sweep.

    A candidate scores the seconds ``covered_seconds`` gives it, the rule
    that counts ground truth: those sharing positive measure with its span,
    so a candidate ending exactly on a whole second does not score it.
    """
    ranges = [covered_seconds(c.c1, c.c2) for c in positives]
    edges = np.array([r.start for r in ranges] + [r.stop for r in ranges], dtype=np.int64)
    order = np.argsort(edges, kind="stable")
    edges = edges[order]
    counts = np.cumsum(np.repeat([1, -1], len(ranges))[order])[:-1]
    # counts[i] covers [edges[i], edges[i + 1]); the runs counted at least once expand to seconds.
    lengths = np.where(counts > 0, np.diff(edges), 0)
    seconds = np.repeat(edges[:-1] + lengths - np.cumsum(lengths), lengths) + np.arange(lengths.sum())
    return np.column_stack([seconds, np.repeat(counts, lengths)])


def cluster(scores: np.ndarray, cfg: DbscanConfig) -> list[tuple[int, ...]]:
    """DBSCAN over scored seconds, the ``(second, count)`` rows of
    ``score_seconds``; returns clusters as sorted second tuples.

    With ``use_score_weight`` set, a neighbor contributes its count to the
    neighborhood mass instead of counting once; the point itself is part of
    its own neighborhood either way.  Noise points are dropped.  Array work
    only: O(S log S) in the scored seconds.
    """
    seconds, counts = scores.T
    if not np.all(np.diff(seconds) > 0):
        raise ValueError("scores must be sorted by second with no duplicates")
    if not np.all(counts >= 1):
        raise ValueError(f"scores are counts >= 1, got {counts.min()}")
    pts = seconds.astype(float)
    weights = counts.astype(float) if cfg.use_score_weight else np.ones(pts.size)
    lo = np.searchsorted(pts, pts - cfg.eps, side="left")
    hi = np.searchsorted(pts, pts + cfg.eps, side="right")
    prefix = np.concatenate([[0.0], np.cumsum(weights)])
    mass = prefix[hi] - prefix[lo]
    core = mass >= cfg.min_pts

    core_idx = np.flatnonzero(core)
    if core_idx.size == 0:
        return []
    # Chains of cores within eps of each other form the cluster spines; a
    # border point joins the spine of the leftmost core within eps, if any.
    core_pos = pts[core_idx]
    spine = np.concatenate([[0], np.cumsum(np.diff(core_pos) > cfg.eps)])
    k = np.searchsorted(core_pos, pts - cfg.eps, side="left")
    near = np.append(core_pos, np.inf)[k] - pts <= cfg.eps
    label = np.where(near, np.append(spine, -1)[k], -1)
    label[core_idx] = spine
    members = np.flatnonzero(label >= 0)
    order = members[np.argsort(label[members], kind="stable")]
    bounds = np.cumsum(np.bincount(label[members]))[:-1]
    return [tuple(c.tolist()) for c in np.split(seconds[order], bounds)]


def episodes_from_clusters(
    clusters: Sequence[Sequence[int]], delta: float, participant: str = ""
) -> list[LabeledInterval]:
    """Clusters of seconds -> episode intervals, merging gaps <= delta; spans must be disjoint."""
    spans = []
    for members in clusters:
        if not members:
            raise ValueError("empty cluster")
        spans.append((float(min(members)), float(max(members)) + 1.0))
    return episode_intervals(spans, delta, participant)


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
