"""From positive candidates to predicted eating episodes.

Positive candidate subsequences are first flattened into per-second scores
(how many candidates cover each whole second, by the ``covered_seconds`` rule
that counts ground truth), then clustered with a 1-D DBSCAN so isolated or
sparse detections drop out as noise, and finally the surviving clusters are
merged into episode intervals with the same gap rule used to derive
ground-truth episodes.

The DBSCAN here exploits sorted 1-D input: neighborhoods are contiguous
index windows, so core flags come from prefix sums and clusters from a
single left-to-right pass.  Border points reachable from two clusters join
the leftmost one, matching a textbook implementation that scans points in
ascending order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .records import IntervalKind, LabeledInterval, check_range, covered_seconds, episode_intervals
from .tables import read_table, transpose, write_table


@dataclass(frozen=True)
class SecondScore:
    """One scored second: how many positive candidates cover it."""

    second: int
    score: int

    def __post_init__(self) -> None:
        if self.score < 1:
            raise ValueError(f"scores are counts >= 1, got {self.score}")


@dataclass(frozen=True)
class DbscanConfig:
    eps: float = 30.0
    min_pts: int = 15
    use_score_weight: bool = True

    def __post_init__(self) -> None:
        check_range("eps", self.eps, "(0, inf)")
        check_range("min_pts", self.min_pts, "[1, inf)")


def score_seconds(positives: Sequence) -> list[SecondScore]:
    """Per-second overlap counts over all positive candidates, sorted.

    A candidate scores the seconds ``covered_seconds`` gives it, the rule
    that counts ground truth: those sharing positive measure with its span,
    so a candidate ending exactly on a whole second does not score it.
    """
    counts: Counter[int] = Counter()
    for cand in positives:
        counts.update(covered_seconds(cand.c1, cand.c2))
    return [SecondScore(second=s, score=counts[s]) for s in sorted(counts)]


def cluster(scores: Sequence[SecondScore], cfg: DbscanConfig) -> list[tuple[int, ...]]:
    """DBSCAN over scored seconds; returns clusters as sorted second tuples.

    With ``use_score_weight`` set, a neighbor contributes its score to the
    neighborhood mass instead of counting once; the point itself is part of
    its own neighborhood either way.  Noise points are dropped.  Array work
    only: O(n log n) in the scored seconds.
    """
    if not scores:
        return []
    pts = np.array([s.second for s in scores], dtype=float)
    if not np.all(np.diff(pts) > 0):
        raise ValueError("scores must be sorted by second with no duplicates")
    weights = (
        np.array([s.score for s in scores], dtype=float)
        if cfg.use_score_weight
        else np.ones(len(scores))
    )
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
    return [tuple(c.tolist()) for c in np.split(pts[order].astype(int), bounds)]


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
) -> tuple[list[SecondScore], list[LabeledInterval]]:
    """Positive candidates -> scored seconds and merged predicted episodes."""
    scores = score_seconds(positives)
    return scores, episodes_from_clusters(cluster(scores, dbscan_cfg), delta, participant)


EPISODE_HEADER = ("participant", "start_s", "end_s", "n_seconds", "peak_score")
EPISODE_KINDS = "sffii"


def write_episode_csv(
    path: str | Path,
    episodes: Sequence[LabeledInterval],
    scores: Sequence[SecondScore],
) -> None:
    by_second = {s.second: s.score for s in scores}
    rows = []
    for ep in episodes:
        covered = [by_second[s] for s in covered_seconds(ep.start, ep.end) if s in by_second]
        rows.append((ep.participant, ep.start, ep.end, len(covered), max(covered, default=0)))
    write_table(path, EPISODE_HEADER, EPISODE_KINDS, transpose(rows, len(EPISODE_KINDS)))


def read_episode_csv(path: str | Path) -> list[LabeledInterval]:
    return read_table(path, EPISODE_HEADER, EPISODE_KINDS).rows(
        lambda pid, start, end, _n, _peak: LabeledInterval(start, end, IntervalKind.EPISODE, pid)
    )
