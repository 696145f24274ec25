"""Two-level scoring and the leave-one-subject-out harness.

Predictions are scored against ground truth twice: per second (every whole
second of predicted chewing against every whole second of labeled chewing)
and per episode (interval matching with an overlap-ratio threshold).  The
cross-validation loop holds each participant out in turn, trains on the
rest, and reports per-participant metrics plus their unweighted means.

Empty-side conventions: with no predictions, precision is 0 unless the
truth is empty too (then 1); recall mirrors this.  F1 is the harmonic mean
and is 0 when precision and recall are both 0 -- so F1 is 1 exactly when
prediction and truth agree at that granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .boosting import BoostConfig, TrainedModel, classify_candidates, train
from .config import PipelineConfig, manifest_hash
from .episodes import DbscanConfig, detect_episodes
from .features import SIGNALS, FeatureTable, extract_table, local_hour
from .peaks import find_prominent_peaks
from .periodic import segment
from .records import (
    LabeledInterval,
    Session,
    check_overlap_rule,
    covered_seconds,
    derive_episode_labels,
    disjoint_spans,
    overlap_range,
)
from .signals import DerivedTrace, derive
from .tables import transpose, write_table

REPORT_HEADER = ("participant", "level", "precision", "recall", "f1")
REPORT_KINDS = "ssfff"


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float
    tp: int = 0
    fp: int = 0
    fn: int = 0


def _prf(n_matched_pred: int, n_pred: int, n_matched_truth: int, n_truth: int) -> Metrics:
    if n_pred == 0:
        precision = 1.0 if n_truth == 0 else 0.0
    else:
        precision = n_matched_pred / n_pred
    if n_truth == 0:
        recall = 1.0 if n_pred == 0 else 0.0
    else:
        recall = n_matched_truth / n_truth
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    tp, fp, fn = n_matched_pred, n_pred - n_matched_pred, n_truth - n_matched_truth
    return Metrics(precision, recall, f1, tp, fp, fn)


def per_second_metrics(
    pred_seconds: Iterable[int], truth_intervals: Sequence[LabeledInterval]
) -> Metrics:
    """Fine-grained scoring over whole seconds.  The truth's covered
    seconds are merged into disjoint ranges once, and the distinct predicted
    seconds are counted inside them by one search: O((P + T) log T) for P
    predicted seconds and T labels, however many seconds the labels span."""
    if not isinstance(pred_seconds, np.ndarray):
        pred_seconds = np.fromiter(pred_seconds, dtype=np.int64)
    pred = np.sort(pred_seconds)
    pred = pred[np.diff(pred, prepend=pred[:1] - 1) != 0]  # repeats dropped, the first kept
    floor = int(np.iinfo(np.int64).min)  # an empty range before every second
    starts, stops = [floor], [floor]
    for r in sorted((covered_seconds(iv.start, iv.end) for iv in truth_intervals), key=attrgetter("start")):
        if r.start <= stops[-1]:
            stops[-1] = max(stops[-1], r.stop)
        else:
            starts.append(r.start)
            stops.append(r.stop)
    tp = int(np.count_nonzero(pred < np.array(stops)[np.searchsorted(starts, pred, "right") - 1]))
    return _prf(tp, pred.size, tp, sum(stops) - sum(starts))


def per_episode_metrics(
    pred: Sequence[LabeledInterval],
    truth: Sequence[LabeledInterval],
    overlap_threshold: float = PipelineConfig.episode_overlap_threshold,
    base: str = PipelineConfig.episode_overlap_base,
) -> Metrics:
    """Coarse scoring: a pair matches when its positive overlap reaches the
    threshold fraction of the base duration (ground-truth episode duration
    by default).  Many-to-one matches are allowed; each truth episode counts
    once for recall.  Both sides must be disjoint, so each prediction meets
    only the truth episodes in its overlap range: O((pred + truth) log truth).
    """
    check_overlap_rule(overlap_threshold, base)
    pred_spans = disjoint_spans(((iv.start, iv.end) for iv in pred), "predicted intervals")
    truth_spans = disjoint_spans(((iv.start, iv.end) for iv in truth), "truth intervals")
    first, last = overlap_range(truth_spans, *np.reshape(pred_spans, (-1, 2)).T)
    hits = []
    for i, (p0, p1) in enumerate(pred_spans):
        for j in range(first[i], last[i]):
            t0, t1 = truth_spans[j]
            ov = min(p1, t1) - max(p0, t0)
            ref = {"truth": t1 - t0, "pred": p1 - p0, "min": min(p1 - p0, t1 - t0)}[base]
            if ov > 0 and ov >= overlap_threshold * ref:
                hits.append((i, j))
    tp, detected = len({i for i, _ in hits}), len({j for _, j in hits})
    return _prf(tp, len(pred_spans), detected, len(truth_spans))


@dataclass(frozen=True)
class ParticipantScore:
    participant: str
    second: Metrics
    episode: Metrics
    flags: tuple[str, ...] = ()


def score_rows(scores: Iterable[ParticipantScore]) -> Iterator[tuple]:
    """The rows of every report: (participant, level, metrics, flags), second level first."""
    for s in scores:
        yield s.participant, "second", s.second, s.flags
        yield s.participant, "episode", s.episode, s.flags


@dataclass(frozen=True)
class EvalReport:
    """Per-participant scores plus unweighted (macro) averages.

    Average metrics carry macro-mean precision/recall/F1 and summed
    confusion counts.  ``manifest`` snapshots the configuration that
    produced the report; its hash identifies reproducible runs.
    """

    scores: tuple[ParticipantScore, ...]
    manifest: tuple[tuple[str, str], ...] = ()

    @property
    def second_avg(self) -> Metrics:
        return _macro([s.second for s in self.scores])

    @property
    def episode_avg(self) -> Metrics:
        return _macro([s.episode for s in self.scores])

    def entries(self) -> list[ParticipantScore]:
        """The per-participant scores, then the AVERAGE row, flagged with how many carry a flag."""
        flagged = f"flagged {sum(1 for s in self.scores if s.flags)}/{len(self.scores)}"
        return [*self.scores, ParticipantScore("AVERAGE", self.second_avg, self.episode_avg, (flagged,))]

    def to_csv_rows(self) -> list[list[str]]:
        return [list(REPORT_HEADER)] + [
            [pid, level, repr(m.precision), repr(m.recall), repr(m.f1)]
            for pid, level, m, _ in score_rows(self.entries())
        ]

    def to_text(self) -> str:
        lines = [f"{'participant':<14}{'level':<10}{'prec':>8}{'recall':>8}{'f1':>8}  flags"]
        lines += [
            f"{pid:<14}{level:<10}{m.precision:>8.3f}{m.recall:>8.3f}{m.f1:>8.3f}  {','.join(flags)}"
            for pid, level, m, flags in score_rows(self.entries())
        ]
        if self.manifest:
            lines.append(f"config hash: {manifest_hash(list(self.manifest))}")
        return "\n".join(lines)


def _macro(ms: Sequence[Metrics]) -> Metrics:
    if not ms:
        return Metrics(0.0, 0.0, 0.0)
    return Metrics(
        precision=float(np.mean([m.precision for m in ms])),
        recall=float(np.mean([m.recall for m in ms])),
        f1=float(np.mean([m.f1 for m in ms])),
        tp=sum(m.tp for m in ms),
        fp=sum(m.fp for m in ms),
        fn=sum(m.fn for m in ms),
    )


# ---------------------------------------------------------------------------
# Pipeline plumbing: raw session -> candidates/features -> predictions.
# ---------------------------------------------------------------------------


def session_candidates(
    session: Session,
    cfg: PipelineConfig,
    signals: Sequence[str] = SIGNALS,
) -> tuple[list, FeatureTable]:
    """Run segmentation + feature extraction for one session."""
    trace = derive(session)
    pks = find_prominent_peaks(trace.prox, trace.t, cfg.min_prominence)
    cands = segment(pks, cfg.sweep(), cfg.min_len)
    return cands, featurize(trace, cands, session.participant, session.chew_labels(), cfg, signals)


def featurize(
    trace: DerivedTrace,
    cands: Sequence,
    participant: str,
    chews: Sequence[LabeledInterval] | None,
    cfg: PipelineConfig,
    signals: Sequence[str] = SIGNALS,
) -> FeatureTable:
    """The feature table of one trace's candidates, labeled from ``chews``
    (unlabeled, -1, when ``chews`` is None), over a non-empty ``signals``."""
    return extract_table(
        trace,
        cands,
        local_hour(cfg.tz_offset_s),
        participant,
        chews=chews,
        signals=tuple(signals),
        min_prominence=cfg.min_prominence,
        sample_rate_hz=cfg.sample_rate_hz,
        label_min_overlap=cfg.candidate_label_min_overlap,
    )


def predict_session(
    model: TrainedModel,
    cands: Sequence,
    table: FeatureTable,
    dbscan_cfg: DbscanConfig,
    threshold: float,
    delta: float,
) -> tuple[np.ndarray, list[LabeledInterval]]:
    """Classifier output -> scored seconds and merged predicted episodes."""
    judged = classify_candidates(model, cands, table.X, threshold, table.names)
    positives = [c for c, positive, _ in judged if positive]
    participant = table.participant[0] if table.participant else ""
    return detect_episodes(positives, dbscan_cfg, delta, participant)


def score_participant(
    scores: np.ndarray,
    episodes: Sequence[LabeledInterval],
    session: Session,
    cfg: PipelineConfig,
    flags: Sequence[str] = (),
) -> ParticipantScore:
    return score_chews(session.participant, scores, episodes, session.chew_labels(), cfg, flags)


def score_chews(
    participant: str,
    scores: np.ndarray,
    episodes: Sequence[LabeledInterval],
    chews: Sequence[LabeledInterval],
    cfg: PipelineConfig,
    flags: Sequence[str] = (),
) -> ParticipantScore:
    """Both metric levels of one participant's predictions against its chews."""
    truth_episodes = derive_episode_labels(chews, cfg.delta) if chews else []
    second = per_second_metrics(scores[:, 0], chews)
    episode = per_episode_metrics(
        list(episodes),
        truth_episodes,
        cfg.episode_overlap_threshold,
        cfg.episode_overlap_base,
    )
    return ParticipantScore(
        participant=participant, second=second, episode=episode, flags=tuple(flags)
    )


def train_fold(
    tables: Sequence[FeatureTable],
    boost_cfg: BoostConfig,
) -> TrainedModel:
    """Train one fold's model from the training participants' tables only."""
    if not tables:
        raise ValueError("no training tables")
    names = tables[0].names
    for tb in tables:
        if tb.names != names:
            raise ValueError("feature layouts differ across training tables")
    X = np.vstack([tb.X for tb in tables])
    y = np.concatenate([tb.label for tb in tables])
    if np.any(y < 0):
        raise ValueError("training tables contain unlabeled candidates")
    return train(X, y, boost_cfg, names)


# One participant's (session, candidates, feature table).
_Prepared = tuple[Session, list, FeatureTable]


def _prepare_all(
    sessions: Sequence[Session], cfg: PipelineConfig, signals: Sequence[str] = SIGNALS
) -> list[_Prepared]:
    return [(session, *session_candidates(session, cfg, signals)) for session in sessions]


def _evaluate_one(
    model: TrainedModel,
    item: _Prepared,
    dbscan_cfg: DbscanConfig,
    cfg: PipelineConfig,
    flags: Sequence[str] = (),
) -> ParticipantScore:
    session, cands, table = item
    flags = [*flags] if model.trees else [*flags, "zero_trees"]
    if not cands:
        flags.append("no_candidates")
    if not session.chew_labels():
        flags.append("no_truth")
    scores, episodes = predict_session(
        model, cands, table, dbscan_cfg, cfg.threshold, cfg.delta
    )
    return score_participant(scores, episodes, session, cfg, flags)


def losocv(
    sessions: Sequence[Session],
    boost_grid: Sequence[BoostConfig] | None = None,
    dbscan_grid: Sequence[DbscanConfig] | None = None,
    cfg: PipelineConfig = PipelineConfig(),
    signals: Sequence[str] = SIGNALS,
) -> EvalReport:
    """Leave-one-subject-out evaluation with optional inner grid selection.

    Each fold trains on every other participant.  With more than one grid
    point, the point is chosen by a nested leave-one-out over the training
    participants only (mean of the two F1 levels; ties keep grid order), so
    the held-out participant never influences its own fold.  An inner fold
    whose training labels hold one class has no vote; a fold where no point
    gets one uses the first point and is flagged ``no_grid_vote``.
    """
    participants = [s.participant for s in sessions]
    if len(participants) != len(set(participants)):
        raise ValueError("duplicate participant ids across sessions")
    if len(sessions) < 2:
        raise ValueError(f"LOSOCV needs at least 2 participants, got {len(sessions)}")
    boost_grid = list(boost_grid) if boost_grid else [cfg.boost()]
    dbscan_grid = list(dbscan_grid) if dbscan_grid else [cfg.dbscan()]
    grid = [(b, d) for b in boost_grid for d in dbscan_grid]

    prepared = _prepare_all(sessions, cfg, signals)
    models: dict[tuple, TrainedModel | None] = {}
    scores: list[ParticipantScore] = []
    for held_idx, held in enumerate(prepared):
        train_items = [p for i, p in enumerate(prepared) if i != held_idx]
        chosen = grid[0]
        if len(grid) > 1 and len(train_items) >= 2:
            chosen = _select_grid_point(train_items, grid, cfg, models)
        flags = [] if chosen else ["no_grid_vote"]
        boost_cfg, dbscan_cfg = chosen or grid[0]
        model = train_fold([table for _, _, table in train_items], boost_cfg)
        scores.append(_evaluate_one(model, held, dbscan_cfg, cfg, flags))
    return EvalReport(scores=tuple(scores), manifest=tuple(cfg.manifest_items()))


def _select_grid_point(
    train_items: Sequence[_Prepared],
    grid: Sequence[tuple[BoostConfig, DbscanConfig]],
    cfg: PipelineConfig,
    models: dict[tuple, TrainedModel | None],
) -> tuple[BoostConfig, DbscanConfig] | None:
    best_score, best = -1.0, None
    # One model per (boost config, inner training tables), shared by its DBSCAN
    # points and across outer folds: holding out h then i trains as i then h.
    for point in grid:
        boost_cfg, dbscan_cfg = point
        fold_scores = []
        for inner_idx, inner_held in enumerate(train_items):
            inner_train = [t for i, (_, _, t) in enumerate(train_items) if i != inner_idx]
            key = (boost_cfg, tuple(map(id, inner_train)))
            if key not in models:
                classes = np.unique(np.concatenate([t.label for t in inner_train]))
                models[key] = train_fold(inner_train, boost_cfg) if classes.size > 1 else None
            if models[key] is None:
                continue
            ps = _evaluate_one(models[key], inner_held, dbscan_cfg, cfg)
            fold_scores.append((ps.second.f1 + ps.episode.f1) / 2.0)
        if fold_scores:
            mean_score = float(np.mean(fold_scores))
            if mean_score > best_score:
                best_score = mean_score
                best = point
    return best


def ablate_sensors(
    sessions: Sequence[Session],
    sensors: Sequence[str],
    boost_grid: Sequence[BoostConfig] | None = None,
    dbscan_grid: Sequence[DbscanConfig] | None = None,
    cfg: PipelineConfig = PipelineConfig(),
) -> EvalReport:
    """LOSOCV with features restricted to a sensor subset.

    Proximity must stay in the subset: segmentation runs on it.
    """
    sensors = tuple(sensors)
    if not sensors:
        raise ValueError("sensor subset must be non-empty")
    if "prox" not in sensors:
        raise ValueError("sensor subset must include 'prox'; segmentation needs it")
    return losocv(sessions, boost_grid, dbscan_grid, cfg, signals=sensors)


def write_scores_csv(path: str | Path, scores: Sequence[ParticipantScore]) -> None:
    """The report table: one row per participant and metric level."""
    rows = ((pid, level, m.precision, m.recall, m.f1) for pid, level, m, _ in score_rows(scores))
    write_table(path, REPORT_HEADER, REPORT_KINDS, transpose(rows, len(REPORT_KINDS)))
