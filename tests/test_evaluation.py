import time
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chewdet import evaluation
from chewdet.boosting import BoostConfig
from chewdet.episodes import score_seconds
from chewdet.evaluation import (
    EvalReport,
    Metrics,
    ParticipantScore,
    ablate_sensors,
    featurize,
    losocv,
    per_episode_metrics,
    per_second_metrics,
    score_chews,
    session_candidates,
    train_fold,
    write_scores_csv,
)
from chewdet.features import FeatureTable
from chewdet.periodic import CandidateWindow
from chewdet.records import IntervalKind, LabeledInterval, derive_episode_labels
from chewdet.signals import derive
from chewdet.synthetic import generate
from conftest import quick_config, two_meal_scenario
from oracles import naive_per_episode_metrics, set_per_second_metrics


def episode(start, end, participant="P1"):
    return LabeledInterval(start, end, IntervalKind.EPISODE, participant)


def chew(start, end, participant="P1"):
    return LabeledInterval(start, end, IntervalKind.CHEW, participant)


def _chain(parts):
    # (gap, length) pairs -> disjoint episodes; a zero gap touches.
    out, t = [], 0.0
    for gap, length in parts:
        out.append(episode(t + gap, t + gap + length))
        t = out[-1].end
    return out


_gaps = st.integers(0, 8).map(lambda k: k / 2) | st.floats(0.0, 5.0)
_lengths = st.integers(1, 12).map(lambda k: k / 2) | st.floats(0.01, 8.0)
_episodes = st.lists(st.tuples(_gaps, _lengths), max_size=8).map(_chain)
# Chews on a quarter-second grid nest, touch and fall inside one second;
# some starts and lengths are any float.
_quarters = st.integers(-8, 80).map(lambda k: k / 4) | st.floats(-2.0, 20.0)
_chews = st.lists(
    st.tuples(_quarters, st.integers(1, 40).map(lambda k: k / 4) | st.floats(0.01, 10.0)), max_size=8
).map(lambda spans: [chew(a, a + d) for a, d in spans if a + d > a])


class TestPerSecond:
    def test_perfect_agreement(self):
        m = per_second_metrics(set(range(100)), [chew(0, 100)])
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_exact_agreement_scores_one(self):
        # Positives whose union is the chews, one ending on a whole second:
        # predicted seconds are counted by the rule that counts the truth.
        chews = [chew(10.0, 20.0), chew(30.5, 41.25)]
        spans = [(10.0, 15.5), (15.5, 20.0), (30.5, 41.25)]
        positives = [CandidateWindow(c1, c2, 0.5, 0.6, 0.2, 5) for c1, c2 in spans]
        cfg = quick_config()
        episodes = derive_episode_labels(chews, cfg.delta)
        score = score_chews("P1", score_seconds(positives), episodes, chews, cfg)
        assert (score.second.f1, score.episode.f1) == (1.0, 1.0)

    def test_half_coverage(self):
        m = per_second_metrics(set(range(50)), [chew(0, 100)])
        assert m.precision == 1.0
        assert m.recall == 0.5
        assert m.f1 == pytest.approx(2 / 3)

    def test_half_precision_half_recall(self):
        pred = set(range(0, 50)) | set(range(200, 250))
        m = per_second_metrics(pred, [chew(0, 100)])
        assert (m.precision, m.recall, m.f1) == (0.5, 0.5, 0.5)

    def test_empty_prediction_conventions(self):
        with_truth = per_second_metrics(set(), [chew(0, 10)])
        assert (with_truth.precision, with_truth.recall, with_truth.f1) == (0.0, 0.0, 0.0)
        both_empty = per_second_metrics(set(), [])
        assert (both_empty.precision, both_empty.recall, both_empty.f1) == (1.0, 1.0, 1.0)

    def test_empty_truth_with_predictions(self):
        m = per_second_metrics({1, 2}, [])
        assert (m.precision, m.recall) == (0.0, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.integers(-4, 24)), _chews)
    def test_matches_set_oracle(self, pred, chews):
        assert per_second_metrics(pred, chews) == set_per_second_metrics(pred, chews)

    def test_label_length_costs_nothing(self):
        # A 1e8 s chew spans 1e8 seconds, which a set of truth seconds would
        # hold one by one; covered_runs holds two runs.
        start = time.perf_counter()
        m = per_second_metrics(range(100), [chew(0, 50), chew(10, 1e8), chew(2e8, 2e8 + 0.5)])
        assert time.perf_counter() - start < 1.0
        assert (m.tp, m.fp, m.fn) == (100, 0, 1e8 + 1 - 100)

    def test_label_longer_than_2_63_seconds_refused(self):
        # Its ends lie inside int64 but its 10**19 covered seconds do not: the
        # label is refused, and so is a candidate on the same span.
        with pytest.raises(ValueError, match=r"^chew label \[-5e\+18, 5e\+18\] covers seconds outside int64$"):
            per_second_metrics([0, 1], [chew(-5e18, 5e18)])
        with pytest.raises(ValueError, match=r"^candidate \[-5e\+18, 5e\+18\] covers seconds outside int64$"):
            score_seconds([CandidateWindow(-5e18, 5e18, 0.5, 0.6, 0.2, 5)])

    def test_label_past_int64_seconds_refused(self):
        # Refused by the rule that refuses such a prediction, not scored as 2**63 seconds.
        with pytest.raises(ValueError, match=r"^chew label \[-1e\+19, 5\] covers seconds outside int64$"):
            per_second_metrics(range(10), [chew(-1e19, 5)])

    def test_translation_invariance(self):
        pred = set(range(10, 60))
        truth = [chew(5, 55)]
        base = per_second_metrics(pred, truth)
        moved = per_second_metrics(
            {s + 4096 for s in pred}, [chew(5 + 4096, 55 + 4096)]
        )
        assert base == moved


class TestPerEpisode:
    def test_identical_lists(self):
        eps = [episode(0, 100), episode(500, 700)]
        m = per_episode_metrics(eps, eps)
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_half_overlap_counts_at_default_threshold(self):
        # 50 s of a 100 s truth episode: ratio is exactly 0.5 and >= wins.
        m = per_episode_metrics([episode(0, 50)], [episode(0, 100)])
        assert m.recall == 1.0
        assert m.precision == 1.0

    def test_spurious_prediction_is_false_positive(self):
        m = per_episode_metrics(
            [episode(0, 100), episode(500, 600)], [episode(0, 100)]
        )
        assert m.precision == 0.5
        assert m.recall == 1.0
        assert m.f1 == pytest.approx(2 / 3)

    def test_zero_overlap_never_matches(self):
        m = per_episode_metrics([episode(200, 300)], [episode(0, 100)], overlap_threshold=0.0)
        assert m.precision == 0.0
        assert m.recall == 0.0

    def test_overlapping_predictions_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            per_episode_metrics([episode(0, 100), episode(50, 150)], [episode(0, 100)])

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(1)
        pred, truth = [], []
        t = 0.0
        for _ in range(12):
            start = t + float(rng.uniform(0, 50))
            dur = float(rng.uniform(20, 120))
            truth.append(episode(start, start + dur))
            shift = float(rng.uniform(-30, 30))
            pred.append(episode(start + shift, start + shift + dur * float(rng.uniform(0.4, 1.2))))
            t = max(truth[-1].end, pred[-1].end) + 10.0
        previous = None
        for thr in np.linspace(0.0, 1.0, 11):
            m = per_episode_metrics(pred, truth, overlap_threshold=float(thr))
            if previous is not None:
                assert m.precision <= previous.precision + 1e-12
                assert m.recall <= previous.recall + 1e-12
            previous = m

    @settings(max_examples=400, deadline=None)
    @given(
        pred=_episodes,
        truth=_episodes,
        threshold=st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0),
        base=st.sampled_from(["truth", "pred", "min"]),
    )
    def test_matches_all_pairs_oracle(self, pred, truth, threshold, base):
        expected = naive_per_episode_metrics(pred, truth, threshold, base)
        assert per_episode_metrics(pred[::-1], truth, threshold, base) == expected

    def test_day_scale_is_not_quadratic(self):
        truth = [episode(10.0 * i, 10.0 * i + 6.0) for i in range(20_000)]
        pred = [episode(10.0 * i + 3.0, 10.0 * i + 8.0) for i in range(20_000)]
        t0 = time.perf_counter()
        m = per_episode_metrics(pred, truth)
        assert time.perf_counter() - t0 < 2.0
        assert (m.tp, m.fp, m.fn) == (20_000, 0, 0)

    def test_base_variants(self):
        # Long prediction over a short truth: full truth coverage but only
        # a sliver of the prediction.
        pred = [episode(0, 1000)]
        truth = [episode(0, 100)]
        by_truth = per_episode_metrics(pred, truth, base="truth")
        assert by_truth.recall == 1.0
        by_pred = per_episode_metrics(pred, truth, base="pred")
        assert by_pred.recall == 0.0
        by_min = per_episode_metrics(pred, truth, base="min")
        assert by_min.recall == 1.0

    def test_many_to_one_counts_truth_once(self):
        # Both halves clear the 50 s bar against the one 100 s truth
        # episode: two TP predictions, one detected truth.
        pred = [episode(0, 50), episode(50, 100)]
        truth = [episode(0, 100)]
        m = per_episode_metrics(pred, truth)
        assert m.recall == 1.0
        assert m.precision == 1.0
        assert m.tp == 2
        assert m.fn == 0


class TestPipeline:
    def test_candidates_and_labels_on_clean_session(self, clean_sessions):
        cfg = quick_config()
        session = clean_sessions[0]
        cands, table = session_candidates(session, cfg)
        assert len(cands) == len(table)
        assert len(table.names) == 257
        labels = table.label
        assert set(labels.tolist()) == {0, 1}  # talking gives negatives

    def test_losocv_on_identical_clean_participants(self, clean_sessions):
        cfg = quick_config()
        report = losocv(clean_sessions, cfg=cfg)
        assert report.second_avg.f1 == pytest.approx(1.0)
        assert report.episode_avg.f1 == pytest.approx(1.0)

    def test_losocv_requires_two_participants(self, clean_sessions):
        with pytest.raises(ValueError, match="at least 2"):
            losocv(clean_sessions[:1], cfg=quick_config())

    def test_losocv_refuses_a_repeated_participant(self, clean_sessions):
        sessions = (s for s in clean_sessions[:1] * 2)
        with pytest.raises(ValueError, match="^duplicate participant ids across sessions$"):
            losocv(sessions, cfg=quick_config())

    def test_losocv_holds_one_session_at_a_time(self):
        # Each session is featurized and dropped before the next one is built,
        # so a generator of whole days costs one day's frames at a time.
        refs, most = [], 0

        def sessions():
            nonlocal most
            for k, pid in enumerate(("G1", "G2", "G3")):
                session, _ = generate(two_meal_scenario(seed=300 + k, participant=pid))
                refs.append(weakref.ref(session))
                most = max(most, sum(ref() is not None for ref in refs))
                yield session
                del session

        report = losocv(sessions(), cfg=quick_config())
        assert [s.participant for s in report.scores] == ["G1", "G2", "G3"]
        assert most == 1

    def test_generator_and_list_give_the_same_report(self, clean_sessions):
        cfg = quick_config()
        for run in (lambda s: losocv(s, cfg=cfg), lambda s: ablate_sensors(s, ("prox", "ambient"), cfg=cfg)):
            listed, generated = run(clean_sessions), run(s for s in clean_sessions)
            assert generated.to_csv_rows() == listed.to_csv_rows()
            assert [s.flags for s in generated.entries()] == [s.flags for s in listed.entries()]

    def test_always_negative_threshold_conventions(self, clean_sessions):
        # threshold > 1 turns the classifier into an always-negative stub.
        cfg = quick_config(threshold=1.01)
        report = losocv(clean_sessions, cfg=cfg)
        for score in report.scores:
            assert score.second.recall == 0.0
            assert score.second.precision == 0.0  # truth non-empty, no preds

    def test_fold_isolation_against_poisoned_holdout(self, clean_sessions):
        # Retraining with a corrupted copy of the held-out participant must
        # leave the fold's model untouched.
        from chewdet.boosting import model_to_text
        from chewdet.records import Session

        cfg = quick_config()
        prepared = [session_candidates(s, cfg) for s in clean_sessions]
        tables = [t for _, t in prepared]
        model_before = train_fold([tables[0]], cfg.boost())

        poisoned = clean_sessions[1]
        poisoned = Session(
            participant=poisoned.participant,
            t=poisoned.t,
            prox=np.asarray(poisoned.prox) + 17.0,
            ambient=poisoned.ambient,
            quat=poisoned.quat,
            accel=poisoned.accel,
            labels=poisoned.labels,
        )
        _ = session_candidates(poisoned, cfg)
        model_after = train_fold([tables[0]], cfg.boost())
        assert model_to_text(model_before) == model_to_text(model_after)

    def test_grid_selection_is_deterministic(self, clean_sessions):
        cfg = quick_config()
        grid = [cfg.boost(), BoostConfig(**{**cfg.boost().__dict__, "n_rounds": 20})]
        a = losocv(clean_sessions, boost_grid=grid, cfg=cfg)
        b = losocv(clean_sessions, boost_grid=grid, cfg=cfg)
        assert a.to_csv_rows() == b.to_csv_rows()

    def test_inner_fold_model_shared_by_dbscan_points(self, noisy_sessions, monkeypatch):
        # 3 outer folds, each with 2 inner folds trained once for both
        # DBSCAN points; holding out A then B trains on C as B then A does,
        # so the 6 inner folds share 3 models.  With the 3 outer models: 6,
        # where training per grid point would make 3 * (2 * 2) + 3 = 15.
        calls = []
        real = evaluation.train_fold

        def counted(tables, boost_cfg):
            calls.append(boost_cfg)
            return real(tables, boost_cfg)

        monkeypatch.setattr(evaluation, "train_fold", counted)
        cfg = quick_config()
        grid = [cfg.dbscan(), replace(cfg.dbscan(), eps=2 * cfg.dbscan_eps)]
        report = losocv(noisy_sessions, dbscan_grid=grid, cfg=cfg)
        assert len(calls) == 6
        assert not any("zero_trees" in s.flags for s in report.scores)

    def test_inner_fold_error_other_than_one_class_propagates(self, noisy_sessions, monkeypatch):
        # The first train call is an inner fold's; it must not pass as a
        # single-class fold and leave the outer folds to run.
        real, calls = evaluation.train, []

        def fails_first(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise ValueError("inner fold boom")
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation, "train", fails_first)
        cfg = quick_config()
        grid = [cfg.dbscan(), replace(cfg.dbscan(), eps=2 * cfg.dbscan_eps)]
        with pytest.raises(ValueError, match="inner fold boom"):
            losocv(noisy_sessions, dbscan_grid=grid, cfg=cfg)

    def test_grid_without_votes_is_flagged(self, monkeypatch):
        # B holds only positives and C only negatives: holding A out leaves
        # two single-class inner folds, so no grid point gets a vote there.
        rng = np.random.default_rng(0)
        labels = {"A": [0, 1] * 10, "B": [1] * 20, "C": [0] * 20}
        prepared = []
        for pid, label in labels.items():
            table = FeatureTable(("f0", "f1"), rng.normal(size=(20, 2)), np.zeros(20),
                                 np.ones(20), [pid] * 20, np.array(label))
            prepared.append((pid, (), [], table))
        # The patched preparation ignores the sessions it is given.
        monkeypatch.setattr(evaluation, "_prepare_all", lambda *args: prepared)
        cfg = quick_config()
        grid = [cfg.boost(), replace(cfg.boost(), n_rounds=5)]
        report = losocv((), boost_grid=grid, cfg=cfg)
        assert ["no_grid_vote" in s.flags for s in report.scores] == [True, False, False]
        assert "no_grid_vote" in report.to_text()

    def test_zero_tree_fold_flagged_in_text_only(self, clean_sessions, tmp_path):
        cfg = quick_config()
        stuck = replace(cfg.boost(), gamma=np.inf)
        report = losocv(clean_sessions, boost_grid=[stuck], cfg=cfg)
        assert all(s.flags == ("zero_trees",) for s in report.scores)
        assert "zero_trees" in report.to_text()
        unflagged = replace(report, scores=tuple(replace(s, flags=()) for s in report.scores))
        assert report.to_csv_rows() == unflagged.to_csv_rows()
        write_scores_csv(tmp_path / "flagged.csv", report.entries())
        write_scores_csv(tmp_path / "unflagged.csv", unflagged.entries())
        assert (tmp_path / "flagged.csv").read_bytes() == (tmp_path / "unflagged.csv").read_bytes()

    def test_participant_without_candidates_is_flagged(self, clean_sessions):
        # A flat proximity trace has no peaks, so no candidates: its fold
        # predicts nothing and the report says why.
        source = clean_sessions[1]
        flat = replace(
            source,
            participant="P3",
            prox=np.full(len(source), 100.0),
            labels=tuple(replace(iv, participant="P3") for iv in source.labels),
        )
        report = losocv([*clean_sessions, flat], cfg=quick_config())
        assert [s.flags for s in report.scores] == [(), (), ("no_candidates",)]
        held = report.scores[2]
        assert (held.second.tp, held.second.fp, held.episode.tp, held.episode.fp) == (0, 0, 0, 0)
        assert held.second.fn > 0 and held.second.f1 == held.episode.f1 == 0.0

    def test_participant_without_chews_is_flagged(self, clean_sessions):
        # A held-out day with no meals has no chew labels: it still scores
        # 1.0 by the empty-side convention, and the report says why.
        bare, labels = generate(replace(two_meal_scenario(seed=100, participant="P3"), meals=()))
        assert labels == []
        report = losocv([*clean_sessions, bare], cfg=quick_config())
        assert [s.flags for s in report.scores] == [(), (), ("no_truth",)]
        held = report.scores[2]
        assert held.second == held.episode == Metrics(1.0, 1.0, 1.0, 0, 0, 0)
        assert "no_truth" in report.to_text()
        unflagged = replace(report, scores=tuple(replace(s, flags=()) for s in report.scores))
        assert report.to_csv_rows() == unflagged.to_csv_rows()

    def test_average_rows_count_flagged_participants(self):
        m = Metrics(1.0, 1.0, 1.0)
        flags = [(), ("no_truth",), (), ("zero_trees", "no_candidates")]
        report = EvalReport(tuple(ParticipantScore(f"P{i}", m, m, f) for i, f in enumerate(flags)))
        average = [line for line in report.to_text().splitlines() if line.startswith("AVERAGE")]
        assert len(average) == 2 and all(line.endswith("  flagged 2/4") for line in average)
        unflagged = EvalReport(tuple(replace(s, flags=()) for s in report.scores))
        assert unflagged.to_text().splitlines()[-1].endswith("  flagged 0/4")
        assert report.to_csv_rows() == unflagged.to_csv_rows()

    def test_report_rows_and_average(self, clean_sessions):
        report = losocv(clean_sessions, cfg=quick_config())
        rows = report.to_csv_rows()
        assert rows[0] == ["participant", "level", "precision", "recall", "f1"]
        participants = {r[0] for r in rows[1:]}
        assert participants == {"P1", "P2", "AVERAGE"}
        # macro average equals the mean of the per-participant values
        seconds = [s.second.f1 for s in report.scores]
        assert report.second_avg.f1 == pytest.approx(float(np.mean(seconds)))


class TestAblation:
    def test_subset_must_include_proximity(self, clean_sessions):
        with pytest.raises(ValueError, match="prox"):
            ablate_sensors(clean_sessions, ("ambient",), cfg=quick_config())

    def test_empty_subset_rejected(self, clean_sessions):
        with pytest.raises(ValueError, match="non-empty"):
            ablate_sensors(clean_sessions, (), cfg=quick_config())

    def test_featurize_refuses_empty_subset(self, clean_sessions):
        trace = derive(clean_sessions[0])
        with pytest.raises(ValueError, match="^sensor subset must be non-empty$"):
            featurize(trace, [], "P1", None, quick_config(), signals=())

    def test_session_candidates_refuses_empty_subset(self, clean_sessions):
        with pytest.raises(ValueError, match="^sensor subset must be non-empty$"):
            session_candidates(clean_sessions[0], quick_config(), signals=())

    def test_proximity_only_layout_shrinks(self, clean_sessions):
        cfg = quick_config()
        cands, table = session_candidates(clean_sessions[0], cfg, signals=("prox",))
        assert len(table.names) == 65

    def test_full_set_not_worse_than_proximity_only(self, noisy_sessions):
        cfg = quick_config()
        full = losocv(noisy_sessions, cfg=cfg)
        prox_only = ablate_sensors(noisy_sessions, ("prox",), cfg=cfg)
        assert full.episode_avg.f1 >= prox_only.episode_avg.f1 - 1e-12
