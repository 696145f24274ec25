"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from chewdet.boosting import (
    BoostConfig,
    load_model,
    model_to_text,
    predict_proba,
    save_model,
    train,
)
from chewdet.config import PipelineConfig
from chewdet.episodes import DbscanConfig, cluster
from chewdet.evaluation import (
    ablate_sensors,
    losocv,
    per_episode_metrics,
    per_second_metrics,
    predict_session,
    score_participant,
    session_candidates,
    train_fold,
)
from chewdet.features import extract, feature_layout, local_hour
from chewdet.periodic import CandidateWindow, longest_abs_periodic
from chewdet.records import (
    IntervalKind,
    LabeledInterval,
    derive_episode_labels,
    ingest_sensor_csv,
    inter_sequence_gap_cdf,
    read_label_csv,
    write_label_csv,
    write_sensor_csv,
)
from chewdet.signals import DerivedTrace, lean_forward_angle
from chewdet.synthetic import Confounder, MealSpec, ScenarioSpec, generate
from oracles import brute_force_longest_periodic, naive_dbscan_1d


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} FAIL - {description}")
        raise
    print(f"\nACCEPTANCE {number:02d} PASS - {description}")


def day_scenario(pid: str, seed: int, noise: float) -> ScenarioSpec:
    """Three meals across a two-hour recording, with confounders."""
    return ScenarioSpec(
        duration=7200.0,
        meals=(
            MealSpec(start=600.0, n_sequences=4, chew_rate_hz=1.5,
                     seq_duration_s=30.0, seq_gap_s=18.0),
            MealSpec(start=3200.0, n_sequences=4, chew_rate_hz=1.25,
                     seq_duration_s=30.0, seq_gap_s=18.0),
            MealSpec(start=5800.0, n_sequences=4, chew_rate_hz=1.8,
                     seq_duration_s=30.0, seq_gap_s=18.0),
        ),
        confounders=(
            Confounder("talking", 1200.0, 30.0),
            Confounder("talking", 1400.0, 28.0),
            Confounder("talking", 1700.0, 32.0),
            Confounder("talking", 2200.0, 26.0),
            Confounder("talking", 2600.0, 30.0),
            Confounder("talking", 4200.0, 28.0),
            Confounder("talking", 4600.0, 30.0),
            Confounder("talking", 5000.0, 26.0),
            Confounder("walking", 2000.0, 120.0),
            Confounder("walking", 5400.0, 120.0),
            Confounder("rest", 2900.0, 200.0),
        ),
        noise_prox=noise,
        noise_ambient=4.0 * noise,
        noise_lfa_deg=0.5 * noise,
        noise_accel=0.02 * noise,
        seed=seed,
        participant=pid,
    )


ACCEPT_CFG = PipelineConfig(n_rounds=80, subsample=0.8, max_depth=3, seed=7)


def run_day(noise: float, train_seed: int, eval_seed: int):
    train_session, _ = generate(day_scenario("TRAIN", train_seed, noise))
    eval_session, _ = generate(day_scenario("EVAL", eval_seed, noise))
    _, train_table = session_candidates(train_session, ACCEPT_CFG)
    eval_cands, eval_table = session_candidates(eval_session, ACCEPT_CFG)
    model = train_fold([train_table], ACCEPT_CFG.boost())
    scores, episodes = predict_session(
        model, eval_cands, eval_table, ACCEPT_CFG.dbscan(),
        ACCEPT_CFG.threshold, ACCEPT_CFG.delta,
    )
    return score_participant(scores, episodes, eval_session, ACCEPT_CFG)


def test_criterion_01_dp_matches_brute_force():
    with criterion(1, "DP equals exhaustive search on 2000 random arrays (< 10 s)"):
        rng = np.random.default_rng(99)
        start = time.perf_counter()
        checked = 0
        for _ in range(2000):
            n = int(rng.integers(2, 11))
            t = np.unique(np.round(np.sort(rng.uniform(0, 6.0, size=n)), 3))
            if len(t) < 2:
                continue
            p_min = float(rng.uniform(0.1, 1.0))
            p_max = p_min + float(rng.uniform(0.05, 1.0))
            best, _ = brute_force_longest_periodic(t, p_min, p_max)
            ours = longest_abs_periodic(t, p_min, p_max)
            got = ours[0].length if ours else 0
            assert got == best, f"mismatch on {t} band [{p_min}, {p_max}]"
            checked += 1
        elapsed = time.perf_counter() - start
        assert checked >= 1900
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_02_worked_example():
    with criterion(2, "timestamps [0, 0.8, 0.9, 1.9] in band [0.9, 1.1] -> (0, 0.9, 1.9)"):
        result = longest_abs_periodic([0.0, 0.8, 0.9, 1.9], 0.9, 1.1)
        assert len(result) == 1
        assert result[0].timestamps == (0.0, 0.9, 1.9)
        assert result[0].length == 2


def test_criterion_03_dp_linear_scaling():
    with criterion(3, "runtime(100k) / runtime(10k) within [7, 13], median of 5"):
        def planted(n, seed):
            r = np.random.default_rng(seed)
            return np.cumsum(r.uniform(0.5, 1.0, size=n))

        def timed(t):
            s = time.perf_counter()
            longest_abs_periodic(t, 0.5, 1.0)
            return time.perf_counter() - s

        t_small, t_large = planted(10_000, 1), planted(100_000, 2)
        timed(t_small)
        timed(t_large)  # warm-up
        ratios = sorted(timed(t_large) / timed(t_small) for _ in range(5))
        median = ratios[2]
        assert 7.0 <= median <= 13.0, f"ratios {ratios}"


def test_criterion_04_lfa_identities():
    with criterion(4, "lean-forward identities and invariances within 1e-9 deg"):
        assert abs(lean_forward_angle((1, 0, 0, 0)) - 0.0) < 1e-9
        s = math.sin(math.pi / 4)
        assert abs(lean_forward_angle((math.cos(math.pi / 4), s, 0, 0)) - 90.0) < 1e-9
        assert abs(lean_forward_angle((0, 1, 0, 0)) - 180.0) < 1e-9

        def qmul(a, b):
            aw, ax, ay, az = a
            bw, bx, by, bz = b
            return (
                aw * bw - ax * bx - ay * by - az * bz,
                aw * bx + ax * bw + ay * bz - az * by,
                aw * by - ax * bz + ay * bw + az * bx,
                aw * bz + ax * by - ay * bx + az * bw,
            )

        rng = np.random.default_rng(4)
        quats = rng.normal(size=(1000, 4))
        quats /= np.linalg.norm(quats, axis=1, keepdims=True)
        yaws = rng.uniform(-math.pi, math.pi, size=1000)
        for q, yaw in zip(quats, yaws):
            q = tuple(q)
            assert abs(lean_forward_angle(q) - lean_forward_angle(tuple(-v for v in q))) < 1e-9
            rz = (math.cos(yaw / 2), 0.0, 0.0, math.sin(yaw / 2))
            assert abs(lean_forward_angle(qmul(q, rz)) - lean_forward_angle(q)) < 1e-9


def test_criterion_05_feature_contract():
    with criterion(5, "257 finite features; offset and translation properties on 100 windows"):
        rng = np.random.default_rng(5)
        n = 40_000  # 2000 s
        t = np.arange(n) / 20.0
        trace = DerivedTrace(
            t=t,
            prox=100.0 + rng.normal(0, 3, n),
            ambient=np.abs(500.0 + rng.normal(0, 10, n)),
            lfa=np.clip(90.0 + rng.normal(0, 5, n), 0, 180),
            energy=np.abs(1.0 + rng.normal(0, 0.2, n)),
        )
        names = feature_layout()
        assert len(names) == 257
        hour_idx = names.index("hour_of_day")
        offset_invariant = [
            i for i, name in enumerate(names)
            if name.startswith("prox_")
            and any(k in name for k in ("variance", "iqr", "skewness", "kurtosis",
                                        "fft_", "count_", "strike", "spec_"))
        ]
        clock = local_hour(0.0)
        shift = 5 * 3600.0
        moved = DerivedTrace(
            t=trace.t + shift, prox=trace.prox, ambient=trace.ambient,
            lfa=trace.lfa, energy=trace.energy,
        )
        shifted_prox = DerivedTrace(
            t=trace.t, prox=trace.prox + 321.0, ambient=trace.ambient,
            lfa=trace.lfa, energy=trace.energy,
        )
        for k in range(100):
            c1 = float(rng.uniform(5.0, 1900.0))
            c2 = c1 + float(rng.uniform(3.0, 60.0))
            cand = CandidateWindow(c1=c1, c2=c2, p_min=0.4, p_max=0.48,
                                   epsilon=0.2, length=5)
            vec = extract(trace, cand, clock)
            assert vec.shape == (257,)
            assert np.all(np.isfinite(vec))
            vec_off = extract(shifted_prox, cand, clock)
            assert np.allclose(vec[offset_invariant], vec_off[offset_invariant], atol=1e-9)
            cand_moved = CandidateWindow(c1=c1 + shift, c2=c2 + shift, p_min=0.4,
                                         p_max=0.48, epsilon=0.2, length=5)
            vec_moved = extract(moved, cand_moved, clock)
            keep = np.ones(257, dtype=bool)
            keep[hour_idx] = False
            assert np.allclose(vec[keep], vec_moved[keep], atol=1e-9)
            assert vec_moved[hour_idx] == (vec[hour_idx] + 5) % 24


def test_criterion_06_boosting_sanity(tmp_path):
    with criterion(6, "toy set perfect within 10 rounds; loss monotone; exact round trip"):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        cfg = BoostConfig(eta=0.3, max_depth=1, gamma=0.0, min_child_weight=0.0,
                          subsample=1.0, n_rounds=10, seed=0, reg_lambda=0.0)
        model = train(X, y, cfg)
        proba = predict_proba(model, X)
        assert np.array_equal((proba >= 0.5).astype(int), y)
        losses = model.train_loss
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        path = tmp_path / "model.txt"
        save_model(path, model)
        text = path.read_text()
        assert model_to_text(load_model(path)) == text


def test_criterion_07_dbscan_oracle():
    with criterion(7, "sliding-window DBSCAN equals naive reference on 500 point sets"):
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(1, 70))
            seconds = np.unique(rng.integers(0, 400, size=n))
            weights = rng.integers(1, 5, size=len(seconds))
            use_weight = bool(rng.integers(0, 2))
            eps = float(rng.integers(1, 25))
            min_pts = int(rng.integers(1, 10))
            scores = np.column_stack([seconds, weights])
            ours = cluster(scores, DbscanConfig(eps=eps, min_pts=min_pts,
                                                use_score_weight=use_weight))
            ref = naive_dbscan_1d(
                seconds, weights if use_weight else np.ones(len(seconds)), eps, min_pts
            )
            assert sorted(ours) == sorted((int(c[0]), int(c[-1])) for c in ref)


def test_criterion_08_metric_examples_and_monotonicity():
    with criterion(8, "hand-derived metric examples exact; threshold grid monotone"):
        def chew(a, b):
            return LabeledInterval(a, b, IntervalKind.CHEW, "P")

        def ep(a, b):
            return LabeledInterval(a, b, IntervalKind.EPISODE, "P")

        m = per_second_metrics(set(range(100)), [chew(0, 100)])
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
        m = per_second_metrics(set(range(50)), [chew(0, 100)])
        assert (m.precision, m.recall) == (1.0, 0.5) and m.f1 == pytest.approx(2 / 3)
        m = per_second_metrics(set(range(50)) | set(range(200, 250)), [chew(0, 100)])
        assert (m.precision, m.recall, m.f1) == (0.5, 0.5, 0.5)

        m = per_episode_metrics([ep(0, 100), ep(500, 700)], [ep(0, 100), ep(500, 700)])
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
        m = per_episode_metrics([ep(0, 50)], [ep(0, 100)])
        assert (m.precision, m.recall) == (1.0, 1.0)  # 50 % overlap, >= rule
        m = per_episode_metrics([ep(0, 100), ep(500, 600)], [ep(0, 100)])
        assert m.precision == 0.5 and m.recall == 1.0 and m.f1 == pytest.approx(2 / 3)

        rng = np.random.default_rng(8)
        pred, truth, t = [], [], 0.0
        for _ in range(15):
            start = t + float(rng.uniform(0, 40))
            dur = float(rng.uniform(20, 120))
            truth.append(ep(start, start + dur))
            shift = float(rng.uniform(-25, 25))
            pred.append(ep(start + shift, start + shift + dur * float(rng.uniform(0.4, 1.2))))
            t = max(truth[-1].end, pred[-1].end) + 10.0
        previous = None
        for thr in np.linspace(0.0, 1.0, 11):
            m = per_episode_metrics(pred, truth, overlap_threshold=float(thr))
            if previous is not None:
                assert m.precision <= previous.precision + 1e-12
                assert m.recall <= previous.recall + 1e-12
            previous = m


def test_criterion_09_end_to_end_synthetic():
    with criterion(9, "clean day: sec F1 >= 0.90, episode F1 = 1.0; noisy: episode F1 >= 0.8; < 60 s"):
        start = time.perf_counter()
        clean = run_day(noise=0.5, train_seed=40, eval_seed=41)
        clean_elapsed = time.perf_counter() - start
        assert clean.second.f1 >= 0.90, f"clean per-second F1 {clean.second.f1:.3f}"
        assert clean.episode.f1 == 1.0, f"clean per-episode F1 {clean.episode.f1:.3f}"
        assert clean_elapsed < 60.0, f"clean chain took {clean_elapsed:.1f} s"

        noisy = run_day(noise=1.5, train_seed=60, eval_seed=61)
        assert noisy.episode.f1 >= 0.8, f"noisy per-episode F1 {noisy.episode.f1:.3f}"


def test_criterion_10_ablation_direction(noisy_sessions):
    with criterion(10, "all-sensor episode F1 >= proximity-only on the same corpus"):
        from conftest import quick_config

        cfg = quick_config()
        full = losocv(noisy_sessions, cfg=cfg)
        prox_only = ablate_sensors(noisy_sessions, ("prox",), cfg=cfg)
        assert full.episode_avg.f1 >= prox_only.episode_avg.f1 - 1e-12, (
            f"full {full.episode_avg.f1:.3f} < prox-only {prox_only.episode_avg.f1:.3f}"
        )


def test_criterion_11_delta_plateau():
    with criterion(11, "no gap mass inside [540, 1100]; episodes invariant across the plateau"):
        # Meals separated by > 1100 s with intra-meal breaks far below 540 s.
        spec = ScenarioSpec(
            duration=9000.0,
            meals=(
                MealSpec(start=500.0, n_sequences=4, chew_rate_hz=1.5,
                         seq_duration_s=30.0, seq_gap_s=120.0),
                MealSpec(start=3500.0, n_sequences=3, chew_rate_hz=1.25,
                         seq_duration_s=30.0, seq_gap_s=60.0),
                MealSpec(start=7000.0, n_sequences=5, chew_rate_hz=1.8,
                         seq_duration_s=25.0, seq_gap_s=90.0),
            ),
            seed=11,
            participant="CDF",
        )
        _, chews = generate(spec)
        table = inter_sequence_gap_cdf(chews)
        plateau = [g for g, _ in table if 540.0 < g < 1100.0]
        assert plateau == [], f"gap mass inside the plateau: {plateau}"
        assert table[-1][1] == pytest.approx(1.0)
        reference = [
            (e.start, e.end) for e in derive_episode_labels(chews, delta=900.0)
        ]
        assert len(reference) == 3
        for delta in (545.0, 650.0, 800.0, 1000.0, 1095.0):
            episodes = derive_episode_labels(chews, delta=delta)
            assert [(e.start, e.end) for e in episodes] == reference


def test_criterion_12_study_schema_accepted(tmp_path):
    with criterion(12, "study CSV schemas ingest unchanged; headline numbers are references only"):
        # The published headline metrics (76.2/81.6 exploratory, 73.7/77.1
        # free-living F1, 13.1 point segmentation-recall delta) need the
        # original study recordings, which are not bundled; nothing here
        # asserts them.  What must hold: the schemas those recordings would
        # arrive in are accepted byte-for-byte by the ingest surface.
        session, labels = generate(
            ScenarioSpec(
                duration=120.0,
                meals=(MealSpec(start=30.0, n_sequences=1, seq_duration_s=20.0),),
                seed=12,
                participant="P01",
            )
        )
        sensor_csv = tmp_path / "sensors_P01.csv"
        label_csv = tmp_path / "labels_P01.csv"
        write_sensor_csv(sensor_csv, session)
        episodes = derive_episode_labels(labels, delta=900.0)
        write_label_csv(label_csv, list(labels) + episodes)
        assert sensor_csv.read_text().splitlines()[0] == "t_ms,prox,ambient,qw,qx,qy,qz,ax,ay,az"
        assert label_csv.read_text().splitlines()[0] == "participant,kind,start_s,end_s"
        back = ingest_sensor_csv(sensor_csv, participant="P01")
        assert len(back) == len(session)
        intervals = read_label_csv(label_csv)
        assert {iv.kind for iv in intervals} == {IntervalKind.CHEW, IntervalKind.EPISODE}
