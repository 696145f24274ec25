import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chewdet.episodes import (
    EPISODE_HEADER,
    EPISODE_KINDS,
    DbscanConfig,
    cluster,
    episodes_from_clusters,
    read_episode_csv,
    score_seconds,
    write_episode_csv,
)
from chewdet.periodic import CandidateWindow
from chewdet.records import IntervalKind, LabeledInterval, covered_seconds
from chewdet.tables import read_table
from oracles import counter_score_seconds, loop_cluster, naive_dbscan_1d


def cand(c1, c2):
    return CandidateWindow(c1=c1, c2=c2, p_min=0.5, p_max=0.6, epsilon=0.2, length=5)


def scores_from(pairs):
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def spans_of(clusters):
    """Member tuples, sorted, as (first, last) pairs of Python ints."""
    return [(int(c[0]), int(c[-1])) for c in clusters]


def members_of(scores, spans):
    """The scored seconds inside each (first, last) span."""
    seconds = scores[:, 0]
    return [tuple(seconds[(seconds >= a) & (seconds <= b)].tolist()) for a, b in spans]


# Endpoints on whole seconds, on quarter seconds and anywhere, negative ones
# included; a small range makes nested, touching and repeated spans common.
endpoints = st.integers(-12, 12).map(float) | st.integers(-48, 48).map(lambda q: q / 4) | st.floats(-12, 12)
spans = st.tuples(endpoints, endpoints).filter(lambda ab: ab[0] != ab[1]).map(sorted)
# Whole eps values, to be taken as they are, one ulp either side or 1e-12 below.
whole_eps = st.integers(1, 12).map(float)


class TestScoreSeconds:
    def test_single_candidate_coverage(self):
        out = score_seconds([cand(10.2, 13.8)])
        assert out.tolist() == [[10, 1], [11, 1], [12, 1], [13, 1]]

    def test_duplicate_candidates_double_score(self):
        out = score_seconds([cand(10.2, 13.8), cand(10.2, 13.8)])
        assert out.tolist() == [[10, 2], [11, 2], [12, 2], [13, 2]]

    def test_partial_overlap_counts(self):
        out = score_seconds([cand(0.0, 10.0), cand(5.0, 15.0)])
        by_second = dict(out.tolist())
        assert set(by_second) == set(range(0, 15))
        assert all(by_second[s] == 2 for s in range(5, 10))
        assert all(by_second[s] == 1 for s in list(range(0, 5)) + list(range(10, 15)))

    @pytest.mark.parametrize("c1, c2", [(5.0, 5.0), (6.0, 5.0)])
    def test_empty_span_refused(self, c1, c2):
        with pytest.raises(ValueError, match=rf"^need end > start, got \[{c1}, {c2}\]$"):
            score_seconds([cand(1.0, 2.0), cand(c1, c2)])

    def test_total_mass_is_sum_of_coverages(self):
        rng = np.random.default_rng(1)
        cands = []
        for _ in range(30):
            c1 = float(rng.uniform(0, 500))
            cands.append(cand(c1, c1 + float(rng.uniform(0.5, 40))))
        out = score_seconds(cands)
        total = out[:, 1].sum()
        expected = sum(len(covered_seconds(c.c1, c.c2)) for c in cands)
        assert total == expected

    def test_empty_input(self):
        out = score_seconds([])
        assert out.shape == (0, 2) and out.dtype == np.int64

    @settings(max_examples=300, deadline=None)
    @given(st.lists(spans, max_size=12))
    @example([])
    @example([(0.0, 10.0), (2.0, 3.0), (2.0, 3.0), (3.0, 5.5)])  # nested, repeated, touching
    @example([(0.1, 0.2), (-1.75, -1.25), (-3.0, -2.0), (-2.0, -1.0)])  # sub-second, negative
    def test_matches_counter_reference(self, pairs):
        cands = [cand(c1, c2) for c1, c2 in pairs]
        out = score_seconds(cands)
        assert out.dtype == np.int64 and out.shape == (len(out), 2)
        assert [tuple(row) for row in out.tolist()] == counter_score_seconds(cands)

    def test_runs_that_together_reach_2_63_seconds_refused(self):
        # Each run fits int64, but their 10**19 - 1 seconds together do not.
        with pytest.raises(ValueError, match=r"^candidates together cover 9999999999999999999 seconds, "
                                             r"2\*\*63 or more: outside int64$"):
            score_seconds([cand(-5e18, 0.0), cand(1.0, 5e18)])

    def test_long_candidate_scores_at_once(self):
        start = time.perf_counter()
        out = score_seconds([cand(0.5, 1e7)])
        assert time.perf_counter() - start < 1.0
        assert out.shape == (10**7, 2) and out[-1].tolist() == [10**7 - 1, 1]


class TestCluster:
    def test_isolated_second_is_noise(self):
        scores = scores_from([(100, 1)])
        assert cluster(scores, DbscanConfig(eps=5, min_pts=2)) == []

    def test_dense_run_is_one_cluster(self):
        scores = scores_from([(s, 1) for s in range(60)])
        out = cluster(scores, DbscanConfig(eps=5, min_pts=3, use_score_weight=False))
        assert out == [(0, 59)]

    def test_two_runs_far_apart_are_two_clusters(self):
        scores = scores_from(
            [(s, 1) for s in range(30)] + [(1000 + s, 1) for s in range(30)]
        )
        out = cluster(scores, DbscanConfig(eps=10, min_pts=3, use_score_weight=False))
        assert len(out) == 2

    def test_score_weighting_can_make_lone_second_core(self):
        cfg = DbscanConfig(eps=5, min_pts=3, use_score_weight=True)
        assert cluster(scores_from([(50, 3)]), cfg) == [(50, 50)]
        assert cluster(scores_from([(50, 2)]), cfg) == []

    def test_unsorted_scores_rejected(self):
        scores = scores_from([(5, 1), (3, 1)])
        with pytest.raises(ValueError, match="sorted"):
            cluster(scores, DbscanConfig(eps=5, min_pts=2))

    def test_counts_below_one_rejected(self):
        with pytest.raises(ValueError, match=r"^scores are counts >= 1, got 0$"):
            cluster(scores_from([(3, 1), (5, 0)]), DbscanConfig(eps=5, min_pts=2))

    def test_matches_naive_reference_on_random_inputs(self):
        rng = np.random.default_rng(2)
        for trial in range(200):
            n = int(rng.integers(1, 60))
            seconds = np.unique(rng.integers(0, 300, size=n))
            weights = rng.integers(1, 4, size=len(seconds))
            scores = scores_from(list(zip(seconds.tolist(), weights.tolist())))
            eps = float(rng.integers(1, 20))
            min_pts = int(rng.integers(1, 8))
            use_weight = bool(rng.integers(0, 2))
            cfg = DbscanConfig(eps=eps, min_pts=min_pts, use_score_weight=use_weight)
            ours = cluster(scores, cfg)
            ref = naive_dbscan_1d(
                scores[:, 0],
                scores[:, 1] if use_weight else np.ones(len(scores)),
                eps,
                min_pts,
            )
            assert sorted(ours) == sorted(spans_of(ref))

    def test_point_order_cannot_matter(self):
        # The implementation takes sorted input by contract; the reference
        # sees a shuffled copy and must land on the same set of clusters.
        rng = np.random.default_rng(3)
        seconds = np.unique(rng.integers(0, 200, size=40))
        scores = scores_from([(int(s), 1) for s in seconds])
        cfg = DbscanConfig(eps=8, min_pts=3, use_score_weight=False)
        ours = sorted(cluster(scores, cfg))
        perm = rng.permutation(len(seconds))
        ref = naive_dbscan_1d(seconds[perm], np.ones(len(seconds)), 8, 3)
        assert ours == sorted(spans_of(ref))

    def test_every_clustered_second_was_scored(self):
        rng = np.random.default_rng(4)
        seconds = np.unique(rng.integers(0, 500, size=120))
        scores = scores_from([(int(s), int(v)) for s, v in zip(seconds, rng.integers(1, 5, len(seconds)))])
        out = cluster(scores, DbscanConfig(eps=10, min_pts=4))
        scored = set(scores[:, 0].tolist())
        for first, last in out:
            assert {first, last} <= scored

    @settings(max_examples=400, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.integers(0, 60), st.integers(1, 5)),
                       unique_by=lambda p: p[0], max_size=40),
        eps=st.sampled_from([0.5, 1.0, 2.0, 2.5, 3.0, 5.0, 10.0]) | st.floats(0.01, 20.0),
        min_pts=st.integers(1, 12),
        use_score_weight=st.booleans(),
    )
    # A border exactly eps left of a spine's first core; a border exactly
    # eps right of one spine's core with the next spine's core within eps.
    @example([(0, 1), (3, 1), (4, 1), (5, 1)], 3.0, 3, False)
    @example([(6, 5), (7, 5), (8, 1), (10, 1), (11, 1), (12, 1), (13, 5), (14, 5)], 2.0, 8, True)
    def test_matches_per_point_loop(self, pairs, eps, min_pts, use_score_weight):
        scores = scores_from(sorted(pairs))
        cfg = DbscanConfig(eps=eps, min_pts=min_pts, use_score_weight=use_score_weight)
        out = cluster(scores, cfg)
        assert out == spans_of(loop_cluster(scores, cfg))
        assert all(type(s) is int for span in out for s in span)

    @settings(max_examples=400, deadline=None)
    @given(
        base=st.sampled_from([0, 1_580_000_000, 2**50]) | st.integers(-(2**50), 2**50),
        pairs=st.lists(st.tuples(st.integers(0, 60), st.integers(1, 5)),
                       unique_by=lambda p: p[0], max_size=40),
        eps=whole_eps | whole_eps.map(lambda k: float(np.nextafter(k, 0.0)))
        | whole_eps.map(lambda k: float(np.nextafter(k, 13.0))) | whole_eps.map(lambda k: k - 1e-12)
        | st.floats(0.01, 20.0),
        min_pts=st.integers(1, 12),
        use_score_weight=st.booleans(),
    )
    @example(0, [(0, 1), (3, 1), (6, 1)], float(np.nextafter(3.0, 0.0)), 2, False)
    @example(1_580_000_000, [(0, 1), (3, 1), (6, 1)], 3.0 - 1e-12, 2, False)
    def test_span_members_match_naive_reference(self, base, pairs, eps, min_pts, use_score_weight):
        scores = scores_from(sorted((base + s, c) for s, c in pairs))
        cfg = DbscanConfig(eps=eps, min_pts=min_pts, use_score_weight=use_score_weight)
        weights = scores[:, 1] if use_score_weight else np.ones(len(scores))
        ref = naive_dbscan_1d(scores[:, 0], weights, eps, min_pts)
        assert members_of(scores, cluster(scores, cfg)) == [tuple(int(v) for v in c) for c in ref]

    def test_raising_min_pts_never_adds_seconds(self):
        rng = np.random.default_rng(5)
        seconds = np.unique(rng.integers(0, 400, size=150))
        scores = scores_from([(int(s), 1) for s in seconds])
        previous = None
        for min_pts in (1, 2, 4, 8, 16):
            cfg = DbscanConfig(eps=12, min_pts=min_pts, use_score_weight=False)
            covered = {s for members in members_of(scores, cluster(scores, cfg)) for s in members}
            if previous is not None:
                assert covered <= previous
            previous = covered


class TestEpisodesFromClusters:
    def test_nearby_clusters_merge(self):
        clusters = [(100, 160), (400, 460)]
        episodes = episodes_from_clusters(clusters, delta=900.0)
        assert [(e.start, e.end) for e in episodes] == [(100.0, 461.0)]

    def test_small_delta_keeps_separate(self):
        clusters = [(100, 160), (400, 460)]
        episodes = episodes_from_clusters(clusters, delta=100.0)
        assert [(e.start, e.end) for e in episodes] == [(100.0, 161.0), (400.0, 461.0)]

    def test_disjointness_enforced(self):
        msg = r"^intervals overlap: \[1\.0, 4\.0\] and \[3\.0, 5\.0\]$"
        with pytest.raises(ValueError, match=msg):
            episodes_from_clusters([(1, 3), (3, 4)], delta=10.0)

    def test_output_sorted(self):
        clusters = [(500, 519), (0, 19)]
        episodes = episodes_from_clusters(clusters, delta=10.0)
        starts = [e.start for e in episodes]
        assert starts == sorted(starts)


class TestEpisodeCsv:
    def test_roundtrip(self, tmp_path):
        positives = [cand(100.0, 160.0), cand(120.0, 170.0), cand(400.0, 450.0)]
        scores = score_seconds(positives)
        clusters = cluster(scores, DbscanConfig(eps=30, min_pts=10))
        episodes = episodes_from_clusters(clusters, delta=900.0, participant="P1")
        path = tmp_path / "episodes.csv"
        write_episode_csv(path, episodes, scores)
        back = read_episode_csv(path)
        assert [(e.start, e.end) for e in back] == [(e.start, e.end) for e in episodes]
        header = path.read_text().splitlines()[0]
        assert header == "participant,start_s,end_s,n_seconds,peak_score"

    def test_counts_match_per_second_lookup(self, tmp_path):
        rng = np.random.default_rng(6)
        path = tmp_path / "episodes.csv"
        for _ in range(50):
            scores = score_seconds([cand(a, a + d) for a, d in rng.uniform([-20, 0.1], [20, 15], (6, 2))])
            episodes = [LabeledInterval(a, a + d, IntervalKind.EPISODE, "P")
                        for a, d in rng.uniform([-25, 0.1], [25, 20], (3, 2))]
            write_episode_csv(path, episodes, scores)
            rows = read_table(path, EPISODE_HEADER, EPISODE_KINDS).rows()
            by_second = dict(scores.tolist())
            for ep, (_, _, _, n_seconds, peak_score) in zip(episodes, rows):
                covered = [by_second[s] for s in covered_seconds(ep.start, ep.end) if s in by_second]
                assert (n_seconds, peak_score) == (len(covered), max(covered, default=0))
