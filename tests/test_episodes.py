import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chewdet.episodes import (
    DbscanConfig,
    SecondScore,
    cluster,
    episodes_from_clusters,
    read_episode_csv,
    score_seconds,
    write_episode_csv,
)
from chewdet.periodic import CandidateWindow
from chewdet.records import covered_seconds
from oracles import loop_cluster, naive_dbscan_1d


def cand(c1, c2):
    return CandidateWindow(c1=c1, c2=c2, p_min=0.5, p_max=0.6, epsilon=0.2, length=5)


def scores_from(pairs):
    return [SecondScore(second=s, score=v) for s, v in pairs]


class TestScoreSeconds:
    def test_single_candidate_coverage(self):
        out = score_seconds([cand(10.2, 13.8)])
        assert [(s.second, s.score) for s in out] == [(10, 1), (11, 1), (12, 1), (13, 1)]

    def test_duplicate_candidates_double_score(self):
        out = score_seconds([cand(10.2, 13.8), cand(10.2, 13.8)])
        assert [(s.second, s.score) for s in out] == [(10, 2), (11, 2), (12, 2), (13, 2)]

    def test_partial_overlap_counts(self):
        out = score_seconds([cand(0.0, 10.0), cand(5.0, 15.0)])
        by_second = {s.second: s.score for s in out}
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
        total = sum(s.score for s in out)
        expected = sum(len(covered_seconds(c.c1, c.c2)) for c in cands)
        assert total == expected

    def test_empty_input(self):
        assert score_seconds([]) == []


class TestCluster:
    def test_isolated_second_is_noise(self):
        scores = scores_from([(100, 1)])
        assert cluster(scores, DbscanConfig(eps=5, min_pts=2)) == []

    def test_dense_run_is_one_cluster(self):
        scores = scores_from([(s, 1) for s in range(60)])
        out = cluster(scores, DbscanConfig(eps=5, min_pts=3, use_score_weight=False))
        assert len(out) == 1
        assert out[0] == tuple(range(60))

    def test_two_runs_far_apart_are_two_clusters(self):
        scores = scores_from(
            [(s, 1) for s in range(30)] + [(1000 + s, 1) for s in range(30)]
        )
        out = cluster(scores, DbscanConfig(eps=10, min_pts=3, use_score_weight=False))
        assert len(out) == 2

    def test_score_weighting_can_make_lone_second_core(self):
        cfg = DbscanConfig(eps=5, min_pts=3, use_score_weight=True)
        assert cluster(scores_from([(50, 3)]), cfg) == [(50,)]
        assert cluster(scores_from([(50, 2)]), cfg) == []

    def test_unsorted_scores_rejected(self):
        scores = [SecondScore(5, 1), SecondScore(3, 1)]
        with pytest.raises(ValueError, match="sorted"):
            cluster(scores, DbscanConfig(eps=5, min_pts=2))

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
                [s.second for s in scores],
                [s.score if use_weight else 1 for s in scores],
                eps,
                min_pts,
            )
            assert sorted(ours) == sorted(tuple(int(v) for v in c) for c in ref)

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
        assert ours == sorted(tuple(int(v) for v in c) for c in ref)

    def test_every_clustered_second_was_scored(self):
        rng = np.random.default_rng(4)
        seconds = np.unique(rng.integers(0, 500, size=120))
        scores = scores_from([(int(s), int(v)) for s, v in zip(seconds, rng.integers(1, 5, len(seconds)))])
        out = cluster(scores, DbscanConfig(eps=10, min_pts=4))
        scored = {s.second for s in scores}
        for members in out:
            assert set(members) <= scored

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
        assert out == loop_cluster(scores, cfg)
        assert all(type(s) is int for members in out for s in members)

    def test_raising_min_pts_never_adds_seconds(self):
        rng = np.random.default_rng(5)
        seconds = np.unique(rng.integers(0, 400, size=150))
        scores = scores_from([(int(s), 1) for s in seconds])
        previous = None
        for min_pts in (1, 2, 4, 8, 16):
            cfg = DbscanConfig(eps=12, min_pts=min_pts, use_score_weight=False)
            covered = {s for members in cluster(scores, cfg) for s in members}
            if previous is not None:
                assert covered <= previous
            previous = covered


class TestEpisodesFromClusters:
    def test_nearby_clusters_merge(self):
        clusters = [tuple(range(100, 161)), tuple(range(400, 461))]
        episodes = episodes_from_clusters(clusters, delta=900.0)
        assert [(e.start, e.end) for e in episodes] == [(100.0, 461.0)]

    def test_small_delta_keeps_separate(self):
        clusters = [tuple(range(100, 161)), tuple(range(400, 461))]
        episodes = episodes_from_clusters(clusters, delta=100.0)
        assert [(e.start, e.end) for e in episodes] == [(100.0, 161.0), (400.0, 461.0)]

    def test_disjointness_enforced(self):
        msg = r"^intervals overlap: \[1\.0, 4\.0\] and \[3\.0, 5\.0\]$"
        with pytest.raises(ValueError, match=msg):
            episodes_from_clusters([(1, 2, 3), (3, 4)], delta=10.0)

    def test_output_sorted(self):
        clusters = [tuple(range(500, 520)), tuple(range(0, 20))]
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
