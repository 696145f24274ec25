import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chewdet import periodic
from chewdet.peaks import Peak
from chewdet.periodic import (
    MAX_BANDS,
    CandidateWindow,
    PeriodicSubsequence,
    SweepConfig,
    _screen,
    _windows,
    longest_abs_periodic,
    read_candidate_csv,
    segment,
    write_candidate_csv,
)
from oracles import (
    brute_force_longest_periodic,
    deque_optima,
    longest_rel_periodic,
    naive_segment,
    walked_segment,
)

# Segment's windows must widen from finite times only and leave inf - inf
# unreported: an infinite peak time must not compute spacing(inf), and any
# RuntimeWarning fails a test here.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def as_peaks(times):
    return [Peak(t=float(t), height=10.0, prominence=5.0) for t in times]


class TestWorkedExample:
    def test_published_example_reproduced_exactly(self):
        # Peaks at 0, 0.8, 0.9, 1.9 with band [0.9, 1.1]: the one optimum is
        # (0, 0.9, 1.9) of length 2; (0, 0.8) fails because 0.8 < p_min.
        result = longest_abs_periodic([0.0, 0.8, 0.9, 1.9], 0.9, 1.1)
        assert len(result) == 1
        assert result[0].timestamps == (0.0, 0.9, 1.9)
        assert result[0].length == 2

    def test_lower_bound_is_inclusive(self):
        # The 0.9 gap sits exactly on p_min and must be accepted.
        result = longest_abs_periodic([0.0, 0.9], 0.9, 1.1)
        assert result and result[0].timestamps == (0.0, 0.9)

    def test_strict_flag_drops_edge_gaps(self):
        # Every gap sits exactly on p_min: the inclusive bounds keep the
        # whole chain.
        t = [0.0, 0.9, 1.8]
        inclusive = longest_abs_periodic(t, 0.9, 1.1)
        assert inclusive and inclusive[0].length == 2


class TestAbsolutePeriodic:
    def test_empty_and_single_inputs(self):
        assert longest_abs_periodic([], 0.5, 1.0) == []
        assert longest_abs_periodic([3.0], 0.5, 1.0) == []

    def test_perfectly_periodic_full_sequence(self):
        t = np.arange(10.0)
        result = longest_abs_periodic(t, 1.0, 1.0)
        assert len(result) == 1
        assert result[0].length == 9
        assert result[0].timestamps == tuple(t)

    def test_no_valid_pair(self):
        assert longest_abs_periodic([0.0, 5.0, 10.0], 0.5, 1.0) == []

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            longest_abs_periodic([0.0, 1.0, 1.0], 0.5, 1.5)

    def test_bad_band_rejected(self):
        with pytest.raises(ValueError, match="p_min"):
            longest_abs_periodic([0.0, 1.0], 1.5, 0.5)

    def test_all_ties_returned(self):
        # Two disjoint pairs, both of length 1.
        result = longest_abs_periodic([0.0, 1.0, 10.0, 11.0], 0.9, 1.1)
        assert sorted(s.timestamps for s in result) == [(0.0, 1.0), (10.0, 11.0)]

    def test_matches_brute_force_on_random_inputs(self):
        rng = np.random.default_rng(17)
        for trial in range(400):
            n = int(rng.integers(2, 11))
            t = np.sort(rng.uniform(0.0, 6.0, size=n))
            t = np.unique(np.round(t, 3))
            if len(t) < 2:
                continue
            p_min = float(rng.uniform(0.1, 1.0))
            p_max = p_min + float(rng.uniform(0.05, 1.0))
            best, optima = brute_force_longest_periodic(t, p_min, p_max)
            ours = longest_abs_periodic(t, p_min, p_max)
            got = len(ours[0].timestamps) - 1 if ours else 0
            assert got == best
            assert {s.timestamps for s in ours} == optima

    def test_translation_equivariance(self):
        rng = np.random.default_rng(19)
        t = np.cumsum(rng.uniform(0.3, 1.2, size=40))
        base = longest_abs_periodic(t, 0.5, 0.9)
        shifted = longest_abs_periodic(t + 4096.0, 0.5, 0.9)
        assert len(base) == len(shifted)
        for a, b in zip(base, shifted):
            assert b.timestamps == tuple(v + 4096.0 for v in a.timestamps)

    def test_emitted_subsequences_satisfy_invariants(self):
        rng = np.random.default_rng(20)
        t = np.cumsum(rng.uniform(0.2, 1.5, size=60))
        for sub in longest_abs_periodic(t, 0.4, 0.8):
            gaps = np.diff(sub.timestamps)
            assert np.all(gaps >= sub.p_min) and np.all(gaps <= sub.p_max)
            assert sub.length == len(sub.timestamps) - 1


class TestSweep:
    def test_band_progression_clips_last(self):
        cfg = SweepConfig(min=0.4, max=1.5, epsilon=0.2)
        bands = cfg.bands()
        assert bands[0][0] == pytest.approx(0.4)
        for (lo, hi), (lo2, _) in zip(bands, bands[1:]):
            assert hi == pytest.approx(lo2)
            assert hi / lo <= 1.2 + 1e-12
        assert bands[-1][1] == pytest.approx(1.5)
        assert bands[-1][0] < 1.5

    def test_periodic_train_found_in_containing_band(self):
        t = np.arange(20) * 0.5
        found = longest_rel_periodic(t, SweepConfig(0.4, 1.5, 0.2))
        full = [s for s in found if s.timestamps == tuple(t)]
        assert len(full) == 1
        assert full[0].p_min <= 0.5 <= full[0].p_max

    def test_two_interleaved_trains_recovered(self):
        a = np.arange(9) * 0.5  # 0.0 .. 4.0
        b = 0.17 + np.arange(5) * 1.2  # 0.17 .. 4.97
        t = np.unique(np.concatenate([a, b]))
        cfg = SweepConfig(0.4, 1.5, 0.2)
        found = longest_rel_periodic(t, cfg)
        tuples = {s.timestamps for s in found}
        assert tuple(a) in tuples
        assert tuple(b) in tuples
        # Cross-check each band against exhaustive search.
        for lo, hi in cfg.bands():
            best, optima = brute_force_longest_periodic(t, lo, hi)
            ours = longest_abs_periodic(t, lo, hi)
            assert {s.timestamps for s in ours} == optima

    def test_gaps_beyond_sweep_yield_nothing(self):
        t = np.arange(10) * 2.0
        assert longest_rel_periodic(t, SweepConfig(0.4, 1.5, 0.2)) == []

    def test_epsilon_that_cannot_advance_rejected(self):
        # 1 + 1e-17 == 1.0, so bands() would append (0.4, 0.4) forever.
        with pytest.raises(ValueError, match="epsilon 1e-17"):
            SweepConfig(epsilon=1e-17)

    @pytest.mark.parametrize("epsilon, count", [(1e-05, "132177"), (1e-300, r"1.32176e\+300")])
    def test_sweep_with_too_many_bands_rejected(self, epsilon, count):
        # Counted, not built: 1e-8 would make bands() build ~1.3e8 tuples.
        with pytest.raises(ValueError, match=f"epsilon {epsilon} needs {count} bands"):
            SweepConfig(epsilon=epsilon)

    def test_infinite_max_refused_naming_max(self):
        # 0 < min < inf holds, so the range check, not the band count, refuses
        # it.  test_ranges checks the same through PipelineConfig and a file.
        with pytest.raises(ValueError, match=r"^max must be in \(0, inf\), got inf$"):
            SweepConfig(max=math.inf)

    def test_band_limit_admits_its_own_count(self):
        epsilon = (1.5 / 0.4) ** (1 / MAX_BANDS) * (1 + 1e-12) - 1
        assert len(SweepConfig(0.4, 1.5, epsilon).bands()) == MAX_BANDS

    def test_no_duplicate_candidates_across_bands(self):
        rng = np.random.default_rng(21)
        t = np.cumsum(rng.uniform(0.3, 1.6, size=80))
        found = longest_rel_periodic(t, SweepConfig(0.4, 1.5, 0.2))
        tuples = [s.timestamps for s in found]
        assert len(tuples) == len(set(tuples))


class TestSegment:
    def test_single_burst_single_candidate(self):
        peaks = as_peaks(np.arange(31) * 1.0)  # 30 s of 1 Hz events
        cands = segment(peaks, SweepConfig(0.4, 1.5, 0.2), min_len=3)
        assert len(cands) == 1
        assert cands[0].c1 == 0.0
        assert cands[0].c2 == 30.0

    def test_two_bursts_split_by_silence(self):
        times = list(np.arange(11) * 1.0) + list(60.0 + np.arange(11) * 1.0)
        cands = segment(as_peaks(times), SweepConfig(0.4, 1.5, 0.2), min_len=3)
        assert len(cands) == 2
        assert cands[0].c1 == 0.0 and cands[1].c1 == 60.0

    def test_min_len_filters_short_runs(self):
        times = [0.0, 1.0, 2.0]  # length 2 run
        cands = segment(as_peaks(times), SweepConfig(0.4, 1.5, 0.2), min_len=3)
        assert cands == []

    def test_candidates_sorted_by_start(self):
        rng = np.random.default_rng(22)
        times = np.unique(np.round(np.cumsum(rng.uniform(0.3, 2.5, size=120)), 3))
        cands = segment(as_peaks(times), SweepConfig(0.4, 1.5, 0.2), min_len=2)
        keys = [(c.c1, c.p_min) for c in cands]
        assert keys == sorted(keys)

    def test_planted_train_with_spurious_peaks(self):
        # 1.5 Hz planted chewing plus ~5 spurious peaks per minute: the
        # planted interval must come back with boundary error within one
        # inter-chew period.
        rng = np.random.default_rng(23)
        period = 0.65
        planted = 100.0 + np.arange(46) * period
        for trial in range(5):
            spurious = rng.uniform(60.0, 160.0, size=8)
            times = np.unique(np.concatenate([planted, np.round(spurious, 3)]))
            cands = segment(as_peaks(times), SweepConfig(0.4, 1.5, 0.2), min_len=3)
            overlapping = [
                c for c in cands if c.c2 > planted[0] and c.c1 < planted[-1]
            ]
            best = max(overlapping, key=lambda c: c.length)
            assert abs(best.c1 - planted[0]) <= period + 1e-9
            assert abs(best.c2 - planted[-1]) <= period + 1e-9

    def test_translation_shifts_boundaries_only(self):
        rng = np.random.default_rng(24)
        times = np.cumsum(rng.uniform(0.3, 1.8, size=60))
        base = segment(as_peaks(times), SweepConfig(0.4, 1.5, 0.2), min_len=2)
        moved = segment(as_peaks(times + 4096.0), SweepConfig(0.4, 1.5, 0.2), min_len=2)
        assert len(base) == len(moved)
        for a, b in zip(base, moved):
            assert (b.c1, b.c2) == (a.c1 + 4096.0, a.c2 + 4096.0)
            assert (b.p_min, b.p_max, b.epsilon, b.length) == (
                a.p_min, a.p_max, a.epsilon, a.length,
            )


@st.composite
def peak_streams(draw):
    # Times on a 0.05 s grid, so gaps tie and land on band edges and on
    # cfg.max (6, 8, 10, 12, 18 and 30 steps are edges of the configs
    # below); runs of one step make periodic trains.  Fragments hold 0 to
    # 40 events, each after a break that may or may not exceed cfg.max.
    # Some streams start at an epoch-scale offset (1.7e9 s plus whole
    # steps), where t[i] - t[j] rounds to either side of a band edge.
    step = st.integers(1, 32) | st.sampled_from([6, 8, 10, 12, 18, 30])
    fragment = st.lists(st.tuples(step, st.integers(1, 8)), max_size=12).map(
        lambda runs: [v for v, k in runs for _ in range(k)][:40]
    )
    grid = []
    at = 0
    for steps in draw(st.lists(fragment, max_size=4)):
        at += draw(st.integers(20, 60))
        for gap in steps:
            at += gap
            grid.append(at)
    cfg = SweepConfig(*draw(st.sampled_from([
        (0.4, 1.5, 0.2), (0.4, 1.5, 0.25), (0.4, 1.35, 0.5), (0.5, 1.0, 0.25), (0.3, 0.9, 1.0),
    ])))
    origin = draw(st.sampled_from([0.0, 1.7e9])) + draw(st.integers(0, 10**6)) * 0.05
    return as_peaks([origin + k * 0.05 for k in grid]), cfg, draw(st.integers(1, 5))


class TestSegmentOracle:
    @settings(max_examples=300, deadline=None)
    @given(peak_streams())
    @example((as_peaks([0.0, 0.5, 1.0, 1.5]), SweepConfig(0.4, 1.5, 0.25), 1))  # edge 0.5: lower band
    def test_matches_full_sweep(self, case):
        # The oracle enumerates every tied chain; its first row per (c1, c2)
        # is the lowest band's, and segment keeps one row per span.
        peaks, cfg, min_len = case
        spans: dict[tuple[float, float], CandidateWindow] = {}
        for s in naive_segment(peaks, cfg, min_len):
            spans.setdefault((s.c1, s.c2), CandidateWindow(s.c1, s.c2, s.p_min, s.p_max, s.epsilon, s.length))
        assert segment(peaks, cfg, min_len) == sorted(
            spans.values(), key=lambda c: (c.c1, c.p_min, c.c2)
        )

    @settings(max_examples=300, deadline=None)
    @given(peak_streams())
    @example((as_peaks(np.round(np.sort(np.r_[np.arange(12) * 1.3, np.arange(12) * 1.3 + 0.1]), 6)), SweepConfig(), 3))
    @example((as_peaks([0.017637893958872174, 0.4176378939588722]), SweepConfig(), 1))  # gap rounds onto p_min
    @example((as_peaks([-0.06236210604112782, 0.4176378939588722]), SweepConfig(), 1))  # gap rounds onto p_max
    @example((as_peaks([-math.inf, 0.0, 1.0, 2.0, 3.0, 4.0, math.inf]), SweepConfig(), 3))
    def test_matches_walked_segment(self, case):
        # Paired chews tie 2^12 chains on 4 spans, which the full sweep
        # cannot enumerate; the walked-back segmenter finds their spans by
        # another window rule, per-band searches and a deque.
        assert segment(*case) == walked_segment(*case)

    def test_paired_chews_give_spans_not_chains(self):
        # 40 chews 1.3 s apart, each seen as two peaks 0.1 s apart: every
        # gap (1.2, 1.3, 1.4 s) fits one band, so 2^40 tied chains share 4
        # spans.  Enumerating the chains would never finish.
        chews = np.arange(40) * 1.3
        times = np.round(np.sort(np.concatenate([chews, chews + 0.1])), 6)
        t0 = time.perf_counter()
        cands = segment(as_peaks(times), SweepConfig(), min_len=3)
        assert time.perf_counter() - t0 < 1.0
        assert [(c.c1, c.c2, c.length) for c in cands] == [
            (times[0], times[-2], 39), (times[0], times[-1], 39),
            (times[1], times[-2], 39), (times[1], times[-1], 39),
        ]


def fragments(times, cfg):
    # Index bounds of the runs that segment sweeps, split where a gap exceeds cfg.max.
    cuts = [i for i in range(1, len(times)) if times[i] - times[i - 1] > cfg.max]
    return np.array([0, *cuts, len(times)] if len(times) else [0])


class TestScreen:
    @settings(max_examples=300, deadline=None)
    @given(peak_streams(), st.integers(1, 12))
    def test_passes_every_pair_that_reaches_min_len(self, case, min_len):
        # Exactly those pairs up to the round cap of 8 gaps; above it, a
        # superset that the DP decides.
        peaks, cfg = case[:2]
        times = np.array([p.t for p in peaks])
        bounds = fragments(times, cfg)
        passed = {(int(f), int(b)) for f, b in _screen(*_windows(times, cfg.bands()), bounds, min_len)}
        reach = {
            (f, b)
            for f in range(len(bounds) - 1)
            for b, band in enumerate(cfg.bands())
            if max(deque_optima(times[bounds[f] : bounds[f + 1]].tolist(), *band)) >= min_len
        }
        assert passed == reach if min_len <= 8 else passed >= reach

    @settings(max_examples=300, deadline=None)
    @given(peak_streams())
    @example((as_peaks([-math.inf, 0.0, 0.4, 0.9, math.inf]), SweepConfig(), 1))
    def test_windows_match_a_brute_force_scan(self, case):
        peaks, cfg = case[:2]
        times = np.array([p.t for p in peaks])
        first, stop = _windows(times, cfg.bands())
        for b, (p_min, p_max) in enumerate(cfg.bands()):
            for i, t in enumerate(times.tolist()):
                scan = [j for j, u in enumerate(times.tolist()) if p_min <= t - u <= p_max]
                assert scan == list(range(first[b, i], stop[b, i]))

    @settings(max_examples=100, deadline=None)
    @given(peak_streams())
    def test_exact_dp_runs_once_per_passed_pair(self, case):
        peaks, cfg, min_len = case
        times = np.array([p.t for p in peaks])
        bounds = fragments(times, cfg)
        first, stop = _windows(times, cfg.bands())
        passed = [
            ((first[b, lo:hi] - lo).tolist(), (stop[b, lo:hi] - lo).tolist())
            for lo, hi, b in ((bounds[f], bounds[f + 1], b) for f, b in _screen(first, stop, bounds, min_len))
        ]
        calls = []

        def recording(first, stop):
            calls.append((first, stop))
            return optima(first, stop)

        optima = periodic._optima
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(periodic, "_optima", recording)
            segment(peaks, cfg, min_len)
        assert calls == passed

    def test_min_len_past_the_round_cap_stays_exact(self):
        # min_len above the screen's round cap: the DP, not the screen, decides.
        peaks, cfg = as_peaks(np.arange(21) * 0.7), SweepConfig()
        for min_len in (9, 19, 20, 21):
            spans: dict[tuple[float, float], CandidateWindow] = {}
            for s in naive_segment(peaks, cfg, min_len):
                spans.setdefault((s.c1, s.c2), CandidateWindow(s.c1, s.c2, s.p_min, s.p_max, s.epsilon, s.length))
            assert segment(peaks, cfg, min_len) == sorted(spans.values(), key=lambda c: (c.c1, c.p_min, c.c2))
        assert [c.length for c in segment(peaks, cfg, 20)] == [20]
        assert segment(peaks, cfg, 21) == []

    @pytest.mark.parametrize("times", [
        [0.017637893958872174, 0.4176378939588722],  # on p_min, above t[1] - p_min
        [-0.06236210604112782, 0.4176378939588722],  # on p_max, below t[1] - p_max
    ])
    def test_gap_rounded_onto_a_band_edge_passes(self, times):
        # t[1] - t[0] rounds onto an edge of the lowest band, but t[0] lies
        # outside the window that t[1] - p_max and t[1] - p_min bound: only
        # the widening keeps the pair, and the span in that band.
        (p_min, p_max), cfg = SweepConfig().bands()[0], SweepConfig()
        assert times[1] - times[0] in (p_min, p_max)
        assert not times[1] - p_max <= times[0] <= times[1] - p_min
        assert segment(as_peaks(times), cfg, 1) == [CandidateWindow(*times, p_min, p_max, 0.2, 1)]

    @pytest.mark.parametrize("times", [[0.0, 1.0, 2.0, 3.0, 4.0, math.inf], [-math.inf, 0.0, 1.0, 2.0, 3.0, 4.0]])
    def test_infinite_time_keeps_the_finite_run(self, times):
        # An infinite time is a fragment of its own; the bound on rounding
        # comes from the finite times, so the run 0..4 still comes back.
        lo, hi = next((lo, hi) for lo, hi in SweepConfig().bands() if lo <= 1.0 <= hi)
        assert segment(as_peaks(times), SweepConfig(), 3) == [
            CandidateWindow(0.0, 4.0, lo, hi, 0.2, 4)
        ]

    @pytest.mark.parametrize("times", [[], [5.0]])
    def test_empty_and_single_peak_give_nothing(self, times):
        assert segment(as_peaks(times), SweepConfig(), 3) == []


class TestLinearScaling:
    def test_runtime_is_roughly_linear(self):
        # Bounded density and fixed band: 10x the events should cost about
        # 10x the time.  Unit-level smoke check; the acceptance suite runs
        # the full-size version.
        def planted(n, seed):
            rng = np.random.default_rng(seed)
            return np.cumsum(rng.uniform(0.5, 1.0, size=n))

        def timed(n):
            t = planted(n, seed=1)
            start = time.perf_counter()
            longest_abs_periodic(t, 0.5, 1.0)
            return time.perf_counter() - start

        timed(2000)  # warm-up
        small = min(timed(2000) for _ in range(3))
        large = min(timed(20000) for _ in range(3))
        assert large / small < 25

    def test_segment_is_roughly_linear_when_every_band_passes(self):
        # One fragment of about 1 Hz: blocks of a 1 s gap and three gaps at
        # one band's midpoint, every band in turn, so each (fragment, band)
        # pair gets through the screen, its worst case.
        cfg = SweepConfig()
        stride = [g for lo, hi in cfg.bands() for g in (1.0, (lo + hi) / 2, (lo + hi) / 2, (lo + hi) / 2)]

        def timed(n):
            peaks = as_peaks(np.cumsum(np.resize(stride, n)))
            start = time.perf_counter()
            segment(peaks, cfg, 3)
            return time.perf_counter() - start

        times = np.cumsum(np.resize(stride, 2000))
        assert len(list(_screen(*_windows(times, cfg.bands()), np.array([0, 2000]), 3))) == len(cfg.bands())
        timed(2000)  # warm-up
        small = min(timed(2000) for _ in range(3))
        large = min(timed(20000) for _ in range(3))
        assert large / small < 25

    def test_segment_is_roughly_linear_on_a_dense_stream(self):
        # A peak every 0.1 s, the closest prominent peaks of a 20 Hz trace:
        # 12 peaks lie in each union window [t - 1.5, t - 0.4], every band
        # passes the screen, and each window is O(1), so the cost stays linear.
        cfg = SweepConfig()

        def timed(n):
            peaks = as_peaks(np.arange(n) / 10)
            start = time.perf_counter()
            segment(peaks, cfg, 3)
            return time.perf_counter() - start

        times = np.arange(2000) / 10
        first, stop = _windows(times, cfg.bands())
        assert (stop[0] - first[-1]).max() == 12  # from the top band's first to the bottom band's stop
        assert len(list(_screen(first, stop, np.array([0, 2000]), 3))) == len(cfg.bands())
        timed(2000)  # warm-up
        small = min(timed(2000) for _ in range(3))
        large = min(timed(20000) for _ in range(3))
        assert large / small < 25


class TestInvariantValidation:
    def test_gap_outside_band_rejected(self):
        with pytest.raises(ValueError, match="outside band"):
            PeriodicSubsequence(timestamps=(0.0, 2.0), p_min=0.5, p_max=1.0, epsilon=1.0)

    def test_band_ratio_must_respect_epsilon(self):
        with pytest.raises(ValueError, match="ratio"):
            PeriodicSubsequence(timestamps=(0.0, 0.9), p_min=0.5, p_max=1.0, epsilon=0.2)

    def test_band_edge_ratio_allowed(self):
        sub = PeriodicSubsequence(timestamps=(0.0, 0.45), p_min=0.4, p_max=0.48, epsilon=0.2)
        assert sub.length == 1

    @pytest.mark.parametrize("epsilon", [math.nan, 0.0, -1.0, math.inf])
    def test_epsilon_outside_range_rejected(self, epsilon):
        with pytest.raises(ValueError, match=rf"^epsilon must be in \(0, inf\), got {epsilon}$"):
            PeriodicSubsequence(timestamps=(0.0, 1.0), p_min=1.0, p_max=1.0, epsilon=epsilon)

    @pytest.mark.parametrize("p_max", [math.nan, math.inf])
    def test_band_must_be_finite(self, p_max):
        with pytest.raises(ValueError, match=r"^need 0 < p_min <= p_max < inf"):
            PeriodicSubsequence(timestamps=(0.0, 1.0), p_min=1.0, p_max=p_max, epsilon=0.2)
        with pytest.raises(ValueError, match=r"^need 0 < p_min <= p_max < inf"):
            longest_abs_periodic([0.0, 1.0, 2.0], 1.0, p_max)

    def test_single_timestamp_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            PeriodicSubsequence(timestamps=(1.0,), p_min=0.5, p_max=0.6, epsilon=0.2)


class TestCandidateCsv:
    def test_roundtrip(self, tmp_path):
        cands = segment(as_peaks(np.arange(21) * 0.5), SweepConfig(0.4, 1.5, 0.2), 3)
        path = tmp_path / "candidates.csv"
        write_candidate_csv(path, cands)
        assert read_candidate_csv(path) == cands
