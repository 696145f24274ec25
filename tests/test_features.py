import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import naive_extract, naive_label_candidates
from scipy import stats as sp_stats

import chewdet
from chewdet import features
from chewdet.boosting import BoostConfig, TrainedModel, layout_fingerprint, rank_features, train
from chewdet.features import (
    FREQ_HZ,
    SIGNALS,
    extract,
    extract_table,
    feature_layout,
    label_candidates,
    local_hour,
    read_feature_csv,
    write_feature_csv,
)
from chewdet.periodic import CandidateWindow
from chewdet.records import IntervalKind, LabeledInterval
from chewdet.signals import DerivedTrace


def make_trace(n=1200, seed=0, start=0.0):
    rng = np.random.default_rng(seed)
    t = start + np.arange(n) / 20.0
    return DerivedTrace(
        t=t,
        prox=100.0 + rng.normal(0, 3, n),
        ambient=np.abs(500.0 + rng.normal(0, 10, n)),
        lfa=np.clip(90.0 + rng.normal(0, 5, n), 0, 180),
        energy=np.abs(1.0 + rng.normal(0, 0.2, n)),
    )


def cand(c1, c2, p_min=0.5, p_max=0.6, epsilon=0.2, length=5):
    return CandidateWindow(c1=c1, c2=c2, p_min=p_min, p_max=p_max, epsilon=epsilon, length=length)


HOUR0 = local_hour(0.0)
# Interval ends and lengths on a half-second grid (so endpoints touch often)
# or anywhere in a short range.
_ends = st.integers(0, 40).map(lambda k: k / 2) | st.floats(0.0, 20.0)
_lengths = st.integers(1, 16).map(lambda k: k / 2) | st.floats(0.01, 8.0)


class TestLayout:
    def test_full_layout_is_257_wide(self):
        names = feature_layout()
        assert len(names) == 257
        assert len(set(names)) == 257
        assert names[-5:] == ("p_min", "p_max", "epsilon", "length", "hour_of_day")

    def test_subset_layout_shrinks(self):
        # One signal: 30 stats x 2 windows, no correlations, 5 metadata.
        assert len(feature_layout(("prox",))) == 65
        # Two signals: 120 + 1 correlation per window + 5.
        assert len(feature_layout(("prox", "ambient"))) == 127

    def test_unknown_signal_rejected(self):
        with pytest.raises(ValueError, match="unknown signal"):
            feature_layout(("prox", "audio"))

    def test_repeated_signal_rejected(self):
        with pytest.raises(ValueError, match="signal 'prox' is named more than once"):
            feature_layout(("prox", "ambient", "prox"))

    def test_fingerprint_tracks_layout(self):
        assert layout_fingerprint(feature_layout()) != layout_fingerprint(
            feature_layout(("prox",))
        )


class TestExtract:
    def test_vector_matches_layout_and_is_finite(self):
        trace = make_trace()
        vec = extract(trace, cand(20.0, 30.0), HOUR0)
        assert vec.shape == (257,)
        assert np.all(np.isfinite(vec))

    def test_constant_window_degenerates_to_zeros(self):
        n = 400
        trace = DerivedTrace(
            t=np.arange(n) / 20.0,
            prox=np.full(n, 7.0),
            ambient=np.full(n, 3.0),
            lfa=np.full(n, 90.0),
            energy=np.full(n, 1.0),
        )
        names = feature_layout()
        vec = extract(trace, cand(5.0, 12.0), HOUR0)
        by_name = dict(zip(names, vec))
        for feature in ("variance", "iqr", "skewness", "kurtosis"):
            assert by_name[f"prox_cw_{feature}"] == 0.0
        for hz in FREQ_HZ:
            assert by_name[f"prox_cw_fft_{hz:g}hz"] == 0.0
        for a in ("ambient", "lfa", "energy"):
            assert by_name[f"corr_prox_{a}_cw"] == 0.0

    def test_sinusoid_dominates_its_frequency_bin(self):
        n = 500
        t = np.arange(n) / 20.0
        trace = DerivedTrace(
            t=t,
            prox=100.0 + np.sin(2 * np.pi * 1.0 * t),
            ambient=np.full(n, 500.0),
            lfa=np.full(n, 90.0),
            energy=np.full(n, 1.0),
        )
        names = feature_layout()
        vec = extract(trace, cand(3.0, 19.0), HOUR0)  # CW = [1, 21] -> 20 s
        by_name = dict(zip(names, vec))
        target = by_name["prox_cw_fft_1hz"]
        others = [by_name[f"prox_cw_fft_{hz:g}hz"] for hz in FREQ_HZ if hz != 1.0]
        assert target > 10 * max(others)
        assert target == pytest.approx(1.0, rel=0.05)

    def test_band_metadata_passthrough(self):
        # Candidate starting at 13:05 local with band (0.4, 0.48, 0.2, 7).
        trace = DerivedTrace(
            t=13 * 3600.0 + np.arange(1200) / 20.0,
            prox=np.full(1200, 100.0),
            ambient=np.full(1200, 500.0),
            lfa=np.full(1200, 90.0),
            energy=np.full(1200, 1.0),
        )
        c = cand(13 * 3600.0 + 10.0, 13 * 3600.0 + 40.0, 0.4, 0.48, 0.2, 7)
        vec = extract(trace, c, HOUR0)
        assert tuple(vec[-5:]) == (0.4, 0.48, 0.2, 7.0, 13.0)

    def test_offset_invariant_features(self):
        trace = make_trace(seed=3)
        shifted = DerivedTrace(
            t=trace.t,
            prox=trace.prox + 55.0,
            ambient=trace.ambient,
            lfa=trace.lfa,
            energy=trace.energy,
        )
        names = feature_layout()
        invariant = [
            i
            for i, name in enumerate(names)
            if name.startswith("prox_")
            and any(
                key in name
                for key in (
                    "variance", "iqr", "skewness", "kurtosis", "fft_",
                    "count_", "strike", "spec_",
                )
            )
        ]
        for trial in range(10):
            c = cand(10.0 + 4.5 * trial, 22.0 + 4.5 * trial)
            a = extract(trace, c, HOUR0)
            b = extract(shifted, c, HOUR0)
            assert np.allclose(a[invariant], b[invariant], atol=1e-9)

    def test_time_translation_changes_only_hour(self):
        trace = make_trace(seed=4)
        names = feature_layout()
        hour_idx = names.index("hour_of_day")
        shift = 5 * 3600.0
        moved = DerivedTrace(
            t=trace.t + shift,
            prox=trace.prox,
            ambient=trace.ambient,
            lfa=trace.lfa,
            energy=trace.energy,
        )
        for trial in range(10):
            c = cand(8.0 + 5.0 * trial, 20.0 + 5.0 * trial)
            c_moved = cand(c.c1 + shift, c.c2 + shift)
            a = extract(trace, c, HOUR0)
            b = extract(moved, c_moved, HOUR0)
            keep = np.ones(len(names), dtype=bool)
            keep[hour_idx] = False
            assert np.allclose(a[keep], b[keep], atol=1e-9)
            assert b[hour_idx] == (a[hour_idx] + 5) % 24

    def test_empty_window_after_clipping_errors(self):
        trace = make_trace(n=100)  # spans 5 s
        with pytest.raises(ValueError, match="window.*empty"):
            extract(trace, cand(50.0, 60.0), HOUR0)

    def test_moments_match_scipy(self):
        rng = np.random.default_rng(6)
        trace = make_trace(seed=6)
        vec = extract(trace, cand(10.0, 25.0), HOUR0)
        names = feature_layout()
        by_name = dict(zip(names, vec))
        sl = slice(
            int(np.searchsorted(trace.t, 8.0 - 1e-9)),
            int(np.searchsorted(trace.t, 27.0 + 1e-9, side="right")),
        )
        window = trace.prox[sl]
        assert by_name["prox_cw_skewness"] == pytest.approx(sp_stats.skew(window))
        assert by_name["prox_cw_kurtosis"] == pytest.approx(
            sp_stats.kurtosis(window)
        )
        assert by_name["prox_cw_variance"] == pytest.approx(np.var(window))
        assert by_name["prox_cw_q1"] == pytest.approx(np.percentile(window, 25))

    def test_order_independence(self):
        trace = make_trace(seed=7)
        c_a, c_b = cand(10.0, 20.0), cand(30.0, 40.0)
        direct = extract(trace, c_a, HOUR0)
        table = extract_table(trace, [c_b, c_a], HOUR0, "P1")
        assert table.X[1].tobytes() == direct.tobytes()


@st.composite
def feature_cases(draw):
    # Short traces of constant, tied (rounded), noisy or signed (-0.0, 0.0,
    # 1.0 and 2.0) signals, a NaN sometimes planted in prox, and candidates
    # anywhere from 2.5 s before the trace to 2.5 s after it, on or just off
    # the sample grid, so windows clip at either end down to 1 or 2 samples
    # or to nothing.  An infinite p_min makes a non-finite feature.
    n = draw(st.integers(1, 120))
    start = draw(st.sampled_from([0.0, 13 * 3600.0 + 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def signal(level, scale):
        kind = draw(st.sampled_from(["constant", "tied", "noisy", "signed"]))
        if kind == "constant":
            return np.full(n, level)
        if kind == "signed":
            return rng.choice([-0.0, 0.0, 1.0, 2.0], size=n)
        x = level + scale * rng.normal(size=n)
        return np.round(x) if kind == "tied" else x

    prox = signal(100.0, 3.0)
    if draw(st.integers(0, 3)) == 0:
        prox[draw(st.integers(0, n - 1))] = np.nan
    trace = DerivedTrace(
        t=start + np.arange(n) / 20.0,
        prox=prox,
        ambient=signal(500.0, 10.0),
        lfa=np.clip(signal(90.0, 40.0), 0.0, 180.0),
        energy=np.abs(signal(1.0, 0.5)),
    )
    base = [
        cand(c1, c1 + gap / 20.0, length=length)
        for c1, gap, length in draw(st.lists(
            st.tuples(
                st.builds(
                    lambda i, jitter: start + i / 20.0 + jitter,
                    st.integers(-50, n + 50) | st.sampled_from([-41, -40, -39, n + 38, n + 39, n + 40]),
                    st.sampled_from([0.0, 0.01]),
                ),
                st.integers(0, 80),
                st.integers(2, 9),
            ),
            min_size=1, max_size=5,
        ))
    ]
    if draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(base) - 1))
        base[k] = replace(base[k], p_min=np.inf)
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=8))
    size = draw(st.sampled_from([1, 2, 4]))
    signals = tuple(draw(st.permutations(SIGNALS))[:size])
    return trace, [base[k] for k in picks], signals


def bad_band_before_nan():
    # The first candidate's band is infinite and the second's windows hold
    # a NaN prox sample: the first candidate's error must win.
    trace = make_trace(n=100, seed=12)
    trace.prox[80] = np.nan
    return trace, [cand(1.0, 1.5, p_min=np.inf), cand(4.0, 4.2)], SIGNALS


def overflowing_skewness():
    # The prox variance is about 1e220, so its m2**1.5 overflows a float:
    # the row must fail as non-finite, naming the candidate.
    trace = make_trace(n=200, seed=13)
    trace.prox[:] = 1e110 * np.random.default_rng(13).normal(size=200)
    return trace, [cand(2.0, 6.0)], SIGNALS


def chunks_crossed(bad, signals=SIGNALS):
    # 140 candidates in no length order, with 29 distinct chewing-window
    # lengths, so each window kind spans three length-sorted blocks of 64;
    # some windows are clipped at the trace start, some at its end, and one
    # at both.  With bad, the first candidate's band is infinite and its
    # chewing window sorts into the second block, while a NaN prox sample
    # lies only in windows of later candidates: the first candidate's error
    # must win.  On two signals, peaks are counted in passes of 128 rows.
    trace = make_trace(n=400, seed=14)  # spans 20 s
    cands = [cand(15.0, 15.9, p_min=np.inf if bad else 0.5), cand(0.5, 19.5)]
    cands += [cand(k * 13 % 390 / 20.0, k * 13 % 390 / 20.0 + k * 7 % 30 / 20.0) for k in range(138)]
    if bad:
        trace.prox[20] = np.nan
    return trace, cands, signals


def nan_in_second_pass():
    # 140 candidates on two signals, so peaks are counted in passes of 128
    # rows.  The windows of the first 130 end by 8.5 s, and a NaN ambient
    # sample at 15 s lies only in windows of the last 10: the error must name
    # that sample by its trace index from the second pass.
    trace = make_trace(n=400, seed=16)
    cands = [cand(2.0 + k % 40 / 10.0, 2.0 + k % 40 / 10.0 + k % 7 / 10.0) for k in range(130)]
    cands += [cand(13.0 + k / 10.0, 13.5 + k / 10.0) for k in range(10)]
    trace.ambient[300] = np.nan
    return trace, cands, ("prox", "ambient")


MIXED_ZEROS = [2.0, -0.0, 2.0, 0.0, 2.0, 2.0, 1.0, 1.0, 0.0, -0.0, 0.0, -0.0]


def padded(*windows, n_sig=1):
    # A (k, S, w) block of windows in length order, padded with +inf past
    # each window's samples, and the window lengths.
    lengths = np.array([len(x) // n_sig for x in windows])
    block = np.full((len(windows), n_sig, lengths.max()), np.inf)
    for row, x, n in zip(block, windows, lengths):
        row[:, :n] = np.reshape(x, (n_sig, n))
    return block, lengths


@st.composite
def quartile_blocks(draw, pool):
    n_sig = draw(st.integers(1, 3))
    lengths = sorted(draw(st.lists(st.integers(1, 40), min_size=1, max_size=8)))
    samples = st.sampled_from(pool)
    return padded(*(draw(st.lists(samples, min_size=n * n_sig, max_size=n * n_sig)) for n in lengths),
                  n_sig=n_sig)


def check_quartiles(block, lengths):
    want = [[np.percentile(x[:n], [25.0, 50.0, 75.0]) for x in row] for row, n in zip(block, lengths)]
    assert features._quartiles(block, lengths).tobytes() == np.moveaxis(want, -1, 0).tobytes()


class TestBlockPath:
    @settings(max_examples=300, deadline=None)
    @given(feature_cases())
    @example(bad_band_before_nan())
    @example(overflowing_skewness())
    @example(chunks_crossed(bad=False))
    @example(chunks_crossed(bad=True))
    @example(chunks_crossed(bad=False, signals=("prox", "ambient")))
    @example(chunks_crossed(bad=True, signals=("prox", "ambient")))
    @example(nan_in_second_pass())
    def test_matches_per_window_oracle_bit_for_bit(self, case):
        trace, cands, signals = case
        try:
            expected = [naive_extract(trace, c, HOUR0, signals=signals) for c in cands]
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                extract_table(trace, cands, HOUR0, "P1", signals=signals)
            assert str(got.value) == str(exc)
            return
        table = extract_table(trace, cands, HOUR0, "P1", signals=signals)
        assert table.X.tobytes() == np.array(expected).tobytes()

    def test_peaks_counted_in_one_pass_per_signal(self, monkeypatch):
        windows = []
        original = features.window_peak_counts

        def counting(signal, starts, stops, min_prominence):
            windows.append(len(starts))
            return original(signal, starts, stops, min_prominence)

        monkeypatch.setattr(features, "window_peak_counts", counting)
        c_a, c_b = cand(10.0, 20.0), cand(30.0, 40.0)
        table = extract_table(make_trace(seed=11), [c_a, c_b, c_a, c_a], HOUR0, "P1")
        assert windows == [4 * 2] * len(SIGNALS)  # one pass per signal, over both windows
        assert table.X[0].tobytes() == table.X[2].tobytes() == table.X[3].tobytes()
        # A pass holds both windows of at most 64 x S rows: 140 rows on two
        # signals take two passes per signal.
        windows.clear()
        trace, cands, signals = chunks_crossed(bad=False, signals=("prox", "ambient"))
        extract_table(trace, cands, HOUR0, "P1", signals=signals)
        assert windows == [128 * 2] * 2 + [12 * 2] * 2

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 12), st.sampled_from(["mixed", "all True", "all False"]),
           st.integers(0, 2**32 - 1))
    @example(3, 1, "mixed", 0)
    @example(2, 5, "all True", 0)
    @example(2, 5, "all False", 0)
    def test_longest_runs_match_per_row_loop(self, n_rows, width, kind, seed):
        mask = np.random.default_rng(seed).random((n_rows, 2, width)) < 0.6
        if kind != "mixed":
            mask[:] = kind == "all True"
        expected = np.zeros(mask.shape[:-1], dtype=int)
        for i, s in np.ndindex(*expected.shape):
            run = 0
            for v in mask[i, s]:
                run = run + 1 if v else 0
                expected[i, s] = max(expected[i, s], run)
        assert features._longest_runs(mask).tolist() == expected.tolist()

    # Samples with no overflow in between, so any RuntimeWarning means a
    # pad was read (inf - inf): it fails the test.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(quartile_blocks([-0.0, 0.0, -1.0, 1.0, 0.5, 2.0]))
    @example(padded([-0.0]))
    @example(padded(MIXED_ZEROS))
    @example(padded([-0.0], [0.0, 1.0], MIXED_ZEROS))
    def test_quartiles_match_percentile_finite(self, case):
        check_quartiles(*case)

    @settings(max_examples=300, deadline=None)
    @given(quartile_blocks([-0.0, 0.0, -1.0, 1.0, -1e308, 1e308, -np.inf, np.inf, np.nan]))
    @example(padded([-0.0], [1e308, -1e308, np.inf]))
    def test_quartiles_match_percentile_extreme(self, case):
        with np.errstate(all="ignore"):
            check_quartiles(*case)

    def test_no_percentile_and_one_reduction_per_length_and_block(self, monkeypatch):
        # 130 candidates on the sample grid with 20 distinct chewing-window
        # lengths (gap + 81 samples) and one bite-window length (81).
        gaps = [k * 7 % 20 for k in range(130)]
        cands = [cand(3.0 + k % 50 / 2, 3.0 + k % 50 / 2 + g / 20.0) for k, g in enumerate(gaps)]
        blocks, lengths = [], []
        window_features, length_stats = features._window_features, features._length_stats

        def count_block(block, *args):
            blocks.append(block.shape[0])
            return window_features(block, *args)

        def count_length(x, *args):
            lengths.append(x.shape[-1])
            return length_stats(x, *args)

        def refuse(*args, **kwargs):
            raise AssertionError("np.percentile called")

        monkeypatch.setattr(features, "_window_features", count_block)
        monkeypatch.setattr(features, "_length_stats", count_length)
        monkeypatch.setattr(np, "percentile", refuse)
        extract_table(make_trace(seed=15), cands, HOUR0, "P1")
        cw = sorted(g + 81 for g in gaps)
        expected = [n for lo in range(0, 130, 64) for n in sorted(set(cw[lo:lo + 64]))] + [81] * 3
        assert sorted(lengths) == sorted(expected)
        assert sorted(blocks) == sorted([64, 64, 2] * 2)

    def test_nan_sample_named_by_its_trace_index(self):
        trace = make_trace(n=100, seed=12)
        trace.prox[80] = np.nan  # sample 40 of the candidate's cw window
        with pytest.raises(ValueError, match=r"^signal sample 80 is not finite \(nan\)$"):
            extract_table(trace, [cand(4.0, 4.2)], HOUR0, "P1")


# Featurizes a fixed trace built from integer ratios (no numpy function
# whose bits follow CPU dispatch) and prints the matrix's bytes as hex.
DISPATCH_SCRIPT = """
import numpy as np
from chewdet.features import extract_table, local_hour
from chewdet.periodic import CandidateWindow
from chewdet.signals import DerivedTrace

k = np.arange(1200)
trace = DerivedTrace(
    t=k / 20.0,
    prox=100.0 + (k * 37 % 101 - 50) / 7.0,
    ambient=500.0 + (k * 11 % 29) / 3.0,
    lfa=90.0 + (k * 13 % 61 - 30) / 9.0,
    energy=1.0 + (k * 7 % 17) / 13.0,
)
cands = [CandidateWindow(c1, c1 + 6.5, 0.5, 0.6, 0.2, 5) for c1 in (3.0, 11.25, 20.0, 31.5, 47.0)]
print(extract_table(trace, cands, local_hour(0.0), "P1").X.tobytes().hex())
"""


def avx512_targets():
    """numpy's AVX-512 dispatch targets that this host's CPU runs."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [name for name in __cpu_dispatch__
            if (name == "X86_V4" or name.startswith("AVX512")) and __cpu_features__.get(name)]


class TestHostIndependence:
    def test_features_do_not_follow_avx512_dispatch(self):
        # numpy picks a kernel per CPU at import; NPY_DISABLE_CPU_FEATURES
        # turns targets off for one process.  Features use no operation
        # whose bits follow the AVX-512 kernels, so the bytes agree.
        targets = avx512_targets()
        if not targets:
            pytest.skip("numpy runs no AVX-512 kernel in this process")
        src = str(Path(chewdet.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        runs = [
            subprocess.run([sys.executable, "-c", DISPATCH_SCRIPT], env=run_env, check=True,
                           capture_output=True, text=True).stdout
            for run_env in (env, {**env, "NPY_DISABLE_CPU_FEATURES": " ".join(targets)})
        ]
        assert runs[0] and runs[0] == runs[1]


class TestLabeling:
    def test_overlap_rule(self):
        chews = [LabeledInterval(10.0, 20.0, IntervalKind.CHEW, "P1")]
        cands = [
            cand(11.0, 19.0),  # fully inside
            cand(16.0, 28.0),  # 4 / 12 covered
            cand(14.0, 24.0),  # 6 / 10 covered
            cand(40.0, 50.0),  # disjoint
        ]
        labels = label_candidates(cands, chews, min_overlap=0.5)
        assert labels.tolist() == [1, 0, 1, 0]

    @settings(max_examples=400, deadline=None)
    @given(
        chews=st.lists(st.tuples(_ends, _lengths), max_size=10),
        cands=st.lists(st.tuples(_ends, _lengths | st.just(0.0)), max_size=10),
        min_overlap=st.sampled_from([0.0, 0.25, 0.5, 1.0, None]),
    )
    # Summed in reverse start order, these overlaps come out one ulp low.
    @example([(0.81, 1.14), (2.87, 0.11), (2.35, 1.66), (2.66, 1.51)], [(0.0, 3.0)], None)
    def test_matches_all_pairs_oracle(self, chews, cands, min_overlap):
        # Overlapping, nested and touching chews, zero-length candidates and
        # empty sides all occur; min_overlap None sets the threshold to the
        # first candidate's exact coverage, so a sum in another order that
        # lands one ulp low flips its label.
        ivs = [LabeledInterval(a, a + d, IntervalKind.CHEW, "P1") for a, d in chews]
        cs = [cand(a, a + d) for a, d in cands]
        if min_overlap is None:
            c = cs[0] if cs else cand(0.0, 1.0)
            covered = 0.0
            for a, b in sorted((iv.start, iv.end) for iv in ivs):
                covered += max(0.0, min(b, c.c2) - max(a, c.c1))
            min_overlap = covered / (c.c2 - c.c1) if c.c2 > c.c1 else 0.5
        expected = naive_label_candidates(cs, ivs, min_overlap)
        assert label_candidates(cs, ivs, min_overlap).tolist() == expected.tolist()

    def test_day_scale_is_not_quadratic(self):
        # 20,000 x 20,000 would take minutes comparing every pair.
        rng = np.random.default_rng(4)
        chews = [LabeledInterval(10.0 * i, 10.0 * i + 6.0, IntervalKind.CHEW, "P1")
                 for i in range(20_000)]
        starts = rng.uniform(0.0, 200_000.0, size=20_000)
        cands = [cand(a, a + d) for a, d in zip(starts, rng.uniform(1.0, 30.0, size=20_000))]
        t0 = time.perf_counter()
        labels = label_candidates(cands, chews)
        assert time.perf_counter() - t0 < 2.0
        assert 0 < labels.sum() < len(cands)


class TestRanking:
    def test_single_stump_is_ranked_first(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 5))
        y = (X[:, 3] > 0).astype(int)
        cfg = BoostConfig(
            eta=0.3, max_depth=1, gamma=0.0, min_child_weight=0.0,
            subsample=1.0, n_rounds=1, reg_lambda=0.0,
        )
        model = train(X, y, cfg, feature_names=[f"f{i}" for i in range(5)])
        ranking = rank_features(model)
        assert ranking == [("f3", 1)]

    def test_zero_tree_model_ranks_nothing(self):
        model = TrainedModel(
            trees=(),
            base_score=0.0,
            config=BoostConfig(),
            feature_names=("a", "b"),
        )
        assert rank_features(model) == []

    def test_hour_only_separation_ranks_hour_first(self):
        # Classes differ only in the hour column; everything else is the
        # same shared noise across both classes.
        rng = np.random.default_rng(9)
        noise = rng.normal(size=(60, 4))
        X = np.hstack([np.vstack([noise, noise]), np.zeros((120, 1))])
        X[:60, 4] = 12.0
        X[60:, 4] = 3.0
        y = np.array([1] * 60 + [0] * 60)
        cfg = BoostConfig(
            eta=0.3, max_depth=1, gamma=0.0, min_child_weight=0.0,
            subsample=1.0, n_rounds=5, reg_lambda=0.0,
        )
        names = ["a", "b", "c", "d", "hour_of_day"]
        model = train(X, y, cfg, feature_names=names)
        ranking = rank_features(model)
        assert ranking[0] == ("hour_of_day", 5)


class TestFeatureCsv:
    def test_roundtrip(self, tmp_path):
        trace = make_trace(seed=10)
        cands = [cand(10.0, 20.0), cand(30.0, 40.0)]
        chews = [LabeledInterval(9.0, 21.0, IntervalKind.CHEW, "P1")]
        table = extract_table(trace, cands, HOUR0, "P1", chews=chews)
        path = tmp_path / "features.csv"
        write_feature_csv(path, table)
        back = read_feature_csv(path)
        assert back.names == table.names
        assert np.array_equal(back.X, table.X)
        assert back.label.tolist() == table.label.tolist()
        assert back.participant == table.participant
