import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import naive_prominent_peaks, stack_prominences
from scipy import signal as sp_signal

from chewdet import peaks
from chewdet.cli import _read_peaks_csv, _write_peaks_csv
from chewdet.peaks import Peak, find_prominent_peaks, window_peak_counts

# Peak finding must not compute inf - inf or other invalid values at the
# walls between windows: any RuntimeWarning fails a test here.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def peaks_of(values, min_prominence=4.5):
    values = np.asarray(values, dtype=float)
    return find_prominent_peaks(values, np.arange(len(values), dtype=float), min_prominence)


class TestBasics:
    def test_flat_signal_has_no_peaks(self):
        assert peaks_of([5, 5, 5, 5]) == []

    def test_single_summit(self):
        found = peaks_of([0, 10, 0])
        assert len(found) == 1
        assert found[0].t == 1.0
        assert found[0].height == 10.0
        assert found[0].prominence == 10.0

    def test_side_bumps_rejected(self):
        # The 8-summit dominates; the value-3 bumps fall under the threshold.
        found = peaks_of([0, 3, 1, 8, 1, 3, 0], min_prominence=4.5)
        assert [(p.t, p.height, p.prominence) for p in found] == [(3.0, 8.0, 8.0)]

    def test_side_bump_prominence_uses_higher_base(self):
        # Left bump: bases are 0 (signal start) and 1 (saddle before the 8);
        # prominence is height minus the higher base.
        found = peaks_of([0, 3, 1, 8, 1, 3, 0], min_prominence=1.0)
        by_t = {p.t: p.prominence for p in found}
        assert by_t[1.0] == 2.0
        assert by_t[5.0] == 2.0
        assert by_t[3.0] == 8.0

    def test_plateau_resolves_to_leftmost_sample(self):
        found = peaks_of([0, 7, 7, 7, 0], min_prominence=1.0)
        assert [p.t for p in found] == [1.0]

    def test_endpoints_never_peaks(self):
        assert peaks_of([9, 1, 1, 9], min_prominence=1.0) == []

    def test_length_mismatch_errors(self):
        with pytest.raises(ValueError, match="length"):
            find_prominent_peaks([1, 2, 3], [0.0, 1.0], 1.0)

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError, match=r"^min_prominence must be in \(0, inf\), got 0.0$"):
            peaks_of([0, 1, 0], min_prominence=0.0)

    def test_nan_sample_rejected_with_its_index(self):
        with pytest.raises(ValueError, match="sample 3 is not finite"):
            peaks_of([0, 9, 1, np.nan, 0, 8, 0], min_prominence=1.0)

    def test_infinite_sample_rejected_with_its_index(self):
        # An infinite sample would otherwise be a peak of infinite prominence.
        with pytest.raises(ValueError, match="sample 2 is not finite"):
            peaks_of([0, 9, np.inf, 1, 0, 8, 0], min_prominence=1.0)

    def test_sorted_by_time(self):
        rng = np.random.default_rng(0)
        found = peaks_of(rng.normal(size=300), min_prominence=0.5)
        times = [p.t for p in found]
        assert times == sorted(times)


class TestInvariants:
    def test_offset_invariance(self):
        rng = np.random.default_rng(1)
        sig = rng.normal(size=200)
        base = peaks_of(sig, 0.8)
        shifted = peaks_of(sig + 123.45, 0.8)
        assert [p.t for p in base] == [p.t for p in shifted]
        for a, b in zip(base, shifted):
            assert b.prominence == pytest.approx(a.prominence)

    def test_scaling_scales_prominence(self):
        rng = np.random.default_rng(2)
        sig = rng.normal(size=200)
        base = peaks_of(sig, 0.5)
        scaled = find_prominent_peaks(3.0 * sig, np.arange(200.0), 1.5)
        assert [p.t for p in base] == [p.t for p in scaled]
        for a, b in zip(base, scaled):
            assert b.prominence == pytest.approx(3.0 * a.prominence)

    def test_raising_threshold_only_removes(self):
        rng = np.random.default_rng(3)
        sig = rng.normal(size=400)
        previous = None
        for thr in (0.2, 0.5, 1.0, 2.0, 4.0):
            current = {p.t for p in peaks_of(sig, thr)}
            if previous is not None:
                assert current <= previous
            previous = current

    def test_output_subset_of_local_maxima(self):
        rng = np.random.default_rng(4)
        sig = rng.normal(size=300)
        maxima = {
            float(i)
            for i in range(1, 299)
            if sig[i] > sig[i - 1] and sig[i] > sig[i + 1]
        }
        assert {p.t for p in peaks_of(sig, 0.1)} <= maxima

    def test_prominence_bounded_by_height_above_global_min(self):
        rng = np.random.default_rng(5)
        sig = rng.normal(size=500)
        for p in peaks_of(sig, 0.1):
            assert p.prominence <= p.height - sig.min() + 1e-12


def _runs(pairs):
    return [v for v, k in pairs for _ in range(k)]


# Small integer alphabets give ties and plateaus; explicit runs give long
# flat stretches (at the ends too); ranges give monotone slopes.
signals = st.one_of(
    st.lists(st.integers(0, 4), max_size=64),
    st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 6)), max_size=12).map(
        lambda pairs: _runs(pairs)[:64]
    ),
    st.lists(
        st.tuples(st.integers(-20, 20), st.integers(-3, 3), st.integers(1, 8)), max_size=8
    ).map(lambda parts: [a + d * i for a, d, k in parts for i in range(k)][:64]),
)


class TestOracle:
    @settings(max_examples=400, deadline=None)
    @given(values=signals, threshold=st.sampled_from([1e-9, 0.5, 1.0, 2.0, 3.5]))
    def test_matches_outward_walk(self, values, threshold):
        ours = [(int(p.t), p.height, p.prominence) for p in peaks_of(values, threshold)]
        assert ours == naive_prominent_peaks(values, threshold)

    def test_drifting_ramp_closed_form(self):
        # 0.5 i + 5 [i odd]: each odd sample's right base is its even
        # neighbour, and its left search runs down to sample 0, so every
        # interior odd sample is a peak of prominence exactly 4.5.
        i = np.arange(20_000)
        found = peaks_of(0.5 * i + 5.0 * (i % 2), min_prominence=4.5)
        assert [p.t for p in found] == [float(k) for k in range(1, 19_999, 2)]
        assert {p.prominence for p in found} == {4.5}


@st.composite
def windowed_signals(draw):
    # Windows of 0 to 3 samples, longer ones, and repeats of drawn windows;
    # run-heavy signals put plateaus across window edges.  (In the first
    # explicit example the middle summit's prominence is 1 in its window
    # but 10 if a base search crossed the walls; in the second, [0, 7, 7]
    # ends on a plateau that is a peak only in the longer window.)
    values = draw(signals)
    n = len(values)
    drawn = draw(st.lists(
        st.tuples(st.integers(0, n), st.integers(0, 3) | st.integers(0, 64)), max_size=8,
    ))
    windows = [(a, min(a + size, n)) for a, size in drawn]
    if windows:
        windows += draw(st.lists(st.sampled_from(windows), max_size=3))
    return values, windows


class TestWindowCounts:
    @settings(max_examples=400, deadline=None)
    @given(case=windowed_signals(), threshold=st.sampled_from([1e-9, 0.5, 1.0, 2.0, 3.5]))
    @example(case=([0, 5, 0, 9, 10, 9, 0, 5, 0], [(0, 3), (3, 6), (6, 9)]), threshold=2.0)
    @example(case=([0, 7, 7, 0], [(0, 3), (0, 4)]), threshold=1.0)
    def test_matches_per_window_peaks(self, case, threshold):
        values, windows = case
        x = np.asarray(values, dtype=float)
        t = np.arange(len(x), dtype=float)
        starts = [a for a, _ in windows]
        stops = [b for _, b in windows]
        expected = [len(find_prominent_peaks(x[a:b], t[a:b], threshold)) for a, b in windows]
        assert window_peak_counts(x, starts, stops, threshold).tolist() == expected

    def test_non_finite_sample_named_by_signal_index(self):
        x = np.array([0.0, 9.0, 1.0, np.nan, 0.0, 8.0, 0.0])
        assert window_peak_counts(x, [0], [3], 1.0).tolist() == [1]
        with pytest.raises(ValueError, match="sample 3 is not finite"):
            window_peak_counts(x, [0, 2], [3, 6], 1.0)

    def test_windows_of_several_signals(self):
        # Window i reads signals[of[i]]; a non-finite sample is named by its
        # index in its own signal, and `of` must index the signals.
        x, y = np.array([0.0, 9.0, 1.0, 5.0, 0.0]), np.array([3.0, 0.0, 4.0, 0.0, np.nan])
        assert window_peak_counts([x, y], [0, 0, 1], [5, 4, 5], 1.0, of=[0, 1, 0]).tolist() == [2, 1, 1]
        with pytest.raises(ValueError, match="sample 4 is not finite"):
            window_peak_counts([x, y], [0, 2], [5, 5], 1.0, of=[0, 1])
        with pytest.raises(ValueError, match="bounds"):
            window_peak_counts([x, y], [0], [5], 1.0, of=[2])
        with pytest.raises(ValueError, match="one length"):
            window_peak_counts([x, y[:4]], [0], [4], 1.0, of=[0])

    def test_bad_bounds_and_threshold_rejected(self):
        x = np.zeros(5)
        with pytest.raises(ValueError, match="bounds"):
            window_peak_counts(x, [2], [1], 1.0)
        with pytest.raises(ValueError, match="bounds"):
            window_peak_counts(x, [0], [6], 1.0)
        with pytest.raises(ValueError, match=r"^min_prominence must be in \(0, inf\), got 0.0$"):
            window_peak_counts(x, [0], [5], 0.0)


def walled(*windows):
    # Windows laid end to end between infinite walls, as _prominences takes them.
    parts = [[np.inf]]
    for w in windows:
        parts += [np.asarray(w, dtype=float), [np.inf]]
    return np.concatenate(parts)


@st.composite
def walled_traces(draw):
    # 200 to 2,000 samples cut into 1 to 21 windows: Gaussian or integer
    # random walks; draws from a small integer alphabet, which tie
    # neighbouring maxima and make plateaus; a rising or falling drift plus
    # alternating or Gaussian noise, whose maxima lean on their neighbours;
    # or an expanding oscillation, whose maxima lean on neither.
    n = draw(st.integers(200, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["walk", "integer walk", "alphabet", "drift", "expanding"]))
    i = np.arange(n)
    if kind == "walk":
        x = rng.normal(size=n).cumsum()
    elif kind == "integer walk":
        x = rng.integers(-2, 3, size=n).cumsum().astype(float)
    elif kind == "alphabet":
        x = rng.integers(0, draw(st.integers(2, 5)), size=n).astype(float)
    elif kind == "drift":
        noise = 5.0 * (i % 2) if draw(st.booleans()) else rng.normal(size=n)
        x = draw(st.sampled_from([-0.5, 0.5])) * i + noise
    else:
        x = i * rng.uniform(0.5, 2.0) * (-1.0) ** i
    cuts = np.sort(rng.choice(np.arange(1, n), size=draw(st.integers(0, 20)), replace=False))
    return walled(*np.split(x, cuts))


def stack_sizes(monkeypatch) -> list[int]:
    # The number of highs, walls included, that reach each _bases call.
    sizes = []
    original = peaks._bases

    def recording(highs, valleys):
        sizes.append(len(highs))
        return original(highs, valleys)

    monkeypatch.setattr(peaks, "_bases", recording)
    return sizes


class TestPeel:
    """The peel in front of the stack leaves every prominence bit for bit."""

    @staticmethod
    def assert_matches_stack(x):
        at, prom = peaks._prominences(x)
        want_at, want_prom = stack_prominences(x)
        assert at.tolist() == want_at.tolist()
        assert prom.tobytes() == want_prom.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(x=walled_traces())
    def test_matches_stack_bit_for_bit(self, x):
        self.assert_matches_stack(x)

    @pytest.mark.parametrize("step", [1, -1], ids=["rising", "falling"])
    def test_staircase_stops_peeling_after_one_round(self, monkeypatch, step):
        # The drifting ramp, either way round: each maximum is below its
        # uphill neighbour, and its uphill valley is the higher one, so it
        # leans on that neighbour.  The first round settles all 1,000, and
        # the stack takes none.
        i = np.arange(2001)
        x = walled((0.5 * i + 5.0 * (i % 2))[::step])
        sizes = stack_sizes(monkeypatch)
        self.assert_matches_stack(x)
        assert sizes == [0, 0]

    def test_rise_and_fall_leaves_the_tied_summits(self, monkeypatch):
        # The ramp up, then mirrored: 1,000 maxima rise to two tied summits
        # and fall again.  Every maximum but the summits leans uphill and
        # goes in the first round.  Neither summit is below the other, and
        # the valley between them is above their outer valleys, so the
        # second round settles none and the stack takes the two.
        i = np.arange(1001)
        up = 0.5 * i + 5.0 * (i % 2)
        x = walled(np.concatenate((up, up[-2::-1])))
        sizes = stack_sizes(monkeypatch)
        self.assert_matches_stack(x)
        assert sizes == [2, 2]

    def test_expanding_oscillation_goes_to_the_stack(self, monkeypatch):
        # (-1)^i i: each maximum is above the one before it, and its valleys
        # fall away on the side of the higher neighbour, so it leans on
        # neither.  Only the first of the 1,999 maxima, which leans on the
        # start, settles; the round stops and the stack takes 1,998 in O(n).
        i = np.arange(4000)
        x = walled(i * (-1.0) ** i)
        sizes = stack_sizes(monkeypatch)
        self.assert_matches_stack(x)
        assert sizes == [1998, 1998]

    def test_equal_neighbouring_maxima_are_not_peeled(self, monkeypatch):
        # The two 5s tie: each one's search runs past the other to the ends,
        # so both have prominence 5.  Peeled, the first would read 5 - 1.
        # The 3s are below both neighbours and go in the first round; the
        # tied pair is then left to the stack.
        x = walled([0, 3, 1, 5, 2, 5, 1, 3, 0])
        sizes = stack_sizes(monkeypatch)
        at, prom = peaks._prominences(x)
        assert at.tolist() == [2, 4, 6, 8]
        assert prom.tolist() == [2.0, 5.0, 5.0, 2.0]
        assert sizes == [2, 2]
        self.assert_matches_stack(x)

    def test_walls_stop_the_peel_as_they_stop_the_stack(self, monkeypatch):
        # Each summit is alone between two walls, so all are settled in one
        # round with their own window's valleys; the five walls between the
        # windows go to the stack.  One-sample and monotone windows hold no
        # maximum, nor do plateaus touching a wall.
        x = walled([0, 5, 0], [0, 1, 0], [3, 9, 3], [4], [1, 2, 3], [6, 6, 2, 7, 7])
        sizes = stack_sizes(monkeypatch)
        at, prom = peaks._prominences(x)
        assert at.tolist() == [2, 6, 10]
        assert prom.tolist() == [5.0, 1.0, 6.0]
        assert sizes == [5, 5]
        self.assert_matches_stack(x)


class TestScipyCrossCheck:
    def test_matches_scipy_on_plateau_free_signals(self):
        # Continuous noise has no exact ties, so plateau conventions cannot
        # differ and the two implementations must agree exactly.
        rng = np.random.default_rng(6)
        for trial in range(20):
            sig = rng.normal(size=500).cumsum() + rng.normal(size=500)
            thr = float(rng.uniform(0.3, 2.0))
            ours = peaks_of(sig, thr)
            idx, props = sp_signal.find_peaks(sig, prominence=thr)
            assert [p.t for p in ours] == [float(i) for i in idx]
            assert np.allclose([p.prominence for p in ours], props["prominences"])


class TestPeakValue:
    def test_fields_repr_and_tuple_equality(self):
        p = Peak(t=1.5, height=10.0, prominence=4.5)
        assert Peak._fields == ("t", "height", "prominence")
        assert repr(p) == "Peak(t=1.5, height=10.0, prominence=4.5)"
        assert p == Peak(1.5, 10.0, 4.5) == (1.5, 10.0, 4.5)
        t, height, prominence = p
        assert (t, height, prominence) == (p.t, p.height, p.prominence)
        assert sorted([Peak(2.0, 1.0, 1.0), p]) == [p, Peak(2.0, 1.0, 1.0)]

    def test_immutable_and_hashable(self):
        p = Peak(1.5, 10.0, 4.5)
        with pytest.raises(AttributeError):
            p.t = 2.0
        assert hash(p) == hash((1.5, 10.0, 4.5))
        assert {p, Peak(1.5, 10.0, 4.5)} == {p}

    def test_found_peaks_are_peaks_of_python_floats(self):
        found = peaks_of([0, 3, 1, 8, 1, 3, 0], min_prominence=1.0)
        assert found == [Peak(1.0, 3.0, 2.0), Peak(3.0, 8.0, 8.0), Peak(5.0, 3.0, 2.0)]
        # A plain tuple compares equal to a Peak, so check the type too.
        assert all(type(p) is Peak for p in found)
        assert all(type(v) is float for p in found for v in p)

    def test_csv_round_trip(self, tmp_path):
        found = peaks_of([0, 3, 1, 8, 1, 3, 0], min_prominence=1.0)
        path = tmp_path / "peaks.csv"
        _write_peaks_csv(path, found)
        assert path.read_text().splitlines() == [
            "t_ms,height,prominence", "1000,3.0,2.0", "3000,8.0,8.0", "5000,3.0,2.0",
        ]
        assert _read_peaks_csv(path) == found
        assert all(type(p) is Peak for p in _read_peaks_csv(path))
