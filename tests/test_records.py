from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chewdet.records import (
    GAP_FACTOR,
    IntervalKind,
    LabeledInterval,
    Session,
    check_increasing,
    covered_seconds,
    derive_episode_labels,
    disjoint_spans,
    episode_intervals,
    ingest_sensor_csv,
    inter_sequence_gap_cdf,
    overlap_range,
    read_label_csv,
    write_label_csv,
)


def sensor_lines(times_ms, qw=1.0, qx=0.0):
    header = "t_ms,prox,ambient,qw,qx,qy,qz,ax,ay,az"
    rows = [f"{t},100.0,500.0,{qw},{qx},0.0,0.0,0.0,0.0,1.0" for t in times_ms]
    return "\n".join([header] + rows) + "\n"


def write(tmp_path, text, name="sensors.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def chew(start, end, participant="P1"):
    return LabeledInterval(start=start, end=end, kind=IntervalKind.CHEW, participant=participant)


class TestIngest:
    def test_three_rows_no_gaps(self, tmp_path):
        path = write(tmp_path, sensor_lines([0, 50, 100]))
        session = ingest_sensor_csv(path, participant="P1")
        assert len(session) == 3
        assert session.gaps.count == 0
        assert session.participant == "P1"
        assert np.allclose(session.t, [0.0, 0.05, 0.10])

    def test_duplicate_timestamp_errors_with_line(self, tmp_path):
        path = write(tmp_path, sensor_lines([0, 50, 50]))
        with pytest.raises(ValueError, match="line 4.*non-monotonic"):
            ingest_sensor_csv(path)

    def test_half_second_gap_reported(self, tmp_path):
        times = [0, 50, 100, 600, 650]  # one 0.5 s jump
        path = write(tmp_path, sensor_lines(times))
        session = ingest_sensor_csv(path)
        assert session.gaps.count == 1
        assert session.gaps.max_gap_s == pytest.approx(0.5)

    def test_gap_threshold_is_factor_of_nominal(self, tmp_path):
        # 70 ms < 1.5 * 50 ms: not a gap; 80 ms: a gap.
        assert GAP_FACTOR == 1.5
        ok = ingest_sensor_csv(write(tmp_path, sensor_lines([0, 50, 120]), "a.csv"))
        assert ok.gaps.count == 0
        bad = ingest_sensor_csv(write(tmp_path, sensor_lines([0, 50, 130]), "b.csv"))
        assert bad.gaps.count == 1

    def test_gap_threshold_follows_the_sample_rate(self, tmp_path):
        # At 10 Hz the threshold is 150 ms: a 140 ms step is not a gap, 160 ms is.
        path = write(tmp_path, sensor_lines([0, 100, 240, 400]))
        assert ingest_sensor_csv(path, sample_rate_hz=10.0).gaps.count == 1
        assert ingest_sensor_csv(path).gaps.count == 3

    def test_sample_rate_must_be_positive(self, tmp_path):
        path = write(tmp_path, sensor_lines([0, 50]))
        for rate in (0.0, -20.0, float("nan")):
            with pytest.raises(ValueError, match="^sample_rate_hz must be in"):
                ingest_sensor_csv(path, sample_rate_hz=rate)

    def test_malformed_row_names_line(self, tmp_path):
        text = sensor_lines([0, 50]) + "not,a,row\n"
        with pytest.raises(ValueError, match="line 4"):
            ingest_sensor_csv(write(tmp_path, text))

    def test_bad_header_rejected(self, tmp_path):
        path = write(tmp_path, "t,prox\n0,1\n")
        with pytest.raises(ValueError, match="bad header"):
            ingest_sensor_csv(path)

    def test_quaternion_normalized_on_ingest(self, tmp_path):
        path = write(tmp_path, sensor_lines([0, 50], qw=1.05))
        session = ingest_sensor_csv(path)
        assert np.allclose(np.linalg.norm(session.quat, axis=1), 1.0)

    def test_wild_quaternion_rejected_and_counted(self, tmp_path):
        header = "t_ms,prox,ambient,qw,qx,qy,qz,ax,ay,az"
        rows = [
            "0,100.0,500.0,1.0,0.0,0.0,0.0,0.0,0.0,1.0",
            "50,100.0,500.0,0.5,0.0,0.0,0.0,0.0,0.0,1.0",  # |q| = 0.5
            "100,100.0,500.0,1.0,0.0,0.0,0.0,0.0,0.0,1.0",
        ]
        path = write(tmp_path, "\n".join([header] + rows) + "\n")
        session = ingest_sensor_csv(path)
        assert len(session) == 2
        assert session.gaps.rejected_rows == 1

    def test_non_finite_values_rejected_with_line_and_column(self, tmp_path):
        # A NaN norm used to pass the quaternion check, so this file ingested
        # all three rows with nothing rejected.
        header = "t_ms,prox,ambient,qw,qx,qy,qz,ax,ay,az"
        rows = [
            "0,100.0,500.0,nan,0.0,0.0,0.0,0.0,0.0,1.0",
            "50,nan,500.0,1.0,0.0,0.0,0.0,0.0,0.0,1.0",
            "100,100.0,inf,1.0,0.0,0.0,0.0,0.0,0.0,1.0",
        ]
        path = write(tmp_path, "\n".join([header] + rows) + "\n")
        with pytest.raises(ValueError, match=r"sensors\.csv: line 2: column qw is not finite"):
            ingest_sensor_csv(path)


class TestSession:
    def test_labels_outside_span_rejected(self):
        with pytest.raises(ValueError, match="outside the session span"):
            Session(
                participant="P1",
                t=np.array([0.0, 0.05]),
                prox=np.zeros(2),
                ambient=np.zeros(2),
                quat=np.tile([1.0, 0, 0, 0], (2, 1)),
                accel=np.tile([0.0, 0, 1], (2, 1)),
                labels=(chew(0.0, 10.0),),
            )

    def test_times_must_increase_strictly_naming_the_pair(self):
        with pytest.raises(ValueError, match=r"^timestamps must be strictly increasing; "
                                             r"t\[1\]=0\.05 >= t\[2\]=0\.05$"):
            Session(
                participant="P1",
                t=np.array([0.0, 0.05, 0.05]),
                prox=np.zeros(3),
                ambient=np.zeros(3),
                quat=np.tile([1.0, 0, 0, 0], (3, 1)),
                accel=np.tile([0.0, 0, 1], (3, 1)),
            )

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError, match=r"t\[0\]=0\.0 >= t\[1\]=nan"):
            check_increasing(np.array([0.0, np.nan, 1.0]))
        check_increasing(np.array([]))
        check_increasing(np.array([3.0]))

    def test_arrays_read_only(self):
        session = Session(
            participant="P1",
            t=np.array([0.0, 0.05]),
            prox=np.zeros(2),
            ambient=np.zeros(2),
            quat=np.tile([1.0, 0, 0, 0], (2, 1)),
            accel=np.tile([0.0, 0, 1], (2, 1)),
        )
        with pytest.raises(ValueError):
            session.prox[0] = 5.0

    @staticmethod
    def session_with(prox):
        return Session(participant="P1", t=np.array([0.0, 0.05, 0.1]), prox=prox,
                       ambient=np.zeros(3), quat=np.tile([1.0, 0, 0, 0], (3, 1)),
                       accel=np.tile([0.0, 0, 1], (3, 1)))

    def test_writable_input_copied(self):
        prox = np.array([1.0, 2.0, 3.0])
        session = self.session_with(prox)
        prox[0] = 9.0
        assert not np.shares_memory(session.prox, prox)
        assert session.prox.tolist() == [1.0, 2.0, 3.0]
        assert prox.flags.writeable

    def test_read_only_owning_float_input_shared(self):
        prox = np.array([1.0, 2.0, 3.0])
        prox.setflags(write=False)
        assert np.shares_memory(self.session_with(prox).prox, prox)

    @pytest.mark.parametrize("prox", [
        np.arange(6.0)[::2],  # a view: its base owns the data
        np.array([1, 2, 3]),  # not float64
        np.array([1.0, 2.0, 3.0], dtype=">f8"),  # not native byte order
    ], ids=["view", "int", "big-endian"])
    def test_read_only_input_copied_unless_owning_float64(self, prox):
        prox.setflags(write=False)
        session = self.session_with(prox)
        assert not np.shares_memory(session.prox, prox)
        assert session.prox.dtype == np.float64
        assert session.prox.tolist() == prox.tolist()


class TestEpisodeDerivation:
    def test_small_gap_merges(self):
        episodes = derive_episode_labels([chew(0, 60), chew(200, 260)], delta=900)
        assert [(e.start, e.end) for e in episodes] == [(0, 260)]
        assert all(e.kind is IntervalKind.EPISODE for e in episodes)

    def test_large_gap_splits(self):
        episodes = derive_episode_labels([chew(0, 60), chew(1000, 1060)], delta=900)
        assert [(e.start, e.end) for e in episodes] == [(0, 60), (1000, 1060)]

    def test_five_chews_three_episodes(self):
        # gaps: 100, 950, 200, 1200 -> merge, split, merge, split
        starts = [0.0]
        for gap in (100, 950, 200, 1200):
            starts.append(starts[-1] + 60 + gap)
        chews = [chew(s, s + 60) for s in starts]
        episodes = derive_episode_labels(chews, delta=900)
        assert len(episodes) == 3

    def test_overlapping_chews_error(self):
        with pytest.raises(ValueError, match="overlap"):
            derive_episode_labels([chew(0, 60), chew(30, 90)], delta=900)

    def test_idempotent(self):
        chews = [chew(0, 60), chew(200, 260), chew(2000, 2100)]
        once = derive_episode_labels(chews, delta=900)
        twice = derive_episode_labels(once and [
            LabeledInterval(e.start, e.end, IntervalKind.CHEW, e.participant) for e in once
        ], delta=900)
        assert [(e.start, e.end) for e in once] == [(e.start, e.end) for e in twice]

    def test_episode_count_monotone_in_delta(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            starts = np.cumsum(rng.uniform(60, 2000, size=12))
            chews = [chew(float(s), float(s + 30)) for s in starts]
            counts = [
                len(derive_episode_labels(chews, delta=d))
                for d in (10, 100, 500, 900, 1500, 3000)
            ]
            assert counts == sorted(counts, reverse=True)

    def test_delta_plateau_invariance(self):
        # No observed gap inside (540, 1100): any delta there gives equal output.
        chews = [chew(0, 60), chew(200, 260), chew(1500, 1560), chew(1800, 1860)]
        gaps = [c2.start - c1.end for c1, c2 in zip(chews, chews[1:])]
        assert all(g <= 540 or g >= 1100 for g in gaps)
        reference = derive_episode_labels(chews, delta=600)
        for delta in (545, 700, 900, 1095):
            episodes = derive_episode_labels(chews, delta=delta)
            assert [(e.start, e.end) for e in episodes] == [
                (e.start, e.end) for e in reference
            ]


class TestEpisodeIntervals:
    def test_labels_and_predictions_share_one_merge(self):
        chews = [chew(200, 260, "P2"), chew(0, 60, "P2"), chew(2000, 2010, "P2")]
        merged = episode_intervals([(200, 260), (0, 60), (2000, 2010)], 900, "P2")
        assert merged == derive_episode_labels(chews, delta=900)
        assert merged == [
            LabeledInterval(0.0, 260.0, IntervalKind.EPISODE, "P2"),
            LabeledInterval(2000.0, 2010.0, IntervalKind.EPISODE, "P2"),
        ]

    def test_delta_checked_even_without_spans(self):
        with pytest.raises(ValueError, match=r"^delta must be in \(0, inf\), got 0$"):
            episode_intervals([], 0, "P1")


class TestSpans:
    def test_overlap_message_names_both_spans(self):
        msg = r"^intervals overlap: \[0\.0, 60\.0\] and \[30\.0, 90\.0\]$"
        with pytest.raises(ValueError, match=msg):
            episode_intervals([(30, 90), (0, 60)], 10, "P1")
        with pytest.raises(ValueError, match=msg):
            inter_sequence_gap_cdf([chew(30, 90), chew(200, 210), chew(0, 60)])

    def test_disjoint_spans_sorts_and_lets_ends_touch(self):
        assert disjoint_spans([(5, 9), (0, 5), (9, 9)], "x") == [(0.0, 5.0), (5.0, 9.0), (9.0, 9.0)]
        with pytest.raises(ValueError, match=r"^meals overlap: \[0\.0, 5\.0\] and \[4\.0, 6\.0\]"):
            disjoint_spans([(4, 6), (0, 5)], "meals")

    def test_overlap_range_keeps_spans_a_long_one_contains(self):
        spans = [(0.0, 100.0), (10.0, 20.0), (30.0, 40.0), (200.0, 210.0)]
        first, last = overlap_range(spans, [50.0, 100.0, 205.0, 300.0], [60.0, 150.0, 300.0, 400.0])
        assert list(zip(first, last)) == [(0, 3), (3, 3), (3, 4), (4, 4)]

    def test_overlap_range_misses_no_overlapping_span(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            starts = np.sort(rng.integers(0, 40, size=rng.integers(0, 12))).astype(float)
            spans = [(a, a + float(rng.integers(1, 15))) for a in starts]
            lo = rng.integers(0, 50, size=8).astype(float)
            hi = lo + rng.integers(0, 10, size=8)
            first, last = overlap_range(spans, lo, hi)
            for q in range(8):
                hit = [j for j, (a, b) in enumerate(spans) if min(b, hi[q]) - max(a, lo[q]) > 0]
                assert all(first[q] <= j < last[q] for j in hit)


class TestGapCdf:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 30)), min_size=2, max_size=30))
    def test_matches_counting_oracle(self, steps):
        # Gaps of 0 to 3 s (repeats and touching ends included) between
        # chews of 1 to 30 s, at a fractional offset.
        chews, t = [], 0.3
        for gap, length in steps:
            t += gap
            chews.append(chew(t, t + length / 7))
            t += length / 7
        spans = [(iv.start, iv.end) for iv in chews]
        gaps = [b0 - a1 for (_, a1), (b0, _) in zip(spans, spans[1:])]
        counts, running, expected = Counter(gaps), 0, []
        for gap in sorted(counts):
            running += counts[gap]
            expected.append((gap, running / len(gaps)))
        assert repr(inter_sequence_gap_cdf(chews)) == repr(expected)

    def test_single_gap(self):
        table = inter_sequence_gap_cdf([chew(0, 60), chew(360, 420)])
        assert table == [(300.0, 1.0)]

    def test_counting(self):
        chews = [chew(0, 10), chew(20, 30), chew(40, 50), chew(650, 660)]
        table = inter_sequence_gap_cdf(chews)
        assert table == [(10.0, pytest.approx(2 / 3)), (600.0, pytest.approx(1.0))]

    def test_requires_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            inter_sequence_gap_cdf([chew(0, 10)])

    def test_gaps_stay_within_each_participant(self):
        chews = [chew(0, 10, "A"), chew(100, 110, "A"), chew(20, 30, "B"), chew(300, 310, "B")]
        assert inter_sequence_gap_cdf(chews) == [(90, 0.5), (270, 1.0)]
        # Overlap across participants is not an overlap.
        chews = [chew(0, 10, "A"), chew(20, 30, "A"), chew(5, 15, "B"), chew(40, 50, "B")]
        assert inter_sequence_gap_cdf(chews) == [(10, 0.5), (25, 1.0)]

    def test_one_chew_per_participant_has_no_gaps(self):
        with pytest.raises(ValueError, match="at least 2"):
            inter_sequence_gap_cdf([chew(0, 10, "A"), chew(20, 30, "B")])

    def test_bimodal_plateau_has_zero_mass(self):
        rng = np.random.default_rng(11)
        chews = []
        t = 0.0
        for _ in range(40):
            # within-meal gaps <= 180 s, between-meal >= 1100 s
            for _ in range(3):
                chews.append(chew(t, t + 30))
                t += 30 + rng.uniform(20, 180)
            t += rng.uniform(1100, 2000)
        table = inter_sequence_gap_cdf(chews)
        in_plateau = [g for g, _ in table if 540 < g < 1100]
        assert in_plateau == []
        assert table[-1][1] == pytest.approx(1.0)


class TestLabelCsv:
    def test_roundtrip(self, tmp_path):
        intervals = [
            chew(0.5, 60.25),
            LabeledInterval(0.5, 2000.0, IntervalKind.EPISODE, "P1"),
        ]
        path = tmp_path / "labels.csv"
        write_label_csv(path, intervals)
        back = read_label_csv(path)
        assert back == intervals

    def test_bad_kind_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("participant,kind,start_s,end_s\nP1,meal,0,10\n")
        with pytest.raises(ValueError, match="line 2"):
            read_label_csv(path)


class TestCoveredSeconds:
    def test_positive_measure_rule(self):
        assert list(covered_seconds(10.2, 13.8)) == [10, 11, 12, 13]
        assert list(covered_seconds(0.0, 100.0)) == list(range(100))
        assert list(covered_seconds(10.5, 11.0)) == [10]

    def test_merge_touching_intervals(self):
        episodes = episode_intervals([(10, 20), (0, 10), (20.5, 30)], 0.25, "P1")
        assert [(e.start, e.end) for e in episodes] == [(0.0, 20.0), (20.5, 30.0)]
