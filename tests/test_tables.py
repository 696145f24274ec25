"""The two codecs: byte-exact CSV round trips, one error form for every table
reader, and typed, line-numbered flat ``key = value`` files."""

import csv
import io
import tempfile
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chewdet.cli import _read_peaks_csv, _read_predictions_csv, _write_peaks_csv, _write_predictions_csv
from chewdet.episodes import read_episode_csv, score_seconds, write_episode_csv
from chewdet.evaluation import REPORT_HEADER, REPORT_KINDS, Metrics, ParticipantScore, write_scores_csv
from chewdet.features import FeatureTable, read_feature_csv, write_feature_csv
from chewdet.peaks import Peak
from chewdet.periodic import CandidateWindow, read_candidate_csv, write_candidate_csv
from chewdet.records import (
    GAP_CDF_HEADER,
    SENSOR_HEADER,
    SENSOR_KINDS,
    IntervalKind,
    LabeledInterval,
    Session,
    ingest_sensor_csv,
    read_label_csv,
    write_label_csv,
    write_sensor_csv,
)
from chewdet.signals import DerivedTrace, read_derived_csv, write_derived_csv
from chewdet.tables import (
    field_types,
    key_values,
    parse_fields,
    read_table,
    render_fields,
    transpose,
    write_table,
)

SETTINGS = settings(max_examples=40, deadline=None)

floats = st.floats(allow_nan=False, allow_infinity=False)
# Values a candidate or episode span may take without iterating 1e300 seconds.
spans = st.floats(-1e6, 1e6)
# Participant ids: no line breaks (a CSV field cannot hold one) and no
# surrounding whitespace (the reader strips fields).
ids = (
    st.text(st.characters(min_codepoint=32, max_codepoint=0x2FF), min_size=1, max_size=8)
    .map(str.strip)
    .filter(bool)
)
TRICKY_ID = 'P,"1"'
EXTREMES = [-0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e-300, 1.7976931348623157e308]


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def roundtrip(write, read, value):
    """Write, read and write again; both writes must be byte-identical."""
    with tempfile.TemporaryDirectory() as d:
        first, second = Path(d, "a.csv"), Path(d, "b.csv")
        write(first, value)
        back = read(first)
        write(second, back)
        assert first.read_bytes() == second.read_bytes()
        return back


def ms_times(n):
    """n strictly increasing times in seconds, each a whole number of ms."""
    return st.lists(st.integers(0, 10**13), min_size=n, max_size=n, unique=True).map(
        lambda ms: np.sort(np.array(ms)) / 1000.0
    )


def ordered_pair(values):
    return st.tuples(values, values).filter(lambda ab: ab[0] != ab[1]).map(sorted)


labelled = st.builds(
    lambda ab, k, p: LabeledInterval(ab[0], ab[1], k, p),
    ordered_pair(floats), st.sampled_from(IntervalKind), ids,
)
candidates = st.builds(CandidateWindow, floats, floats, floats, floats, floats, st.integers(0, 10**6))
# Unit quaternions whose norm is exactly 1, so ingest's normalisation keeps them bit-exact.
quats = st.sampled_from([(1.0, 0.0, 0.0, 0.0), (-0.0, 1.0, 0.0, 0.0), (0.5, -0.5, 0.5, 0.5), (0.0, 0.0, 0.0, -1.0)])


@st.composite
def sessions(draw):
    n = draw(st.integers(0, 12))
    cols = st.lists(floats, min_size=n, max_size=n)
    return Session(
        participant="P",
        t=draw(ms_times(n)),
        prox=draw(cols),
        ambient=draw(cols),
        quat=np.array(draw(st.lists(quats, min_size=n, max_size=n))).reshape(n, 4),
        accel=np.array([draw(cols), draw(cols), draw(cols)]).T.reshape(n, 3),
    )


class TestRoundTrip:
    @SETTINGS
    @given(sessions())
    def test_sensor(self, session):
        back = roundtrip(write_sensor_csv, ingest_sensor_csv, session)
        for name in ("t", "prox", "ambient", "quat", "accel"):
            assert bits(getattr(back, name)) == bits(getattr(session, name)), name
        assert back.gaps.rejected_rows == 0

    @SETTINGS
    @given(st.lists(labelled, max_size=6))
    @example([LabeledInterval(-0.0, 5e-324, IntervalKind.CHEW, TRICKY_ID)])
    def test_labels(self, labels):
        assert roundtrip(write_label_csv, read_label_csv, labels) == labels

    @SETTINGS
    @given(st.integers(0, 12).flatmap(lambda n: st.tuples(
        ms_times(n),
        *(st.lists(floats, min_size=n, max_size=n),) * 2,
        st.lists(st.floats(0.0, 180.0), min_size=n, max_size=n),
        st.lists(st.floats(0.0, 1e300), min_size=n, max_size=n),
    )))
    def test_derived(self, cols):
        trace = DerivedTrace(*(np.asarray(c, dtype=float) for c in cols))
        back = roundtrip(write_derived_csv, read_derived_csv, trace)
        for name in ("t", "prox", "ambient", "lfa", "energy"):
            assert bits(getattr(back, name)) == bits(getattr(trace, name)), name

    @SETTINGS
    @given(st.integers(0, 12).flatmap(lambda n: st.tuples(
        ms_times(n), *(st.lists(floats, min_size=n, max_size=n),) * 2)))
    def test_peaks(self, cols):
        pks = [Peak(*row) for row in zip(*(np.asarray(c, dtype=float).tolist() for c in cols))]
        assert roundtrip(_write_peaks_csv, _read_peaks_csv, pks) == pks

    @SETTINGS
    @given(st.lists(candidates, max_size=6))
    @example([CandidateWindow(-0.0, 5e-324, 1e300, -1e-300, 1.7976931348623157e308, 7)])
    def test_candidates(self, cands):
        assert roundtrip(write_candidate_csv, read_candidate_csv, cands) == cands

    @SETTINGS
    @given(st.lists(st.tuples(candidates, st.booleans(), floats), max_size=6))
    def test_predictions(self, judged):
        assert roundtrip(_write_predictions_csv, _read_predictions_csv, judged) == judged

    @SETTINGS
    @given(st.integers(0, 6), st.integers(1, 4), st.data())
    def test_features(self, n, width, data):
        names = tuple(f"f{k}" for k in range(width))
        table = FeatureTable(
            names=names,
            X=np.array(data.draw(st.lists(floats, min_size=n * width, max_size=n * width))).reshape(n, width),
            c1=np.array(data.draw(st.lists(floats, min_size=n, max_size=n))).reshape(n),
            c2=np.array(data.draw(st.lists(floats, min_size=n, max_size=n))).reshape(n),
            participant=data.draw(st.lists(ids | st.just(TRICKY_ID), min_size=n, max_size=n)),
            label=np.array(data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n)), dtype=int).reshape(n),
        )
        back = roundtrip(write_feature_csv, read_feature_csv, table)
        assert back.names == names and back.participant == table.participant
        assert bits(back.X) == bits(table.X) and bits(back.c1) == bits(table.c1)
        assert back.label.tolist() == table.label.tolist()

    @SETTINGS
    @given(st.lists(st.builds(lambda ab, p: LabeledInterval(ab[0], ab[1], IntervalKind.EPISODE, p),
                              ordered_pair(spans), ids), max_size=4))
    def test_episodes(self, episodes):
        scores = np.array([(s, 3) for s in range(-5, 5)])
        back = roundtrip(
            lambda path, eps: write_episode_csv(path, eps, scores), read_episode_csv, episodes
        )
        assert back == episodes

    @SETTINGS
    @given(st.lists(st.tuples(ids | st.just(TRICKY_ID), floats, floats, floats), max_size=4))
    def test_report(self, entries):
        scores = [ParticipantScore(p, Metrics(a, b, c), Metrics(c, b, a)) for p, a, b, c in entries]

        def read(path):
            rows = list(read_table(path, REPORT_HEADER, REPORT_KINDS).rows())
            return [
                ParticipantScore(second[0], Metrics(*second[2:]), Metrics(*episode[2:]))
                for second, episode in zip(rows[::2], rows[1::2])
            ]

        assert roundtrip(write_scores_csv, read, scores) == scores

    @SETTINGS
    @given(st.lists(st.tuples(floats, floats), max_size=6))
    @example([(x, x) for x in EXTREMES])
    def test_cdf(self, cdf):
        back = roundtrip(
            lambda path, rows: write_table(path, GAP_CDF_HEADER, "ff", transpose(rows, 2)),
            lambda path: list(read_table(path, GAP_CDF_HEADER, "ff").rows()),
            cdf,
        )
        assert bits(back) == bits(cdf)


@SETTINGS
@given(st.lists(st.tuples(ids | st.just(TRICKY_ID) | st.just(""), floats,
                          st.integers(-10**15, 10**15), st.floats(-1e12, 1e12)), max_size=5))
@example([(TRICKY_ID, x, -(10**15), 0.0005) for x in EXTREMES])
def test_bytes_match_the_csv_module(rows):
    # List columns and numpy-array columns write the bytes the csv module writes.
    header = ("name", "x", "n", "t_ms")
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows([p, repr(x), n, int(round(t * 1000.0))] for p, x, n, t in rows)
    names, x, n, t = transpose(rows, len(header))
    arrays = (list(names), np.array(x, dtype=float), np.array(n, dtype=np.int64), np.array(t, dtype=float))
    with tempfile.TemporaryDirectory() as d:
        for k, columns in enumerate((transpose(rows, len(header)), arrays)):
            path = Path(d, f"{k}.csv")
            write_table(path, header, "sfim", columns)
            assert path.read_bytes() == expected.getvalue().encode("utf-8")


def test_time_column_rounds_to_whole_milliseconds(tmp_path):
    path = tmp_path / "t.csv"
    t = [0.0004999, 0.0005, 0.0015, 1577872800.05, 9_999_999_999.999]
    write_table(path, ("t_ms",), "m", [t])
    assert path.read_text().splitlines()[1:] == [str(int(round(v * 1000.0))) for v in t]


EMPTY_WRITERS = {
    "sensor": lambda path: write_sensor_csv(path, Session("P", np.empty(0), np.empty(0), np.empty(0),
                                                          np.empty((0, 4)), np.empty((0, 3)))),
    "labels": lambda path: write_label_csv(path, []),
    "derived": lambda path: write_derived_csv(path, DerivedTrace(*[np.empty(0)] * 5)),
    "peaks": lambda path: _write_peaks_csv(path, []),
    "candidates": lambda path: write_candidate_csv(path, []),
    "predictions": lambda path: _write_predictions_csv(path, []),
    "features": lambda path: write_feature_csv(path, FeatureTable(
        names=("f0", "f1"), X=np.empty((0, 2)), c1=np.empty(0), c2=np.empty(0), participant=[],
        label=np.empty(0, dtype=int))),
    "episodes": lambda path: write_episode_csv(path, [], score_seconds([])),
    "report": lambda path: write_scores_csv(path, []),
    "cdf": lambda path: write_table(path, GAP_CDF_HEADER, "ff", transpose([], 2)),
}


@pytest.mark.parametrize("name", EMPTY_WRITERS)
def test_zero_rows_write_only_the_header(tmp_path, name):
    path = tmp_path / "t.csv"
    EMPTY_WRITERS[name](path)
    lines = path.read_bytes().split(b"\r\n")
    assert len(lines) == 2 and lines[0] and lines[1] == b""


def test_columns_of_unequal_length_are_refused_before_opening(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="unequal length"):
        write_table(path, ("a", "b"), "ff", [np.zeros(3), [1.0, 2.0]])
    assert not path.exists()


@pytest.mark.parametrize("kind, value", [("f", np.inf), ("f", -np.inf), ("m", np.nan), ("i", np.nan)])
def test_non_finite_numeric_value_is_refused_naming_the_column(tmp_path, kind, value):
    with pytest.raises(ValueError, match=f"column b is not finite: {value!r}"):
        write_table(tmp_path / "t.csv", ("a", "b"), "f" + kind, [[1.0, 2.0], np.array([0.0, value])])


def test_line_break_in_a_string_field_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="line break"):
        write_label_csv(tmp_path / "l.csv", [LabeledInterval(0.0, 1.0, IntervalKind.CHEW, "a\nb")])


# (reader, header, two good rows, index of a numeric field, its column name)
READERS = {
    "sensor": (
        ingest_sensor_csv,
        "t_ms,prox,ambient,qw,qx,qy,qz,ax,ay,az",
        ["0,100.0,500.0,1.0,0.0,0.0,0.0,0.0,0.0,1.0", "50,100.0,500.0,1.0,0.0,0.0,0.0,0.0,0.0,1.0"],
        3, "qw",
    ),
    "labels": (read_label_csv, "participant,kind,start_s,end_s",
               ["P1,chew,0.0,10.0", "P1,chew,20.0,30.0"], 2, "start_s"),
    "derived": (read_derived_csv, "t_ms,prox,ambient,lfa_deg,energy_g2",
                ["0,1.0,2.0,3.0,4.0", "50,1.0,2.0,3.0,4.0"], 3, "lfa_deg"),
    "peaks": (_read_peaks_csv, "t_ms,height,prominence", ["1000,12.5,6.0", "1700,13.0,5.0"], 1, "height"),
    "candidates": (read_candidate_csv, "c1_s,c2_s,p_min,p_max,epsilon,length",
                   ["10.0,20.0,0.5,0.6,0.2,5", "30.0,40.0,0.5,0.6,0.2,5"], 4, "epsilon"),
    "features": (read_feature_csv, "f0,f1,c1_s,c2_s,participant,label",
                 ["1.0,2.0,10.0,20.0,P1,1", "1.0,2.0,30.0,40.0,P1,0"], 1, "f1"),
    "predictions": (_read_predictions_csv, "c1_s,c2_s,p_min,p_max,epsilon,length,probability,positive",
                    ["10.0,20.0,0.5,0.6,0.2,5,0.9,1", "30.0,40.0,0.5,0.6,0.2,5,0.1,0"], 6, "probability"),
    "episodes": (read_episode_csv, "participant,start_s,end_s,n_seconds,peak_score",
                 ["P1,10.0,20.0,10,3", "P1,30.0,40.0,10,3"], 2, "end_s"),
}


def _with_field(row, index, value):
    fields = row.split(",")
    fields[index] = value
    return ",".join(fields)


@pytest.mark.parametrize("fmt", sorted(READERS))
@pytest.mark.parametrize("blank", [False, True], ids=["", "after-blank-lines"])
@pytest.mark.parametrize("case", ["bad-header", "short-row", "unparsable", "non-finite"])
def test_every_reader_reports_the_bad_line(tmp_path, fmt, blank, case):
    reader, header, (good, bad_base), index, name = READERS[fmt]
    k = len(header.split(","))
    lines = [header, good]
    if blank:
        lines += ["", "   "]
    if case == "bad-header":
        lines[0] = header.rsplit(",", 1)[0] + ",bogus"
        lines.append(bad_base)
        expected = "bad header"
    elif case == "short-row":
        lines.append(bad_base.rsplit(",", 1)[0])
        expected = f"line {len(lines)}: expected {k} fields, got {k - 1}"
    elif case == "unparsable":
        lines.append(_with_field(bad_base, index, "1.5x"))
        expected = f"line {len(lines)}: malformed row"
    else:
        lines.append(_with_field(bad_base, index, "nan"))
        expected = f"line {len(lines)}: column {name} is not finite: nan"
    lines.append(bad_base)
    path = tmp_path / f"{fmt}.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        reader(path)
    assert str(path) in str(info.value)
    assert expected in str(info.value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_value_is_printed_as_a_plain_float(tmp_path, value):
    path = tmp_path / "pairs.csv"
    path.write_text(f"a,b\n1.0,2.0\n\n3.0,{value}\n")
    with pytest.raises(ValueError) as info:
        read_table(path, ("a", "b"), "ff")
    assert str(info.value) == f"{path}: line 4: column b is not finite: {value}"


def test_rows_name_the_line_a_row_fails_on(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("a,b\n1.0,2.0\n\n3.0,1.0\n")
    table = read_table(path, ("a", "b"), "ff")
    assert table.rows() == [(1.0, 2.0), (3.0, 1.0)]

    def ordered(a, b):
        if not a < b:
            raise ValueError(f"need a < b, got {a} and {b}")
        return a, b

    with pytest.raises(ValueError) as info:
        table.rows(ordered)
    assert str(info.value) == f"{path}: line 4: need a < b, got 3.0 and 1.0"


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_every_reader_skips_blank_lines(tmp_path, fmt):
    reader, header, rows, _, _ = READERS[fmt]
    plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
    plain.write_text("\n".join([header, *rows]) + "\n")
    spaced.write_text("\n".join([" " + header.replace(",", " , "), "", rows[0], "\t", rows[1], ""]))
    assert repr(reader(plain)) == repr(reader(spaced))


def test_read_holds_one_parsed_block_at_a_time(tmp_path):
    # A 2 h sensor log at 20 Hz: every parsed block copied out into its
    # columns and freed keeps the peak near the columns, not twice them.
    n = 144_000
    rng = np.random.default_rng(0)
    path = tmp_path / "sensors.csv"
    write_table(path, SENSOR_HEADER, SENSOR_KINDS, [np.arange(n) * 0.05, *rng.normal(size=(9, n))])
    tracemalloc.start()
    try:
        table = read_table(path, SENSOR_HEADER, SENSOR_KINDS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(c.nbytes for c in table.columns)
    assert len(table.lines) == n and peak < 2 * columns, (peak, columns)


@dataclass(frozen=True)
class Knobs:
    # String annotations, as ``from __future__ import annotations`` leaves them.
    on: "bool" = False
    n: "int" = 0
    x: "float" = 0.0
    w: "float | None" = 1.0
    name: "str" = ""


def parse_knobs(*lines):
    return parse_fields(field_types(Knobs), key_values(lines, "k.txt"), "k.txt", "knob")


def test_flat_values_are_typed_by_annotation():
    lines = ("# knobs", "", "on = Yes  # a comment", "n = 3", "x=1e-3", "w = auto", "name = a b")
    assert [entry[0] for entry in key_values(lines, "k.txt")] == [3, 4, 5, 6, 7]
    assert parse_knobs(*lines) == dict(on=True, n=3, x=0.001, w=None, name="a b")
    assert parse_knobs("on = false", "w = 2") == dict(on=False, w=2.0)


def test_flat_fields_render_as_repr_with_none_as_auto():
    assert render_fields(Knobs(w=None, name="a")) == [
        ("on", "False"), ("n", "0"), ("x", "0.0"), ("w", "auto"), ("name", "'a'"),
    ]


@pytest.mark.parametrize(
    "lines, message",
    [
        (("n 3",), "k.txt: line 1: expected 'key = value', got 'n 3'"),
        (("", "m = 1"), "k.txt: line 2: unknown knob key 'm'"),
        (("n = 1", "# n again", "n = 1"), "k.txt: line 3: repeated knob key 'n', first set on line 1"),
        (("n = 3.5",), "k.txt: line 1: knob key n: expected int, got '3.5'"),
        (("on = maybe",), "k.txt: line 1: knob key on: expected bool, got 'maybe'"),
        (("w = none?",), "k.txt: line 1: knob key w: expected float | None, got 'none?'"),
    ],
)
def test_flat_file_errors_name_the_line(lines, message):
    with pytest.raises(ValueError) as err:
        parse_knobs(*lines)
    assert str(err.value) == message
