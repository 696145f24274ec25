import numpy as np
import pytest

from chewdet.peaks import find_prominent_peaks
from chewdet.periodic import SweepConfig, longest_rel_periodic
from chewdet.records import IntervalKind, write_sensor_csv, ingest_sensor_csv
from chewdet.signals import derive
from chewdet.synthetic import (
    Confounder,
    MealSpec,
    ScenarioSpec,
    generate,
    read_scenario,
)


def one_meal_spec(**overrides):
    base = dict(
        duration=600.0,
        meals=(MealSpec(start=120.0, n_sequences=2, chew_rate_hz=1.5,
                        seq_duration_s=30.0, seq_gap_s=20.0),),
        seed=5,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestSpecValidation:
    def test_overlapping_meals_rejected(self):
        meals = (MealSpec(start=0.0), MealSpec(start=10.0))
        with pytest.raises(ValueError, match="overlap"):
            ScenarioSpec(duration=3600.0, meals=meals)

    def test_meal_past_duration_rejected(self):
        with pytest.raises(ValueError, match="past"):
            ScenarioSpec(duration=100.0, meals=(MealSpec(start=50.0),))

    def test_chew_rate_band_enforced(self):
        with pytest.raises(ValueError, match=r"^chew_rate_hz must be in \[0.94, 2.17\], got 3.0$"):
            MealSpec(start=0.0, chew_rate_hz=3.0)

    def test_unknown_confounder_rejected(self):
        with pytest.raises(ValueError, match="unknown confounder"):
            Confounder(kind="juggling", start=0.0, duration=10.0)


class TestGenerate:
    def test_zero_meals_gives_no_labels(self):
        session, labels = generate(ScenarioSpec(duration=300.0, seed=1))
        assert labels == []
        assert len(session) == 6000

    def test_same_seed_identical_trace(self):
        a, _ = generate(one_meal_spec())
        b, _ = generate(one_meal_spec())
        assert np.array_equal(a.prox, b.prox)
        assert np.array_equal(a.quat, b.quat)
        assert np.array_equal(a.accel, b.accel)

    def test_session_arrays_read_only(self):
        session, _ = generate(one_meal_spec(noise_accel=0.1))
        for arr in (session.t, session.prox, session.ambient, session.quat, session.accel):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            session.accel[0, 2] = 0.0

    def test_different_seed_differs(self):
        a, _ = generate(one_meal_spec(noise_prox=1.0))
        b, _ = generate(one_meal_spec(noise_prox=1.0, seed=6))
        assert not np.array_equal(a.prox, b.prox)

    def test_labels_match_planted_sequences(self):
        spec = one_meal_spec()
        session, labels = generate(spec)
        assert len(labels) == 2
        assert all(iv.kind is IntervalKind.CHEW for iv in labels)
        meal = spec.meals[0]
        assert labels[0].start == pytest.approx(spec.start_epoch + meal.start)
        assert labels[0].end < labels[1].start

    def test_clean_peaks_recovered_at_planted_times(self):
        # Noise-free: every planted chew is a prominent peak within one
        # sample, and the sweep recovers the full first-sequence train.
        spec = one_meal_spec()
        session, labels = generate(spec)
        trace = derive(session)
        pks = find_prominent_peaks(trace.prox, trace.t, 4.5)
        peak_times = np.array([p.t for p in pks])

        period = round(20.0 / 1.5) / 20.0
        seq_start = spec.start_epoch + 120.0
        n_chews = int(30.0 / period) + 1
        planted = seq_start + np.arange(n_chews) * period
        for ct in planted:
            assert np.min(np.abs(peak_times - ct)) <= 0.05 + 1e-9

        in_seq = peak_times[(peak_times >= planted[0]) & (peak_times <= planted[-1])]
        found = longest_rel_periodic(in_seq, SweepConfig(0.4, 1.5, 0.2))
        best = max(found, key=lambda s: s.length)
        assert best.length == n_chews - 1

    def test_planted_gaps_respect_band_invariant(self):
        spec = one_meal_spec()
        _, labels = generate(spec)
        period = round(20.0 / 1.5) / 20.0
        for lo, hi in SweepConfig(0.4, 1.5, 0.2).bands():
            if lo <= period <= hi:
                assert hi / lo <= 1.2 + 1e-9

    def test_walking_only_trace_has_flat_prox_and_periodic_energy(self):
        spec = ScenarioSpec(
            duration=300.0,
            confounders=(Confounder(kind="walking", start=60.0, duration=120.0),),
            seed=2,
        )
        session, labels = generate(spec)
        assert labels == []
        trace = derive(session)
        assert find_prominent_peaks(trace.prox, trace.t, 4.5) == []
        walking = slice(int(60 * 20), int(180 * 20))
        resting = slice(0, int(60 * 20))
        assert np.std(trace.energy[walking]) > 10 * max(np.std(trace.energy[resting]), 1e-9)

    def test_dark_eating_pins_ambient_low(self):
        meal = MealSpec(start=60.0, n_sequences=2, seq_duration_s=20.0, seq_gap_s=10.0)
        spec = ScenarioSpec(
            duration=300.0,
            meals=(meal,),
            confounders=(Confounder(kind="dark_eating", start=60.0, duration=50.0),),
            seed=3,
        )
        session, _ = generate(spec)
        dark = slice(int(60 * 20), int(110 * 20))
        assert np.max(session.ambient[dark]) <= 2.0
        assert np.median(session.ambient[: int(50 * 20)]) > 100.0

    def test_lfa_dips_at_meal_start(self):
        spec = one_meal_spec()
        session, _ = generate(spec)
        trace = derive(session)
        start_idx = int(120.0 * 20)
        assert trace.lfa[start_idx] < 70.0
        assert trace.lfa[0] == pytest.approx(90.0)

    def test_sensor_csv_roundtrip_preserves_trace(self, tmp_path):
        session, _ = generate(one_meal_spec(noise_prox=1.5))
        path = tmp_path / "sensors_SYN.csv"
        write_sensor_csv(path, session)
        back = ingest_sensor_csv(path, participant="SYN")
        assert len(back) == len(session)
        assert np.allclose(back.t, session.t, atol=5e-4)  # ms rounding
        assert np.array_equal(back.prox, session.prox)
        assert np.allclose(back.quat, session.quat, atol=1e-12)


class TestScenarioFile:
    def test_parse_roundtrip(self, tmp_path):
        text = """
# a compact day
duration = 1200
seed = 9
participant = T1
noise_prox = 1.5
meal = start=100 sequences=2 rate=1.5 bite=5 seq_dur=25 gap=15
confounder = kind=talking start=600 duration=90
"""
        path = tmp_path / "scenario.txt"
        path.write_text(text)
        spec = read_scenario(path)
        assert spec.duration == 1200.0
        assert spec.participant == "T1"
        assert len(spec.meals) == 1
        assert spec.meals[0].n_sequences == 2
        assert spec.confounders[0].kind == "talking"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("duration = 100\nvolume = 11\n")
        with pytest.raises(ValueError, match="unknown scenario key"):
            read_scenario(path)

    def test_missing_duration_rejected(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("seed = 1\n")
        with pytest.raises(ValueError, match="duration"):
            read_scenario(path)

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("duration = 100\n# again\nduration = 200\n")
        with pytest.raises(ValueError, match=r"scenario.txt: line 3: repeated scenario key "
                                             r"'duration', first set on line 1"):
            read_scenario(path)

    def test_bad_value_names_file_and_line(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("seed = 1\nduration = abc\n")
        with pytest.raises(ValueError, match=r"scenario.txt: line 2: scenario key duration: "
                                             r"expected float, got 'abc'"):
            read_scenario(path)

    def test_bad_meal_value_names_file_and_line(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("duration = 900\n\nmeal = start=10 sequences=two\n")
        with pytest.raises(ValueError, match=r"scenario.txt: line 3: .*'two'"):
            read_scenario(path)

    def test_unparsable_meal_token_names_line(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("duration = 900\n# one meal\nmeal = start=10 rate=fast\n")
        with pytest.raises(ValueError, match=r"scenario.txt: line 3: meal key rate: "
                                             r"expected float, got 'fast'"):
            read_scenario(path)

    def test_confounder_without_kind_names_line(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("duration = 900\nconfounder = start=1 duration=5\n")
        with pytest.raises(ValueError, match=r"scenario.txt: line 2: confounder missing 'kind'"):
            read_scenario(path)

    def test_line_without_equals_names_line(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("duration = 900\nnoise_prox 2.0\n")
        with pytest.raises(ValueError, match=r"scenario.txt: line 2: expected 'key = value'"):
            read_scenario(path)

    def test_unknown_confounder_key_names_file_and_line(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("duration = 900\nconfounder = kind=rest start=1 duration=5 colour=red\n")
        with pytest.raises(ValueError, match=r"scenario.txt: line 2: unknown confounder key "
                                             r"'colour'"):
            read_scenario(path)

    @pytest.mark.parametrize("line, key", [
        ("meal = start=150 sequences=3 rate=1.5 start=900", "meal key 'start'"),
        ("confounder = kind=talking start=500 duration=28 duration=5", "confounder key 'duration'"),
    ])
    def test_repeated_meal_or_confounder_token_names_line(self, tmp_path, line, key):
        path = tmp_path / "scenario.txt"
        path.write_text(f"duration = 1500\n{line}\n")
        with pytest.raises(ValueError, match=f"scenario.txt: line 2: repeated {key}"):
            read_scenario(path)

    @pytest.mark.parametrize("lines, message", [
        (["duration = -5"], r"duration must be in \(0, inf\), got -5.0$"),
        (["duration = 900", "meal = start=10", "meal = start=100"], r"meals overlap: \[10.0, "),
        (["duration = 100", "meal = start=10"], r"meal \[10.0, 190.0\] runs past the"),
    ])
    def test_scenario_check_names_file(self, tmp_path, lines, message):
        path = tmp_path / "scenario.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"scenario.txt: {message}"):
            read_scenario(path)

    def test_meal_check_names_file_and_line(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("duration = 900\nmeal = start=10 rate=9\n")
        with pytest.raises(ValueError, match=r"scenario.txt: line 2: chew_rate_hz must be in "
                                             r"\[0.94, 2.17\], got 9.0$"):
            read_scenario(path)
