"""Every numeric setting has one interval, checked by ``records.check_range``.

A setting outside its interval, NaN included, is refused with a
``ValueError`` naming the field, whichever way the value arrives: a
constructor, a config file, a scenario file or a model header.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from chewdet.boosting import BoostConfig, model_from_text, model_to_text, train
from chewdet.config import PipelineConfig, read_config
from chewdet.records import check_range
from chewdet.synthetic import Confounder, MealSpec, ScenarioSpec, read_scenario
from chewdet.tables import field_types

nan, inf = math.nan, math.inf
below, above = (lambda x: math.nextafter(x, -inf)), (lambda x: math.nextafter(x, inf))


@pytest.mark.parametrize("interval, inside, outside", [
    ("(0, 1]", [above(0.0), 0.5, 1.0], [0.0, above(1.0), nan, inf, -inf]),
    ("[1, inf)", [1, 1.0, 1e308], [0, below(1.0), nan, inf]),
    ("[0, inf]", [0.0, inf], [below(0.0), nan, -inf]),
    ("[0.94, 2.17]", [0.94, 2.17], [below(0.94), above(2.17), nan]),
    ("(-inf, inf)", [-1e308, 0.0, 1e308], [-inf, inf, nan]),
])
def test_check_range_bounds(interval, inside, outside):
    for value in inside:
        check_range("x", value, interval)
    for value in outside:
        with pytest.raises(ValueError) as info:
            check_range("x", value, interval)
        assert str(info.value) == f"x must be in {interval}, got {value}"


# Per owner, each float field: (the name its error uses, its interval).
# None marks sweep_min and sweep_max, whose rule is 0 < min < max; an
# infinite max passes that rule and is refused by max's range, (0, inf).
RANGES = {
    PipelineConfig: {
        "sample_rate_hz": ("sample_rate_hz", "(0, inf)"),
        "min_prominence": ("min_prominence", "(0, inf)"),
        "sweep_min": ("min", None),
        "sweep_max": ("max", None),
        "epsilon": ("epsilon", "(0, inf)"),
        "eta": ("eta", "(0, 1]"),
        "gamma": ("gamma", "[0, inf]"),
        "min_child_weight": ("min_child_weight", "[0, inf)"),
        "subsample": ("subsample", "(0, 1]"),
        "reg_lambda": ("reg_lambda", "[0, inf)"),
        "pos_weight": ("pos_weight", "(0, inf)"),
        "threshold": ("threshold", "[0, inf]"),
        "dbscan_eps": ("eps", "(0, inf)"),
        "delta": ("delta", "(0, inf)"),
        "episode_overlap_threshold": ("overlap_threshold", "[0, 1]"),
        "candidate_label_min_overlap": ("candidate_label_min_overlap", "[0, 1]"),
        "tz_offset_s": ("tz_offset_s", "(-inf, inf)"),
    },
    MealSpec: {
        "start": ("start", "[0, inf)"),
        "chew_rate_hz": ("chew_rate_hz", "[0.94, 2.17]"),
        "bite_period_s": ("bite_period_s", "(0, inf)"),
        "seq_duration_s": ("seq_duration_s", "(0, inf)"),
        "seq_gap_s": ("seq_gap_s", "(0, inf)"),
    },
    Confounder: {
        "start": ("start", "[0, inf)"),
        "duration": ("duration", "(0, inf)"),
    },
    ScenarioSpec: {
        "duration": ("duration", "(0, inf)"),
        "noise_prox": ("noise_prox", "[0, inf)"),
        "noise_ambient": ("noise_ambient", "[0, inf)"),
        "noise_lfa_deg": ("noise_lfa_deg", "[0, inf)"),
        "noise_accel": ("noise_accel", "[0, inf)"),
        "start_epoch": ("start_epoch", "(-inf, inf)"),
        "sample_rate_hz": ("sample_rate_hz", "(0, inf)"),
    },
}
CASES = [(owner, field) for owner, fields in RANGES.items() for field in fields]
# Scenario files name meal fields by short tokens.
MEAL_TOKENS = {"start": "start", "chew_rate_hz": "rate", "bite_period_s": "bite",
               "seq_duration_s": "seq_dur", "seq_gap_s": "gap"}
MODEL_TEXT = model_to_text(train(np.array([[-2.0], [-1.0], [1.0], [2.0]]), np.array([0, 0, 1, 1]),
                                 BoostConfig(n_rounds=2, subsample=1.0, min_child_weight=0.0)))


@pytest.mark.parametrize("owner", RANGES, ids=lambda owner: owner.__name__)
def test_every_float_field_has_a_range(owner):
    floats = {name for name, kind in field_types(owner).items() if "float" in kind}
    assert floats == set(RANGES[owner])


def refusals(owner, field, value, scratch: Path) -> list:
    """(prefix the error carries, call that must fail) for each way in."""
    path = scratch / "settings.txt"
    if owner is PipelineConfig:
        path.write_text(f"{field} = {value}\n")
        found = [("", lambda: PipelineConfig(**{field: value})),
                 (f"{path}: ", lambda: read_config(path))]
        if field in field_types(BoostConfig):
            lines = [f"{field} = {value}" if line.startswith(f"{field} = ") else line
                     for line in MODEL_TEXT.splitlines()]
            found.append(("m.txt: ", lambda: model_from_text("\n".join(lines) + "\n", "m.txt")))
        return found
    if owner is MealSpec:
        token = MEAL_TOKENS[field]
        path.write_text(f"duration = 900\nmeal = {token}={value}" + " start=10" * (token != "start"))
        return [("", lambda: MealSpec(**{"start": 10.0, field: value})),
                (f"{path}: line 2: ", lambda: read_scenario(path))]
    if owner is Confounder:
        given_fields = {"kind": "rest", "start": 0.0, "duration": 10.0, field: value}
        tokens = " ".join(f"{k}={v}" for k, v in given_fields.items())
        path.write_text(f"duration = 900\nconfounder = {tokens}\n")
        return [("", lambda: Confounder(**given_fields)),
                (f"{path}: line 2: ", lambda: read_scenario(path))]
    lines = {"duration": 900.0, field: value}
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return [("", lambda: ScenarioSpec(**lines)), (f"{path}: ", lambda: read_scenario(path))]


@pytest.mark.parametrize("owner, field", CASES,
                         ids=[f"{owner.__name__}.{field}" for owner, field in CASES])
@given(value=st.sampled_from([nan, inf, -inf]))
def test_non_finite_setting_refused_naming_its_field(owner, field, value):
    name, interval = RANGES[owner][field]
    if interval is None:
        expected = "need 0 < min < max, got ["
        if name == "max" and value == inf:
            expected = "max must be in (0, inf), got inf"
    else:  # NaN and -inf lie in no interval, inf only in one closed at inf
        assume(math.isnan(value) or value == -inf or not interval.endswith("inf]"))
        expected = f"{name} must be in {interval}, got {value}"
    with tempfile.TemporaryDirectory() as scratch:
        for prefix, call in refusals(owner, field, value, Path(scratch)):
            with pytest.raises(ValueError) as info:
                call()
            if interval is None:
                assert str(info.value).startswith(prefix + expected)
            else:
                assert str(info.value) == prefix + expected
