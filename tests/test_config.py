"""``PipelineConfig``'s stage configs carry its mirrored fields: ``boost()``
copies the booster's fields by name, ``dbscan()`` and ``sweep()`` map theirs."""

from dataclasses import fields

import pytest

from chewdet.boosting import BoostConfig
from chewdet.config import PipelineConfig
from chewdet.episodes import DbscanConfig
from chewdet.periodic import SweepConfig


def test_boost_copies_every_field():
    cfg = PipelineConfig(eta=0.1, n_rounds=7, seed=5, pos_weight=2.0)
    assert cfg.boost() == BoostConfig(
        eta=cfg.eta,
        max_depth=cfg.max_depth,
        gamma=cfg.gamma,
        min_child_weight=cfg.min_child_weight,
        subsample=cfg.subsample,
        n_rounds=cfg.n_rounds,
        seed=cfg.seed,
        reg_lambda=cfg.reg_lambda,
        pos_weight=cfg.pos_weight,
    )
    boost = cfg.boost()
    assert (boost.eta, boost.n_rounds, boost.seed, boost.pos_weight) == (0.1, 7, 5, 2.0)


def test_boost_fields_are_pipeline_fields_with_equal_defaults():
    pipeline = {f.name: f.default for f in fields(PipelineConfig)}
    for f in fields(BoostConfig):
        assert f.name in pipeline, f.name
        assert pipeline[f.name] == f.default, f.name


def test_default_stage_configs_are_the_stage_defaults():
    cfg = PipelineConfig()
    assert cfg.boost() == BoostConfig()
    assert cfg.dbscan() == DbscanConfig()
    assert cfg.sweep() == SweepConfig()


@pytest.mark.parametrize(
    "field, value, stage, name",
    [
        ("dbscan_eps", 12.5, "dbscan", "eps"),
        ("dbscan_min_pts", 4, "dbscan", "min_pts"),
        ("use_score_weight", False, "dbscan", "use_score_weight"),
        ("sweep_min", 0.3, "sweep", "min"),
        ("sweep_max", 1.9, "sweep", "max"),
        ("epsilon", 0.15, "sweep", "epsilon"),
    ],
)
def test_mirrored_field_reaches_its_stage_config(field, value, stage, name):
    stage_cfg = getattr(PipelineConfig(**{field: value}), stage)()
    assert getattr(stage_cfg, name) == value
    assert getattr(getattr(PipelineConfig(), stage)(), name) != value
