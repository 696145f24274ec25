"""``PipelineConfig.boost()`` copies the booster's fields by name."""

from dataclasses import fields

from chewdet.boosting import BoostConfig
from chewdet.config import PipelineConfig


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
