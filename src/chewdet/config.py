"""Flat run configuration shared by every pipeline stage.

One ``key = value`` text file drives all commands; every value lands in the
run manifest together with input digests, so two runs with equal manifests
produce byte-identical outputs.  Unknown and repeated keys are errors --
misspellings must not silently fall back to defaults.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from pathlib import Path

from .boosting import DEFAULT_THRESHOLD, BoostConfig
from .episodes import DbscanConfig
from .features import DEFAULT_LABEL_MIN_OVERLAP, DEFAULT_MIN_PROMINENCE
from .periodic import SweepConfig
from .records import NOMINAL_RATE_HZ, check_overlap_rule, check_range
from .tables import field_types, key_values, parse_fields, render_fields


@dataclass(frozen=True)
class PipelineConfig:
    sample_rate_hz: float = NOMINAL_RATE_HZ
    # peak detection
    min_prominence: float = DEFAULT_MIN_PROMINENCE
    # periodic sweep
    sweep_min: float = SweepConfig.min
    sweep_max: float = SweepConfig.max
    epsilon: float = SweepConfig.epsilon
    min_len: int = 3
    # boosting
    eta: float = BoostConfig.eta
    max_depth: int = BoostConfig.max_depth
    gamma: float = BoostConfig.gamma
    min_child_weight: float = BoostConfig.min_child_weight
    subsample: float = BoostConfig.subsample
    n_rounds: int = BoostConfig.n_rounds
    reg_lambda: float = BoostConfig.reg_lambda
    pos_weight: float | None = BoostConfig.pos_weight
    threshold: float = DEFAULT_THRESHOLD
    # clustering
    dbscan_eps: float = DbscanConfig.eps
    dbscan_min_pts: int = DbscanConfig.min_pts
    use_score_weight: bool = DbscanConfig.use_score_weight
    # episodes + evaluation
    delta: float = 900.0
    episode_overlap_threshold: float = 0.5
    episode_overlap_base: str = "truth"
    candidate_label_min_overlap: float = DEFAULT_LABEL_MIN_OVERLAP
    tz_offset_s: float = 0.0
    seed: int = BoostConfig.seed

    def __post_init__(self) -> None:
        # A bad field fails here, not in the first stage that needs it.
        self.sweep(), self.boost(), self.dbscan()
        check_overlap_rule(self.episode_overlap_threshold, self.episode_overlap_base)
        # threshold > 1 is the always-negative classifier.
        for name, interval in (
            ("sample_rate_hz", "(0, inf)"), ("min_prominence", "(0, inf)"),
            ("min_len", "[1, inf)"), ("threshold", "[0, inf]"), ("delta", "(0, inf)"),
            ("candidate_label_min_overlap", "[0, 1]"), ("tz_offset_s", "(-inf, inf)"),
        ):
            check_range(name, getattr(self, name), interval)

    def sweep(self) -> SweepConfig:
        return SweepConfig(min=self.sweep_min, max=self.sweep_max, epsilon=self.epsilon)

    def boost(self) -> BoostConfig:
        # Every BoostConfig field is a field of this config, of the same name.
        return BoostConfig(**{f.name: getattr(self, f.name) for f in fields(BoostConfig)})

    def dbscan(self) -> DbscanConfig:
        return DbscanConfig(
            eps=self.dbscan_eps,
            min_pts=self.dbscan_min_pts,
            use_score_weight=self.use_score_weight,
        )

    def manifest_items(self) -> list[tuple[str, str]]:
        return [(f"config.{name}", text) for name, text in render_fields(self)]


def read_config(path: str | Path) -> PipelineConfig:
    """Read a flat ``key = value`` config file; '#' starts a comment."""
    path = Path(path)
    entries = key_values(path.read_text(encoding="utf-8").splitlines(), path)
    values = parse_fields(field_types(PipelineConfig), entries, path, "config")
    try:
        return PipelineConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def manifest_hash(items: list[tuple[str, str]]) -> str:
    text = "\n".join(f"{k} = {v}" for k, v in items)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
