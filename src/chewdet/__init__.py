"""Chewing-sequence and eating-episode detection from neck-worn sensor logs."""

__version__ = "0.1.0"

from .boosting import BoostConfig, TrainedModel, classify_candidates, layout_fingerprint, load_model
from .boosting import predict_proba, rank_features, save_model, train
from .config import PipelineConfig, read_config
from .episodes import DbscanConfig, cluster, episodes_from_clusters, score_seconds
from .evaluation import (
    EvalReport,
    Metrics,
    ablate_sensors,
    losocv,
    per_episode_metrics,
    per_second_metrics,
)
from .features import FeatureTable, extract, feature_layout
from .peaks import Peak, find_prominent_peaks
from .periodic import (
    PeriodicSubsequence,
    SweepConfig,
    longest_abs_periodic,
    longest_rel_periodic,
    segment,
)
from .records import (
    GapReport,
    IntervalKind,
    LabeledInterval,
    Session,
    derive_episode_labels,
    ingest_sensor_csv,
    inter_sequence_gap_cdf,
)
from .signals import DerivedTrace, derive, energy, lean_forward_angle
from .synthetic import Confounder, MealSpec, ScenarioSpec, generate

__all__ = [
    "BoostConfig",
    "Confounder",
    "DbscanConfig",
    "DerivedTrace",
    "EvalReport",
    "FeatureTable",
    "GapReport",
    "IntervalKind",
    "LabeledInterval",
    "MealSpec",
    "Metrics",
    "Peak",
    "PeriodicSubsequence",
    "PipelineConfig",
    "ScenarioSpec",
    "Session",
    "SweepConfig",
    "TrainedModel",
    "ablate_sensors",
    "classify_candidates",
    "cluster",
    "derive",
    "derive_episode_labels",
    "energy",
    "episodes_from_clusters",
    "extract",
    "feature_layout",
    "find_prominent_peaks",
    "generate",
    "ingest_sensor_csv",
    "inter_sequence_gap_cdf",
    "layout_fingerprint",
    "lean_forward_angle",
    "load_model",
    "longest_abs_periodic",
    "longest_rel_periodic",
    "losocv",
    "per_episode_metrics",
    "per_second_metrics",
    "predict_proba",
    "rank_features",
    "read_config",
    "save_model",
    "score_seconds",
    "segment",
    "train",
]
