"""Synthetic necklace traces with exactly known chewing activity.

The generator plants meals made of chewing sequences on the sample grid:
proximity gets a small bump per chew and a taller one per bite, ambient
light dips around bites, the lean-forward angle dips at each meal start,
and the energy signal stays near 1 g^2 apart from sparse bite spikes.
Confounders reproduce the hard cases: walking (sustained energy
oscillation, flat proximity), talking (prominent but irregular proximity
peaks with none of the other eating signatures), rest (nothing), and
dark-room eating (ambient pinned near zero through a meal).

Chew periods are snapped to the sample grid so planted peak times are exact;
the returned labels are therefore a ground-truth oracle for every stage.
Everything is driven by one seed: same spec, same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .records import NOMINAL_RATE_HZ, IntervalKind, LabeledInterval, Session, check_range, disjoint_spans
from .tables import field_types, key_values, parse_fields

CHEW_RATE_BAND_HZ = (0.94, 2.17)
CONFOUNDER_KINDS = ("walking", "talking", "rest", "dark_eating")
# 2020-01-01 10:00:00 UTC; keeps hour-of-day features stable across runs.
DEFAULT_START_EPOCH = 1_577_872_800.0
# Floor for peak amplitudes so noise-free scenarios still clear the
# default prominence threshold.
_AMP_FLOOR = 2.5


@dataclass(frozen=True)
class MealSpec:
    """One planted meal: a run of chewing sequences separated by breaks."""

    start: float
    n_sequences: int = 4
    chew_rate_hz: float = 1.5
    bite_period_s: float = 5.0
    seq_duration_s: float = 30.0
    seq_gap_s: float = 20.0

    def __post_init__(self) -> None:
        lo, hi = CHEW_RATE_BAND_HZ
        for name, interval in (
            ("start", "[0, inf)"), ("n_sequences", "[1, inf)"), ("chew_rate_hz", f"[{lo}, {hi}]"),
            ("bite_period_s", "(0, inf)"), ("seq_duration_s", "(0, inf)"), ("seq_gap_s", "(0, inf)"),
        ):
            check_range(name, getattr(self, name), interval)
        if not self.seq_duration_s * self.chew_rate_hz >= 2:
            raise ValueError("sequence too short to hold two chews")

    @property
    def span(self) -> tuple[float, float]:
        total = self.n_sequences * self.seq_duration_s + (self.n_sequences - 1) * self.seq_gap_s
        return self.start, self.start + total


@dataclass(frozen=True)
class Confounder:
    kind: str
    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.kind not in CONFOUNDER_KINDS:
            raise ValueError(f"unknown confounder {self.kind!r}, expected one of {CONFOUNDER_KINDS}")
        check_range("start", self.start, "[0, inf)")
        check_range("duration", self.duration, "(0, inf)")


@dataclass(frozen=True)
class ScenarioSpec:
    duration: float
    meals: tuple[MealSpec, ...] = ()
    confounders: tuple[Confounder, ...] = ()
    noise_prox: float = 0.0
    noise_ambient: float = 0.0
    noise_lfa_deg: float = 0.0
    noise_accel: float = 0.0
    seed: int = 0
    start_epoch: float = DEFAULT_START_EPOCH
    participant: str = "SYN"
    sample_rate_hz: float = NOMINAL_RATE_HZ

    def __post_init__(self) -> None:
        for name, interval in (
            ("duration", "(0, inf)"), ("sample_rate_hz", "(0, inf)"), ("start_epoch", "(-inf, inf)"),
            ("noise_prox", "[0, inf)"), ("noise_ambient", "[0, inf)"),
            ("noise_lfa_deg", "[0, inf)"), ("noise_accel", "[0, inf)"),
        ):
            check_range(name, getattr(self, name), interval)
        object.__setattr__(self, "meals", tuple(self.meals))
        object.__setattr__(self, "confounders", tuple(self.confounders))
        for lo, hi in disjoint_spans((m.span for m in self.meals), "meals"):
            if not hi <= self.duration:
                raise ValueError(f"meal [{lo}, {hi}] runs past the scenario duration")


def _snap_period(rate_hz: float, sample_rate_hz: float) -> float:
    # Nearest whole number of samples, at least one.
    samples = max(1, round(sample_rate_hz / rate_hz))
    return samples / sample_rate_hz


def _bump(center_idx: int, amp: float, out: np.ndarray) -> None:
    # Triangular 3-sample bump; the center stays the local max.
    out[center_idx] += amp
    if center_idx - 1 >= 0:
        out[center_idx - 1] += 0.4 * amp
    if center_idx + 1 < out.shape[0]:
        out[center_idx + 1] += 0.4 * amp


def _smooth_dip(t_rel: np.ndarray, center: float, depth: float, width: float, out: np.ndarray) -> None:
    lo, hi = np.searchsorted(t_rel, [center - 4 * width, center + 4 * width])
    seg = t_rel[lo:hi]
    out[lo:hi] -= depth * np.exp(-0.5 * ((seg - center) / width) ** 2)


def generate(spec: ScenarioSpec) -> tuple[Session, list[LabeledInterval]]:
    """Build a session plus its exact chewing-sequence ground truth.

    Labels span each sequence's first to last planted chew and obey the
    label invariants by construction.  A scenario without meals yields an
    empty label list.
    """
    rng = np.random.default_rng(spec.seed)
    fs = spec.sample_rate_hz
    n = int(round(spec.duration * fs))
    t_rel = np.arange(n) / fs

    prox = np.full(n, 100.0)
    ambient = np.full(n, 500.0)
    lfa = np.full(n, 90.0)
    accel = np.zeros((n, 3))
    accel[:, 2] = 1.0  # gravity at rest

    if spec.noise_prox:
        prox += rng.normal(0.0, spec.noise_prox, n)
    if spec.noise_ambient:
        ambient += rng.normal(0.0, spec.noise_ambient, n)
    if spec.noise_lfa_deg:
        lfa += rng.normal(0.0, spec.noise_lfa_deg, n)
    if spec.noise_accel:
        accel += rng.normal(0.0, spec.noise_accel, (n, 3))

    amp_scale = max(spec.noise_prox, _AMP_FLOOR)
    labels: list[LabeledInterval] = []

    for meal in sorted(spec.meals, key=lambda m: m.start):
        period = _snap_period(meal.chew_rate_hz, fs)
        bite_every = max(1, round(meal.bite_period_s / period))
        # Lean forward at the meal start.
        _smooth_dip(t_rel, meal.start, 25.0, 1.5, lfa)
        for k in range(meal.n_sequences):
            seq_start = meal.start + k * (meal.seq_duration_s + meal.seq_gap_s)
            n_chews = int(meal.seq_duration_s / period) + 1
            chew_times = [seq_start + c * period for c in range(n_chews)]
            for c, ct in enumerate(chew_times):
                idx = int(round(ct * fs))
                if idx >= n:
                    continue
                amp = rng.uniform(2.0, 4.0) * amp_scale
                if c % bite_every == 0:
                    amp *= 2.0
                    _smooth_dip(t_rel, ct, rng.uniform(150.0, 250.0), 0.4, ambient)
                    accel[idx, 2] += 0.8
                _bump(idx, amp, prox)
            first = spec.start_epoch + chew_times[0]
            last = spec.start_epoch + min(chew_times[-1], spec.duration - 1.0 / fs)
            labels.append(
                LabeledInterval(
                    start=first, end=last, kind=IntervalKind.CHEW, participant=spec.participant
                )
            )

    for conf in spec.confounders:
        lo = int(round(conf.start * fs))
        hi = min(n, int(round((conf.start + conf.duration) * fs)))
        if lo >= hi:
            continue
        if conf.kind == "walking":
            seg = t_rel[lo:hi]
            accel[lo:hi, 2] += 0.5 * np.sin(2 * math.pi * 1.8 * seg)
            accel[lo:hi, 0] += 0.3 * np.sin(2 * math.pi * 0.9 * seg)
        elif conf.kind == "talking":
            # Chin motion during speech: semi-periodic prominent proximity
            # peaks with none of the other eating signatures, so proximity
            # alone cannot reliably tell these from chewing.
            period = rng.uniform(0.7, 1.3)
            t = conf.start + rng.uniform(0.3, 1.0)
            while t < conf.start + conf.duration:
                idx = int(round(t * fs))
                if idx < n:
                    _bump(idx, rng.uniform(2.0, 4.0) * amp_scale, prox)
                t += period * rng.uniform(0.92, 1.08)
        elif conf.kind == "dark_eating":
            ambient[lo:hi] = 2.0
        # "rest" adds nothing on purpose.

    np.clip(ambient, 0.0, None, out=ambient)

    # Encode the LFA profile as an x-axis rotation so the round trip through
    # quaternions is exact.
    half = np.radians(lfa) / 2.0
    quat = np.zeros((n, 4))
    quat[:, 0] = np.cos(half)
    quat[:, 1] = np.sin(half)
    # Read-only, so the Session keeps them uncopied; the rest dropped first.
    t = spec.start_epoch + t_rel
    del t_rel, lfa, half
    for arr in (t, prox, ambient, quat, accel):
        arr.setflags(write=False)
    session = Session(
        participant=spec.participant,
        t=t,
        prox=prox,
        ambient=ambient,
        quat=quat,
        accel=accel,
        labels=tuple(labels),
    )
    return session, labels


# ---------------------------------------------------------------------------
# Flat-text scenario files.
# ---------------------------------------------------------------------------

# Scenario files name meal fields by these short tokens.
_MEAL_TOKENS = {
    "start": "start",
    "sequences": "n_sequences",
    "rate": "chew_rate_hz",
    "bite": "bite_period_s",
    "seq_dur": "seq_duration_s",
    "gap": "seq_gap_s",
}


def read_scenario(path: str | Path) -> ScenarioSpec:
    """Parse a scenario file: scalar keys plus repeatable meal/confounder lines.

    Example::

        duration = 7200
        noise_prox = 2.0
        meal = start=600 sequences=4 rate=1.5 bite=5 seq_dur=30 gap=20
        confounder = kind=talking start=3000 duration=120
    """
    path = Path(path)
    meal_types = {token: field_types(MealSpec)[name] for token, name in _MEAL_TOKENS.items()}
    meals: list[MealSpec] = []
    confounders: list[Confounder] = []
    scalars = []
    for lineno, key, raw in key_values(path.read_text(encoding="utf-8").splitlines(), path):
        if key not in ("meal", "confounder"):
            scalars.append((lineno, key, raw))
            continue
        # A token without '=' is a key with an empty value.
        tokens = [(lineno, *token.partition("=")[::2]) for token in raw.split()]
        types = meal_types if key == "meal" else field_types(Confounder)
        values = parse_fields(types, tokens, path, key)
        try:
            if key == "meal":
                meals.append(MealSpec(**{_MEAL_TOKENS[k]: v for k, v in values.items()}))
            else:
                missing = [name for name in types if name not in values]
                if missing:
                    raise ValueError(f"confounder missing {missing[0]!r}")
                confounders.append(Confounder(**values))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    values = parse_fields(field_types(ScenarioSpec), scalars, path, "scenario")
    if "duration" not in values:
        raise ValueError(f"{path}: scenario must set duration")
    try:
        return ScenarioSpec(meals=tuple(meals), confounders=tuple(confounders), **values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
