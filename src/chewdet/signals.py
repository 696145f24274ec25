"""Analysis signals derived from raw frames.

Four aligned traces drive the rest of the pipeline: proximity and ambient
light pass through untouched, the lean-forward angle comes from the
orientation quaternion, and the energy signal is the sum of squared
tri-axial accelerations.  No smoothing is applied here; prominence-based
peak finding downstream owns noise handling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .records import Session, check_increasing
from .tables import read_table, write_table

DERIVED_HEADER = ("t_ms", "prox", "ambient", "lfa_deg", "energy_g2")
DERIVED_KINDS = "mffff"
SIGNALS = ("prox", "ambient", "lfa", "energy")


@dataclass(frozen=True)
class DerivedTrace:
    """The four analysis signals on the session's common time base."""

    t: np.ndarray
    prox: np.ndarray
    ambient: np.ndarray
    lfa: np.ndarray  # degrees in [0, 180]
    energy: np.ndarray  # g^2

    def __post_init__(self) -> None:
        n = self.t.shape[0]
        for name in SIGNALS:
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must match the time base length {n}")
        check_increasing(self.t)
        if n and (self.lfa.min() < -1e-9 or self.lfa.max() > 180.0 + 1e-9):
            raise ValueError("lean-forward angle out of [0, 180] degrees")
        if n and self.energy.min() < 0:
            raise ValueError("energy must be non-negative")

    def __len__(self) -> int:
        return int(self.t.shape[0])

    def signal(self, name: str) -> np.ndarray:
        if name not in SIGNALS:
            raise KeyError(f"unknown signal {name!r}")
        return getattr(self, name)


def lean_forward_angle(q) -> float:
    """Angle in degrees between the device normal and the vertical.

    The vertical n1 = [0, 0, 1] is rotated by the unit quaternion q
    (w, x, y, z); the angle is acos of the dot product between n1 and its
    image, which reduces to acos(1 - 2(x^2 + y^2)) for a normalized q.
    0 deg means the device normal points straight up, 180 deg straight down.
    """
    w, x, y, z = (float(v) for v in q)
    n = w * w + x * x + y * y + z * z
    if n == 0.0:
        raise ValueError("zero quaternion has no orientation")
    # Dividing by the squared norm normalizes q exactly; the dot product is
    # clamped so rounded-but-unit quaternions cannot push acos out of range.
    d = 1.0 - 2.0 * (x * x + y * y) / n
    return math.degrees(math.acos(max(-1.0, min(1.0, d))))


def lean_forward_angles(quat: np.ndarray) -> np.ndarray:
    """Vectorized lean_forward_angle over an (n, 4) quaternion array."""
    quat = np.asarray(quat, dtype=float)
    n = np.einsum("ij,ij->i", quat, quat)
    if np.any(n == 0.0):
        bad = int(np.flatnonzero(n == 0.0)[0])
        raise ValueError(f"zero quaternion at frame {bad}")
    d = 1.0 - 2.0 * (quat[:, 1] ** 2 + quat[:, 2] ** 2) / n
    return np.degrees(np.arccos(np.clip(d, -1.0, 1.0)))


def energy(a) -> float:
    """Sum of squares of the tri-axial acceleration, in g^2."""
    ax, ay, az = (float(v) for v in a)
    return ax * ax + ay * ay + az * az


def energies(accel: np.ndarray) -> np.ndarray:
    accel = np.asarray(accel, dtype=float)
    return np.einsum("ij,ij->i", accel, accel)


def derive(session: Session) -> DerivedTrace:
    """Compute the four analysis signals for every frame of a session."""
    if not len(session):
        raise ValueError("cannot derive signals from an empty session")
    return DerivedTrace(
        t=session.t,
        prox=session.prox,
        ambient=session.ambient,
        lfa=lean_forward_angles(session.quat),
        energy=energies(session.accel),
    )


def write_derived_csv(path: str | Path, trace: DerivedTrace) -> None:
    columns = (trace.t, trace.prox, trace.ambient, trace.lfa, trace.energy)
    write_table(path, DERIVED_HEADER, DERIVED_KINDS, columns)


def read_derived_csv(path: str | Path) -> DerivedTrace:
    columns = read_table(path, DERIVED_HEADER, DERIVED_KINDS).columns
    try:
        return DerivedTrace(*columns)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
