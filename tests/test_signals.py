import math
import re

import numpy as np
import pytest

from chewdet.records import Session
from chewdet.signals import (
    DerivedTrace,
    derive,
    energies,
    energy,
    lean_forward_angle,
    lean_forward_angles,
    read_derived_csv,
    write_derived_csv,
)


def x_rotation(deg):
    half = math.radians(deg) / 2.0
    return (math.cos(half), math.sin(half), 0.0, 0.0)


def z_rotation(deg):
    half = math.radians(deg) / 2.0
    return (math.cos(half), 0.0, 0.0, math.sin(half))


def quat_multiply(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def random_unit_quats(rng, n):
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def session_from(quat, accel):
    n = quat.shape[0]
    return Session(
        participant="P1",
        t=np.arange(n) / 20.0,
        prox=np.full(n, 100.0),
        ambient=np.full(n, 500.0),
        quat=quat,
        accel=accel,
    )


class TestLeanForwardAngle:
    def test_identity_is_zero(self):
        assert lean_forward_angle((1, 0, 0, 0)) == pytest.approx(0.0, abs=1e-9)

    def test_quarter_turn_about_x(self):
        assert lean_forward_angle(x_rotation(90)) == pytest.approx(90.0, abs=1e-9)

    def test_half_turn_about_x(self):
        assert lean_forward_angle((0, 1, 0, 0)) == pytest.approx(180.0, abs=1e-9)

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError, match="zero quaternion"):
            lean_forward_angle((0, 0, 0, 0))

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(5)
        for q in random_unit_quats(rng, 1000):
            assert lean_forward_angle(q) == pytest.approx(
                lean_forward_angle(-q), abs=1e-9
            )

    def test_yaw_precomposition_invariance(self):
        # A rotation about z applied first leaves the vertical untouched.
        rng = np.random.default_rng(6)
        quats = random_unit_quats(rng, 1000)
        yaws = rng.uniform(-180, 180, size=1000)
        for q, yaw in zip(quats, yaws):
            composed = quat_multiply(tuple(q), z_rotation(yaw))
            assert lean_forward_angle(composed) == pytest.approx(
                lean_forward_angle(q), abs=1e-9
            )

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(7)
        quats = random_unit_quats(rng, 200)
        vec = lean_forward_angles(quats)
        for k, q in enumerate(quats):
            assert vec[k] == pytest.approx(lean_forward_angle(q), abs=1e-12)

    def test_unnormalized_input_normalized_first(self):
        q = tuple(3.0 * v for v in x_rotation(40))
        assert lean_forward_angle(q) == pytest.approx(40.0, abs=1e-9)


class TestEnergy:
    def test_zero(self):
        assert energy((0, 0, 0)) == 0.0

    def test_sum_of_squares(self):
        assert energy((1, 2, 2)) == 9.0

    def test_sign_invariance(self):
        assert energy((-3, 4, 0)) == 25.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            v = rng.normal(size=3)
            q = random_unit_quats(rng, 1)[0]
            w, x, y, z = q
            rot = np.array(
                [
                    [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                    [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                    [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
                ]
            )
            assert energy(rot @ v) == pytest.approx(energy(v), rel=1e-12)


class TestDerive:
    def test_single_frame(self):
        session = session_from(np.array([[1.0, 0, 0, 0]]), np.array([[0.0, 0, 1]]))
        trace = derive(session)
        assert trace.lfa == pytest.approx([0.0])
        assert trace.energy == pytest.approx([1.0])

    def test_shapes(self):
        rng = np.random.default_rng(9)
        n = 50
        session = session_from(random_unit_quats(rng, n), rng.normal(size=(n, 3)))
        trace = derive(session)
        for name in ("t", "prox", "ambient", "lfa", "energy"):
            assert getattr(trace, name).shape == (n,)

    def test_lean_forward_ramp_recovered(self):
        # Quaternion ramp of x-rotations 0..30 degrees: derived lfa matches
        # the planted angles exactly and increases monotonically.
        angles = np.linspace(0.0, 30.0, 120)
        quat = np.array([x_rotation(a) for a in angles])
        session = session_from(quat, np.tile([0.0, 0.0, 1.0], (120, 1)))
        trace = derive(session)
        assert np.all(np.diff(trace.lfa) >= 0)
        assert trace.lfa == pytest.approx(angles, abs=1e-9)

    def test_empty_session_rejected(self):
        session = Session(
            participant="P1",
            t=np.array([]),
            prox=np.array([]),
            ambient=np.array([]),
            quat=np.zeros((0, 4)),
            accel=np.zeros((0, 3)),
        )
        with pytest.raises(ValueError, match="empty session"):
            derive(session)

    def test_pure_and_deterministic(self):
        rng = np.random.default_rng(10)
        session = session_from(random_unit_quats(rng, 30), rng.normal(size=(30, 3)))
        a = derive(session)
        b = derive(session)
        assert np.array_equal(a.lfa, b.lfa)
        assert np.array_equal(a.energy, b.energy)

    def test_energies_vectorized(self):
        accel = np.array([[0, 0, 0], [1, 2, 2], [-3, 4, 0]], dtype=float)
        assert energies(accel) == pytest.approx([0.0, 9.0, 25.0])


def random_trace(n=25, t=None):
    rng = np.random.default_rng(12)
    return DerivedTrace(
        t=np.arange(n) / 20.0 if t is None else t,
        prox=rng.normal(100, 3, n),
        ambient=np.abs(rng.normal(500, 10, n)),
        lfa=rng.uniform(0, 180, n),
        energy=rng.uniform(0, 4, n),
    )


class TestDerivedTrace:
    def test_time_base_must_increase_strictly(self):
        t = np.arange(5) / 20.0
        t[[2, 3]] = t[[3, 2]]
        with pytest.raises(ValueError, match=r"^timestamps must be strictly increasing; "
                                             r"t\[2\]=0\.15 >= t\[3\]=0\.1$"):
            random_trace(5, t)


class TestDerivedCsv:
    def test_swapped_rows_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "derived.csv"
        write_derived_csv(path, random_trace())
        lines = path.read_text().splitlines()
        lines[3], lines[4] = lines[4], lines[3]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: timestamps must be "
                                             r"strictly increasing; t\[2\]=0\.15 >= t\[3\]=0\.1$"):
            read_derived_csv(path)

    def test_roundtrip(self, tmp_path):
        trace = random_trace()
        path = tmp_path / "derived.csv"
        write_derived_csv(path, trace)
        back = read_derived_csv(path)
        assert np.array_equal(back.prox, trace.prox)
        assert np.array_equal(back.lfa, trace.lfa)
        assert np.array_equal(back.energy, trace.energy)
