import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyservo.errors import DegenerateTarget
from polyservo.targets import (
    Breathing,
    CentroidFlowEstimator,
    DeformableTarget,
    RigidDrift,
    TravelingWave,
    polygon_is_simple,
)

SQUARE = np.array([[0.3, 0.3], [-0.3, 0.3], [-0.3, -0.3], [0.3, -0.3]])


def shoelace(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs((x * np.roll(y, -1) - np.roll(x, -1) * y).sum())


class TestGenerators:
    def test_no_modes_static(self):
        tgt = DeformableTarget(SQUARE)
        for t in (0.0, 1.3, 7.7):
            np.testing.assert_array_equal(tgt.sample(t), SQUARE)

    def test_rigid_drift_velocity(self):
        tgt = DeformableTarget(SQUARE, [RigidDrift(velocity=(0.1, -0.05))])
        np.testing.assert_allclose(tgt.sample(2.0), SQUARE + [0.2, -0.1], atol=1e-14)

    def test_breathing_area_ratio(self):
        tgt = DeformableTarget(SQUARE, [Breathing(amplitude=0.12, frequency=0.3)], seed=4)
        phase = tgt._breath_phase[0]
        a0 = shoelace(tgt.sample(0.0))
        for t in (0.4, 1.1, 2.9):
            a_t = shoelace(tgt.sample(t))
            lam0 = 1 + 0.12 * np.sin(phase)
            lam_t = 1 + 0.12 * np.sin(2 * np.pi * 0.3 * t + phase)
            assert a_t / a0 == pytest.approx((lam_t / lam0) ** 2, rel=1e-12)

    def test_seeded_replay_identical(self):
        modes = [TravelingWave(amplitude=0.03, wavelength=0.6, speed=0.1)]
        a = DeformableTarget(SQUARE, modes, seed=9)
        b = DeformableTarget(SQUARE, modes, seed=9)
        np.testing.assert_array_equal(a.sample(3.21), b.sample(3.21))

    def test_validation_catches_self_intersection(self):
        pent = np.array([[0.3, 0.2], [0.0, 0.25], [-0.3, 0.2], [-0.15, -0.25], [0.15, -0.25]])
        wild = DeformableTarget(
            pent, [TravelingWave(amplitude=1.0, wavelength=0.6, speed=0.07)], seed=1
        )
        with pytest.raises(DegenerateTarget):
            wild.validate(duration=5.0)

    def test_simplicity_predicate(self):
        assert polygon_is_simple(SQUARE)
        bowtie = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], dtype=float)
        assert not polygon_is_simple(bowtie)


def _segments_intersect(p1, p2, q1, q2):
    """Reference: proper or touching intersection of segments p1p2 and q1q2."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True

    def on_seg(a, b, c):
        return (
            min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        )

    return (
        (d1 == 0 and on_seg(q1, q2, p1))
        or (d2 == 0 and on_seg(q1, q2, p2))
        or (d3 == 0 and on_seg(p1, p2, q1))
        or (d4 == 0 and on_seg(p1, p2, q2))
    )


def simple_reference(pts):
    """Pairwise loop over the non-adjacent edge pairs of the closed polygon."""
    n = len(pts)
    edges = [(pts[i], pts[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_intersect(*edges[i], *edges[j]):
                return False
    return True


def _by_angle(points):
    """Order points by angle about their mean: mostly simple, often touching."""
    pts = np.array(points, dtype=float)
    d = pts - pts.mean(axis=0)
    return pts[np.argsort(np.arctan2(d[:, 1], d[:, 0]), kind="stable")]


# Small integer lattices make collinear, touching and repeated vertices common.
SIMPLE_PROPS = settings(max_examples=300, deadline=None, derandomize=True)
_lattice_point = st.tuples(st.integers(0, 4), st.integers(0, 4))
_lattice_polygon = st.one_of(
    st.lists(_lattice_point, min_size=3, max_size=12).map(lambda p: np.array(p, dtype=float)),
    st.lists(_lattice_point, min_size=3, max_size=12, unique=True).map(_by_angle),
)


@SIMPLE_PROPS
@given(_lattice_polygon)
def test_simplicity_matches_pairwise_reference(pts):
    assert polygon_is_simple(pts) == simple_reference(pts)


# Each touches at a vertex that only one of the predicate's four touching
# tests sees; random lattice polygons rarely hit these.
@pytest.mark.parametrize(
    "points",
    [
        [[0, 1], [1, 1], [1, 0], [0, 0], [0, 2]],
        [[3, 1], [2, 2], [3, 2], [3, 3]],
        [[3, 3], [3, 1], [3, 2], [1, 3]],
        [[0, 3], [2, 1], [2, 0], [1, 2]],
    ],
)
def test_touching_at_one_vertex_is_not_simple(points):
    pts = np.array(points, dtype=float)
    assert not simple_reference(pts)
    assert not polygon_is_simple(pts)


@SIMPLE_PROPS
@given(
    st.integers(3, 12).flatmap(
        lambda n: st.lists(
            st.lists(_lattice_point, min_size=n, max_size=n), min_size=1, max_size=6
        )
    )
)
def test_stacked_simplicity_matches_one_call_per_polygon(polys):
    stack = np.array(polys, dtype=float)
    batched = polygon_is_simple(stack)
    assert batched.shape == (len(polys),)
    assert batched.tolist() == [bool(polygon_is_simple(p)) for p in stack]


def centroid_flow(prev, curr, L_hat, nu_hat):
    """The flow a fresh estimator returns for two ``(centroid, time)`` samples."""
    est = CentroidFlowEstimator()
    est.update(*prev, L_hat, nu_hat)
    return est.update(*curr, L_hat, nu_hat)


class TestFlowEstimator:
    def test_cold_start_returns_zero(self):
        est = CentroidFlowEstimator()
        flow = est.update(np.array([0.1, 0.2]), 0.0, np.zeros((2, 6)), np.zeros(6))
        np.testing.assert_array_equal(flow, np.zeros(2))

    def test_static_target_with_exact_compensation(self):
        # Centroid moved exactly by L nu dt: removing the camera-induced
        # motion leaves zero flow.
        rng = np.random.default_rng(0)
        L = rng.normal(size=(2, 6))
        nu = rng.normal(size=6)
        dt = 0.1
        s0 = np.array([0.05, -0.02])
        s1 = s0 + L @ nu * dt
        flow = centroid_flow((s0, 0.0), (s1, dt), L, nu)
        np.testing.assert_allclose(flow, np.zeros(2), atol=1e-12)

    def test_drifting_target_without_camera_motion(self):
        v = np.array([0.03, -0.01])
        s0 = np.zeros(2)
        dt = 0.1
        flow = centroid_flow((s0, 0.0), (s0 + v * dt, dt), np.zeros((2, 6)), np.zeros(6))
        np.testing.assert_allclose(flow, v, atol=1e-14)

    def test_halving_dt_halves_discretization_error(self):
        # Quadratic centroid path: the first-difference estimate lags the
        # true instantaneous velocity by O(dt).
        accel = np.array([0.2, -0.1])
        errs = []
        for dt in (0.1, 0.05):
            s_prev = 0.5 * accel * (1.0 - dt) ** 2
            s_curr = 0.5 * accel * 1.0**2
            flow = centroid_flow(
                (s_prev, 1.0 - dt), (s_curr, 1.0), np.zeros((2, 6)), np.zeros(6)
            )
            errs.append(np.linalg.norm(flow - accel * 1.0))
        assert errs[1] == pytest.approx(0.5 * errs[0], rel=1e-6)
