import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from polyservo.barriers import (
    EPS_L,
    AreaBounds,
    InputLimits,
    RecenteringAnchor,
    VisibilityParams,
    barrier_Bnu,
    barrier_Bx,
    constraint_L1,
    constraint_L2,
    fov_distance,
    recentered_barrier,
)
from polyservo.errors import BarrierBlowup, InputAtLimit


@pytest.fixture
def vis(intrinsics):
    return VisibilityParams.from_intrinsics(intrinsics, gamma=0.15)


@pytest.fixture
def bounds():
    return AreaBounds(sigma_min=0.02, sigma_max=0.6, delta=0.04)


@pytest.fixture
def limits():
    return InputLimits(nu_max=(1.0, 1.0, 1.0), omega_max=(1.0, 1.0, 1.0))


class TestVisibilityConstraint:
    def test_full_margin_is_one(self, vis):
        # Center of a 1.28 x 0.96 rectangle: clearance 0.48 = 3.2 gamma.
        assert constraint_L1(np.zeros(2), vis) == 1.0

    def test_half_margin_value(self, vis):
        # Place the centroid so the boundary distance is exactly gamma/2.
        sx = vis.x_max - vis.gamma / 2
        assert fov_distance(np.array([sx, 0.0]), vis) == pytest.approx(vis.gamma / 2)
        val = constraint_L1(np.array([sx, 0.0]), vis)
        assert val == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)

    def test_boundary_limit_zero(self, vis):
        for d in (1e-3, 1e-5, 1e-8):
            sx = vis.x_max - d
            assert constraint_L1(np.array([sx, 0.0]), vis) < 4 * d / vis.gamma
        assert constraint_L1(np.array([vis.x_max, 0.0]), vis) == 0.0

    def test_outside_fov_is_zero(self, vis):
        assert constraint_L1(np.array([vis.x_max + 0.1, 0.0]), vis) == 0.0

    def test_continuity_at_margin(self, vis):
        base = np.array([vis.x_max - vis.gamma, 0.0])
        v0 = constraint_L1(base, vis)
        assert v0 == 1.0
        for h in (1e-3, 1e-5, 1e-7):
            inside_band = constraint_L1(base + [h, 0.0], vis)
            assert abs(inside_band - 1.0) < 1e-6

    def test_range(self, vis):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = rng.uniform(-0.8, 0.8, 2)
            assert 0.0 <= constraint_L1(s, vis) <= 1.0

    def test_gamma_validation(self, intrinsics):
        with pytest.raises(ValueError):
            VisibilityParams.from_intrinsics(intrinsics, gamma=0.49)


class TestAreaConstraint:
    def test_mid_range_is_one(self, bounds):
        assert constraint_L2(np.log(0.2), bounds) == 1.0

    def test_half_margin_value(self, bounds):
        sigma = bounds.sigma_min + bounds.delta / 2
        val = constraint_L2(np.log(sigma), bounds)
        assert val == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)

    def test_lower_bound_zero(self, bounds):
        assert constraint_L2(np.log(bounds.sigma_min), bounds) == 0.0

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            AreaBounds(sigma_min=0.5, sigma_max=0.4, delta=0.01)
        with pytest.raises(ValueError):
            AreaBounds(sigma_min=0.1, sigma_max=0.2, delta=0.06)


class TestRecenteredBarrier:
    def test_zero_at_setpoint(self, vis, bounds):
        x_des = np.array([0.0, 0.0, np.log(0.2), 0.5])
        anchor = RecenteringAnchor(x_des, vis, bounds)
        assert recentered_barrier(x_des, 1, anchor) == 0.0
        assert recentered_barrier(x_des, 2, anchor) == 0.0
        assert barrier_Bx(x_des, anchor) == 0.0

    def test_gradient_vanishes_at_setpoint(self, vis, bounds):
        x_des = np.array([0.1, -0.05, np.log(0.15), 0.3])
        anchor = RecenteringAnchor(x_des, vis, bounds)
        h = 1e-6
        for j in (1, 2):
            for i in range(4):
                xp, xm = x_des.copy(), x_des.copy()
                xp[i] += h
                xm[i] -= h
                g = (recentered_barrier(xp, j, anchor) - recentered_barrier(xm, j, anchor)) / (2 * h)
                assert abs(g) < 1e-6

    def test_blowup_toward_boundary(self, vis, bounds):
        x_des = np.zeros(4)
        x_des[2] = np.log(0.2)
        anchor = RecenteringAnchor(x_des, vis, bounds)
        vals = []
        for d in (1e-2, 1e-3, 1e-4):
            x = x_des.copy()
            x[0] = vis.x_max - d
            vals.append(recentered_barrier(x, 1, anchor))
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] > 1e5

    def test_blowup_error_outside(self, vis, bounds):
        x_des = np.zeros(4)
        x_des[2] = np.log(0.2)
        anchor = RecenteringAnchor(x_des, vis, bounds)
        x = x_des.copy()
        x[0] = vis.x_max + 0.01
        with pytest.raises(BarrierBlowup):
            recentered_barrier(x, 1, anchor)

    def test_anchor_requires_interior_setpoint(self, vis, bounds):
        bad = np.array([vis.x_max, 0.0, np.log(0.2), 0.0])
        with pytest.raises(ValueError):
            RecenteringAnchor(bad, vis, bounds)

    def test_nonnegative_on_interior_grid(self, vis, bounds):
        x_des = np.array([0.0, 0.0, np.log(0.15), 0.2])
        anchor = RecenteringAnchor(x_des, vis, bounds)
        rng = np.random.default_rng(1)
        for _ in range(500):
            x = x_des + rng.uniform(-1.0, 1.0, 4) * np.array([0.4, 0.3, 1.0, 1.0])
            if constraint_L1(x[:2], vis) <= EPS_L or constraint_L2(x[2], bounds) <= EPS_L:
                continue
            assert barrier_Bx(x, anchor) >= -1e-12

    def test_monotone_along_ray(self, vis, bounds):
        x_des = np.array([0.0, 0.0, np.log(0.15), 0.0])
        anchor = RecenteringAnchor(x_des, vis, bounds)
        direction = np.array([vis.x_max, 0.0, 0.0, 0.0])
        vals = [barrier_Bx(x_des + lam * direction, anchor) for lam in np.linspace(0, 0.98, 25)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# Setpoints are drawn as fractions of the FoV rectangle and the area range;
# the vis and bounds fixtures are immutable, so sharing them is safe.
SLOPE_PROPS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.filter_too_much],
)
_fractions = st.tuples(*[st.floats(0.0, 1.0)] * 4)


def _setpoint(u, x_lim, y_lim, sigma_lim):
    """State whose centroid and area sit at fractions ``u`` of the given ranges."""
    (x0, x1), (y0, y1), (s0, s1) = x_lim, y_lim, sigma_lim
    return np.array(
        [x0 + u[0] * (x1 - x0), y0 + u[1] * (y1 - y0), np.log(s0 + u[2] * (s1 - s0)), u[3]]
    )


def _l(x, vis, bounds):
    return np.array([constraint_L1(x[:2], vis), constraint_L2(x[2], bounds)])


class TestAnchorSlope:
    @SLOPE_PROPS
    @given(u=_fractions)
    def test_matches_central_differences(self, vis, bounds, u):
        x_des = _setpoint(
            u, (vis.x_min, vis.x_max), (vis.y_min, vis.y_max), (bounds.sigma_min, bounds.sigma_max)
        )
        l = _l(x_des, vis, bounds)
        assume(l.min() >= 1e-3)
        # 1/l1 has a kink where two FoV clearances tie; no slope to compare there.
        sx, sy = x_des[:2]
        clear = np.sort([sx - vis.x_min, vis.x_max - sx, sy - vis.y_min, vis.y_max - sy])
        assume(clear[1] - clear[0] > 1e-4)
        anchor = RecenteringAnchor(x_des, vis, bounds)
        h = 1e-6
        fd = np.zeros((2, 4))
        for i in range(4):
            step = np.zeros(4)
            step[i] = h
            fd[:, i] = (
                1.0 / _l(x_des + step, vis, bounds) - 1.0 / _l(x_des - step, vis, bounds)
            ) / (2 * h)
        # Central differences of 1/l carry a roundoff of about eps / (h * l).
        tol = 1e-6 * np.abs(fd) + 1e-9 / l[:, None]
        assert (np.abs(anchor.grad_b_des - fd) <= tol).all()

    @SLOPE_PROPS
    @given(u=_fractions)
    def test_zero_beyond_margins(self, vis, bounds, u):
        x_des = _setpoint(
            u,
            (vis.x_min + vis.gamma, vis.x_max - vis.gamma),
            (vis.y_min + vis.gamma, vis.y_max - vis.gamma),
            (bounds.sigma_min + bounds.delta, bounds.sigma_max - bounds.delta),
        )
        anchor = RecenteringAnchor(x_des, vis, bounds)
        np.testing.assert_array_equal(anchor.b_des, [1.0, 1.0])
        assert (anchor.grad_b_des == 0.0).all()


class TestInputBarrier:
    def test_zero_at_rest(self, limits):
        assert barrier_Bnu(np.zeros(6), limits) == 0.0

    def test_half_limit_component(self, limits):
        nu = np.zeros(6)
        nu[0] = 0.5
        assert barrier_Bnu(nu, limits) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_blowup_near_limit(self, limits):
        vals = []
        for v in (0.9, 0.99, 0.999999):
            nu = np.zeros(6)
            nu[2] = v
            vals.append(barrier_Bnu(nu, limits))
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] > 1e5

    def test_error_at_limit(self, limits):
        nu = np.zeros(6)
        nu[1] = 1.0
        with pytest.raises(InputAtLimit):
            barrier_Bnu(nu, limits)

    def test_positive_except_origin(self, limits):
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            nu = rng.uniform(-0.99, 0.99, 6)
            val = barrier_Bnu(nu, limits)
            if np.abs(nu).max() > 1e-8:
                assert val > 0.0

    def test_masked_vector(self, limits):
        mask = np.array([True, True, True, False, False, True])
        nu = np.array([0.5, 0.0, 0.0, 0.0])
        assert barrier_Bnu(nu, limits, mask) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            InputLimits(nu_max=(1.0, -1.0, 1.0), omega_max=(1.0, 1.0, 1.0))
