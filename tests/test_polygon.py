import numpy as np
import pytest

from polyservo import (
    PolygonFeatures,
    angle_gradient,
    area_gradient,
    dynamics_matrix,
    printed_dynamics_matrix,
    extract_state,
    propagate_discrete,
    state_jacobian,
)
from polyservo.camera import interaction_matrices
from polyservo.polygon import _shoelace_sum
from polyservo.errors import AngleSingularity, DegenerateArea, StepDegeneracy
from conftest import central_diff_vertices, random_polygon

UNIT_SQUARE = np.array([[0.5, -0.5], [0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5]])
TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def area(poly):
    """The area sigma as the state reports it, exp of its log-area entry."""
    return np.exp(extract_state(poly)[2])


class TestCentroidArea:
    def test_square_centroid(self):
        x = extract_state(PolygonFeatures(UNIT_SQUARE))
        np.testing.assert_allclose(x[:2], [0, 0], atol=1e-15)

    def test_triangle_centroid(self):
        np.testing.assert_allclose(extract_state(PolygonFeatures(TRIANGLE))[:2], [1 / 3, 1 / 3])

    def test_translation_shifts_centroid(self):
        rng = np.random.default_rng(0)
        poly = random_polygon(rng, 7)
        t = np.array([0.21, -0.13])
        shifted = PolygonFeatures(poly.vertices + t)
        np.testing.assert_allclose(
            extract_state(shifted)[:2], extract_state(poly)[:2] + t, atol=1e-14
        )

    def test_ccw_square_area_sum(self):
        assert _shoelace_sum(UNIT_SQUARE) == pytest.approx(2.0)
        assert area(PolygonFeatures(UNIT_SQUARE)) == pytest.approx(1.0)

    def test_reversal_flips_sign(self):
        fwd = _shoelace_sum(UNIT_SQUARE)
        rev = _shoelace_sum(UNIT_SQUARE[::-1])
        assert fwd == pytest.approx(-rev)

    def test_triangle_area_sum(self):
        assert _shoelace_sum(TRIANGLE) == pytest.approx(1.0)
        assert area(PolygonFeatures(TRIANGLE)) == pytest.approx(0.5)

    def test_cyclic_rotation_invariance(self):
        rng = np.random.default_rng(1)
        poly = random_polygon(rng, 8)
        for k in range(1, 8):
            rolled = np.roll(poly.vertices, k, axis=0)
            assert _shoelace_sum(rolled) == pytest.approx(_shoelace_sum(poly.vertices), rel=1e-12)

    def test_scaling_law(self):
        rng = np.random.default_rng(2)
        poly = random_polygon(rng, 6)
        lam = 1.7
        c = extract_state(poly)[:2]
        scaled = PolygonFeatures(c + lam * (poly.vertices - c))
        assert area(scaled) == pytest.approx(lam**2 * area(poly), rel=1e-12)


class TestExtractState:
    def test_triangle_reference_angle(self):
        x = extract_state(PolygonFeatures(TRIANGLE))
        np.testing.assert_allclose(x, [1 / 3, 1 / 3, np.log(0.5), -2.0], atol=1e-14)

    def test_square_right_side_refs(self):
        # Reference pair on the right edge: midpoint sits on the +x axis.
        x = extract_state(PolygonFeatures(UNIT_SQUARE, reference_pair=(0, 1)))
        assert x[3] == pytest.approx(0.0, abs=1e-15)

    def test_uniform_scaling_about_centroid(self):
        rng = np.random.default_rng(3)
        poly = random_polygon(rng, 9)
        x = extract_state(poly)
        lam = 1.35
        c = x[:2]
        scaled = PolygonFeatures(c + lam * (poly.vertices - c), poly.reference_pair)
        xs = extract_state(scaled)
        np.testing.assert_allclose(xs[:2], x[:2], atol=1e-13)
        assert xs[2] == pytest.approx(x[2] + 2 * np.log(lam), rel=1e-12)
        assert xs[3] == pytest.approx(x[3], rel=1e-12)

    def test_degenerate_area_rejected(self):
        flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1e-9], [1.0, 1e-10]])
        with pytest.raises((DegenerateArea, ValueError)):
            extract_state(PolygonFeatures(flat))

    def test_angle_singularity_rejected(self):
        # Reference midpoint directly above the centroid.
        pts = np.array([[0.4, 0.5], [-0.4, 0.5], [-0.4, -0.5], [0.4, -0.5]])
        with pytest.raises(AngleSingularity):
            extract_state(PolygonFeatures(pts, reference_pair=(0, 1)))


class TestGradients:
    def test_square_vertex_gradient(self):
        grad = area_gradient(PolygonFeatures(UNIT_SQUARE))
        np.testing.assert_allclose(grad[1], [0.5, 0.5], atol=1e-15)  # vertex (0.5, 0.5)

    def test_area_gradient_matches_fd(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            poly = random_polygon(rng, int(rng.integers(3, 13)))
            grad = area_gradient(poly)
            fd = central_diff_vertices(
                lambda p: 0.5 * abs(_shoelace_sum(p)), poly.vertices
            )
            err = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
            assert err < 1e-8

    def test_translation_leaves_gradient(self):
        rng = np.random.default_rng(5)
        poly = random_polygon(rng, 7)
        moved = PolygonFeatures(poly.vertices + [0.3, -0.2])
        np.testing.assert_allclose(area_gradient(moved), area_gradient(poly), atol=1e-14)

    def test_angle_gradient_matches_fd(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            poly = random_polygon(rng, int(rng.integers(3, 13)))

            def abar(p):
                return extract_state(PolygonFeatures(p, poly.reference_pair))[3]

            grad = angle_gradient(poly)
            fd = central_diff_vertices(abar, poly.vertices)
            err = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
            assert err < 1e-8

    def test_nonreference_gradient_scales_inversely_with_n(self):
        rng = np.random.default_rng(7)
        small = random_polygon(rng, 4)
        mags = {}
        for n in (6, 24):
            ang = np.linspace(0, 2 * np.pi, n, endpoint=False) + 0.3
            poly = PolygonFeatures(np.column_stack([np.cos(ang), 0.8 * np.sin(ang)]))
            mags[n] = np.linalg.norm(angle_gradient(poly)[3])
        assert mags[24] < mags[6]

    def test_rotation_consistency(self):
        # Numeric derivative of the tangent under a rigid CCW rotation
        # equals 1 + abar^2; camera yaw drives the same term negatively.
        rng = np.random.default_rng(8)
        poly = random_polygon(rng, 6)
        abar = extract_state(poly)[3]
        h = 1e-6

        def rotated(theta):
            c, s = np.cos(theta), np.sin(theta)
            R = np.array([[c, -s], [s, c]])
            return extract_state(PolygonFeatures(poly.vertices @ R.T, poly.reference_pair))[3]

        d_num = (rotated(h) - rotated(-h)) / (2 * h)
        assert d_num == pytest.approx(1 + abar**2, rel=1e-6)
        g = dynamics_matrix(poly, 2.0)
        assert g[3, 5] == pytest.approx(-(1 + abar**2), rel=1e-12)


class TestDynamicsMatrix:
    def test_unit_square_row1(self):
        poly = PolygonFeatures(UNIT_SQUARE)
        g = dynamics_matrix(poly, 1.0)
        np.testing.assert_allclose(g[0], [-1, 0, 0, 0, -1.25, 0], atol=1e-15)

    def test_structural_zeros_and_area_column(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            poly = random_polygon(rng, int(rng.integers(3, 13)))
            z = rng.uniform(0.8, 4.0)
            g = dynamics_matrix(poly, z)
            assert g[2, 0] == 0.0 and g[2, 1] == 0.0 and g[2, 5] == 0.0
            assert g[3, 0] == 0.0 and g[3, 1] == 0.0 and g[3, 2] == 0.0
            assert g[2, 2] == pytest.approx(2.0 / z, rel=1e-14)

    def test_angle_row_yaw_entry(self):
        rng = np.random.default_rng(10)
        poly = random_polygon(rng, 5)
        x = extract_state(poly)
        g = dynamics_matrix(poly, 2.0)
        assert g[3, 5] == pytest.approx(-(x[3] ** 2) - 1.0, rel=1e-12)

    def test_modes_compared(self):
        # Rows 1-2 agree exactly; the angle rows agree analytically; the
        # printed area row differs and the gap is reported, not hidden.
        rng = np.random.default_rng(11)
        gaps = []
        for _ in range(10):
            poly = random_polygon(rng, int(rng.integers(4, 10)))
            x = extract_state(poly)
            gc = dynamics_matrix(poly, 2.0)
            gp = printed_dynamics_matrix(poly, x, 2.0)
            np.testing.assert_array_equal(gc[:2], gp[:2])
            np.testing.assert_allclose(gc[3], gp[3], atol=1e-10)
            gaps.append(np.abs(gc[2] - gp[2]).max())
        print(f"\nclosed-form area-row discrepancy, max abs over samples: {max(gaps):.3e}")
        assert max(gaps) > 0.0  # the printed form is genuinely different


class TestStateJacobian:
    def test_centroid_rows_constant(self):
        rng = np.random.default_rng(12)
        poly = random_polygon(rng, 6)
        jac = state_jacobian(poly)
        np.testing.assert_array_equal(jac[0, 0::2], np.full(6, 1 / 6))
        np.testing.assert_array_equal(jac[0, 1::2], np.zeros(6))
        np.testing.assert_array_equal(jac[1, 1::2], np.full(6, 1 / 6))

    def test_matches_fd(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            poly = random_polygon(rng, int(rng.integers(3, 13)))
            jac = state_jacobian(poly)
            for row in range(4):

                def comp(p, row=row):
                    return extract_state(PolygonFeatures(p, poly.reference_pair))[row]

                fd = central_diff_vertices(comp, poly.vertices).ravel()
                err = np.linalg.norm(jac[row] - fd) / max(np.linalg.norm(fd), 1e-12)
                assert err < 1e-8

    def test_chain_rule_identities(self):
        # The input map and the Euler state increment are the state Jacobian
        # applied to a vertex velocity: L for the map, L nu + f for the step.
        rng = np.random.default_rng(18)
        free = np.ones((4, 6), dtype=bool)
        free[2, [0, 1, 5]] = False
        free[3, [0, 1, 2]] = False
        for _ in range(25):
            poly = random_polygon(rng, int(rng.integers(3, 13)))
            n = poly.n_vertices
            z = rng.uniform(0.8, 4.0)
            jac = state_jacobian(poly)
            L = interaction_matrices(poly.vertices, z)
            chain = jac @ L.reshape(2 * n, 6)
            g = dynamics_matrix(poly, z)
            scale = np.abs(chain).max()
            assert np.abs(g - chain)[free].max() <= 1e-12 * scale
            assert np.abs(chain[~free]).max() <= 1e-12 * scale

            nu = rng.uniform(-1.0, 1.0, 6)
            flow = rng.normal(size=(n, 2))
            dt = 0.05
            # A zero start state makes the returned state the bare increment.
            _, dx = propagate_discrete(poly, np.zeros(4), nu, flow, dt, z)
            expect = jac @ (L @ nu + flow).ravel() * dt
            assert np.abs(dx - expect).max() <= 1e-12 * np.abs(expect).max()

    def test_zero_flow_coupling_vanishes(self):
        rng = np.random.default_rng(14)
        poly = random_polygon(rng, 5)
        jac = state_jacobian(poly)
        np.testing.assert_array_equal(jac @ np.zeros(10), np.zeros(4))


class TestPropagate:
    def test_fixed_point(self):
        rng = np.random.default_rng(15)
        poly = random_polygon(rng, 6)
        x = extract_state(poly)
        poly2, x2 = propagate_discrete(poly, x, np.zeros(6), np.zeros((6, 2)), 0.1, 2.0)
        np.testing.assert_array_equal(poly2.vertices, poly.vertices)
        np.testing.assert_array_equal(x2, x)

    def test_pure_climb_is_exact_in_log_area(self):
        poly = PolygonFeatures(UNIT_SQUARE * 0.3)
        x = extract_state(poly)
        v, dt, z = 0.4, 0.05, 2.0
        nu = np.array([0.0, 0.0, v, 0.0, 0.0, 0.0])
        _, x2 = propagate_discrete(poly, x, nu, np.zeros((4, 2)), dt, z)
        assert x2[2] - x[2] == pytest.approx(2 * v / z * dt, rel=1e-14)
        np.testing.assert_allclose(x2[:2], x[:2], atol=1e-16)

    def test_first_order_consistency(self):
        # Extracting the state from stepped vertices must match the model
        # state to second order in dt, in every input direction.
        rng = np.random.default_rng(16)
        worst = np.inf
        for _ in range(50):
            poly = random_polygon(rng, int(rng.integers(3, 13)))
            x = extract_state(poly)
            z = rng.uniform(1.0, 3.0)
            for d in range(6):
                nu = np.zeros(6)
                nu[d] = 1.0
                errs = []
                for dt in (1e-3, 5e-4):
                    p2, x2 = propagate_discrete(poly, x, nu, np.zeros_like(poly.vertices), dt, z)
                    errs.append(np.linalg.norm(extract_state(p2) - x2))
                if errs[0] > 1e-13:
                    worst = min(worst, np.log2(errs[0] / errs[1]))
        assert worst >= 1.9

    def test_flow_coupling_second_order(self):
        # Under a target flow alone the model state must match the state
        # extracted from the stepped vertices to second order in dt.
        rng = np.random.default_rng(17)
        worst = np.inf
        for _ in range(50):
            poly = random_polygon(rng, int(rng.integers(3, 13)))
            x = extract_state(poly)
            flow = rng.normal(size=(poly.n_vertices, 2))
            errs = []
            for dt in (1e-3, 5e-4):
                p2, x2 = propagate_discrete(poly, x, np.zeros(6), flow, dt, 2.0)
                errs.append(np.linalg.norm(extract_state(p2) - x2))
            if errs[0] > 1e-13:
                worst = min(worst, np.log2(errs[0] / errs[1]))
        assert 1.9 <= worst < np.inf

    def test_step_degeneracy_raised(self):
        flatish = PolygonFeatures(np.array([[0.0, 0.0], [1.0, 1e-4], [2.0, 0.0], [1.0, -1e-4]]))
        x = extract_state(flatish)
        nu = np.zeros(6)
        # Push the target away fast enough to collapse the projection.
        flow = -flatish.vertices * 1e4
        with pytest.raises(StepDegeneracy):
            propagate_discrete(flatish, x, nu, flow, 1e-4, 2.0)


# Every public entry point on one polygon, the step at zero input and flow.
ENTRY_POINTS = {
    "extract_state": extract_state,
    "dynamics_matrix": lambda p: dynamics_matrix(p, 2.0),
    "printed_dynamics_matrix": lambda p: printed_dynamics_matrix(p, np.zeros(4), 2.0),
    "state_jacobian": state_jacobian,
    "area_gradient": area_gradient,
    "angle_gradient": angle_gradient,
    "propagate_discrete": lambda p: propagate_discrete(
        p, np.zeros(4), np.zeros(6), np.zeros((p.n_vertices, 2)), 0.1, 2.0
    ),
}
# Area 1.5e-10 with a sound reference angle; a sound area whose reference
# midpoint sits straight above the centroid.
FLAT = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1e-10], [0.0, 1e-10]])
VERTICAL_REF = np.array([[0.4, 0.5], [-0.4, 0.5], [-0.4, -0.5], [0.4, -0.5]])


class TestTypedErrors:
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize(
        "pts, error",
        [(FLAT, DegenerateArea), (VERTICAL_REF, AngleSingularity)],
        ids=["flat", "vertical_reference"],
    )
    def test_entry_point_rejects(self, entry, pts, error):
        with pytest.raises(error):
            ENTRY_POINTS[entry](PolygonFeatures(pts))

    def test_post_step_reference_angle(self):
        # The reference pair shears left until its midpoint sits above the
        # centroid; the area-collapse case is test_step_degeneracy_raised.
        poly = PolygonFeatures(VERTICAL_REF + [[0.2, 0.0], [0.2, 0.0], [0.0, 0.0], [0.0, 0.0]])
        flow = [[-2.0, 0.0], [-2.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        with pytest.raises(StepDegeneracy):
            propagate_discrete(poly, extract_state(poly), np.zeros(6), flow, 0.1, 2.0)
