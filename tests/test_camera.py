import numpy as np
import pytest

from polyservo.camera import CameraIntrinsics, interaction_matrices, normalized_to_pixel
from conftest import move_point_under_twist


class TestConversions:
    def test_inverse_example(self, intrinsics):
        p = normalized_to_pixel(np.array([1.0, 0.0]), intrinsics)
        np.testing.assert_allclose(p, [820.0, 240.0], atol=1e-15)
        p0 = normalized_to_pixel(np.array([0.0, 0.0]), intrinsics)
        np.testing.assert_allclose(p0, [320.0, 240.0])

    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(-1.0, 500.0, 320.0, 240.0, 640, 480)
        with pytest.raises(ValueError):
            CameraIntrinsics(500.0, 500.0, 700.0, 240.0, 640, 480)


class TestInteractionMatrix:
    def test_origin_feature(self):
        L = interaction_matrices(np.zeros(2), 1.0)
        np.testing.assert_array_equal(L[0], [-1, 0, 0, 0, -1, 0])
        np.testing.assert_array_equal(L[1], [0, -1, 0, 1, 0, 0])

    def test_direct_evaluation(self):
        L = interaction_matrices(np.array([1.0, 1.0]), 2.0)
        np.testing.assert_allclose(L[0], [-0.5, 0, 0.5, 1, -2, 1])

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            interaction_matrices(np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            interaction_matrices(np.zeros(2), -1.0)

    def test_flow_matches_reprojection_oracle(self):
        # One-step image flow error vs an independent SE(3) point motion
        # integrator must shrink at second order under step halving.
        rng = np.random.default_rng(7)
        worst_order = np.inf
        for _ in range(10):
            s = rng.uniform(-0.3, 0.3, 2)
            z = rng.uniform(1.0, 3.0)
            nu = rng.uniform(-1.0, 1.0, 6)
            nu /= max(np.linalg.norm(nu), 1.0)
            L = interaction_matrices(s, z)
            p0 = np.array([s[0] * z, s[1] * z, z])
            errs = []
            for dt in (2e-3, 1e-3):
                p1 = move_point_under_twist(p0, nu[:3], nu[3:], dt)
                s1 = p1[:2] / p1[2]
                errs.append(np.linalg.norm(s1 - (s + L @ nu * dt)))
            if errs[0] > 1e-13:
                worst_order = min(worst_order, np.log2(errs[0] / errs[1]))
        assert worst_order >= 1.9
