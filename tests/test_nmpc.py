import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyservo import (
    PolygonFeatures,
    RecedingHorizonController,
    extract_state,
    local_controller_h,
    propagate_discrete,
    rollout,
    solve_ocp,
    stage_cost,
    terminal_cost,
    total_cost,
)
from polyservo import nmpc
from polyservo.barriers import EPS_L, InputLimits, RecenteringAnchor
from polyservo.camera import FULL_MASK, UAV_MASK
from polyservo.config import parse_scenario
from polyservo.errors import (
    AngleSingularity,
    InfeasibleRollout,
    InfeasibleStart,
    InputAtLimit,
    StepDegeneracy,
)
from polyservo.nmpc import (
    _LIPSCHITZ_RADIUS,
    _LIPSCHITZ_SAMPLES,
    _LOCAL_CLAMP,
    _LOCAL_DAMPING,
    _LOCAL_GAIN,
    _OcpKernel,
    compute_diagnostics,
    cost_difference_bound,
    disturbance_feasibility_bound,
    empirical_lipschitz_f,
    lipschitz_FV,
    lipschitz_LF,
    lipschitz_Lf,
    prediction_error_bound,
)
from polyservo.polygon import _shoelace_sum, dynamics_matrix
from polyservo.world import run_scenario
from conftest import random_polygon

Z = 2.0
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def anchor_for(cfg, x_des):
    return RecenteringAnchor(x_des, cfg.visibility, cfg.area_bounds)


def setpoint_instance(small_ocp, pentagon):
    x0 = extract_state(pentagon)
    return pentagon, x0, x0.copy()


class TestCosts:
    def test_stage_cost_zero_at_setpoint(self, small_ocp, pentagon):
        x0 = extract_state(pentagon)
        a = anchor_for(small_ocp, x0)
        assert stage_cost(np.zeros(4), np.zeros(6), small_ocp, a) == 0.0

    def test_stage_cost_quadratic_term(self, small_ocp, pentagon):
        # Setpoint deep inside the margins: both barriers are identically
        # zero nearby, leaving the pure quadratic form.
        x0 = extract_state(pentagon)
        a = anchor_for(small_ocp, x0)
        cfg = small_ocp
        cfg.q = np.array([2.0, 1.0, 1.0, 1.0])
        x_err = np.array([1e-2, 0.0, 0.0, 0.0])
        val = stage_cost(x_err, np.zeros(6), cfg, a)
        assert val == pytest.approx(2.0 * 1e-4, rel=1e-12)

    def test_stage_cost_lower_bound(self, small_ocp, pentagon):
        # K-infinity lower bound: quadratics dominate the declared
        # coefficient because both barrier terms are nonnegative.
        x0 = extract_state(pentagon)
        a = anchor_for(small_ocp, x0)
        cmin = min(small_ocp.q.min(), small_ocp.masked_r.min())
        rng = np.random.default_rng(0)
        for _ in range(500):
            x_err = rng.uniform(-0.15, 0.15, 4)
            nu = rng.uniform(-0.4, 0.4, 6)
            val = stage_cost(x_err, nu, small_ocp, a)
            bound = cmin * (x_err @ x_err + nu @ nu)
            assert val >= bound - 1e-12

    def test_terminal_examples(self, small_ocp):
        assert terminal_cost(np.zeros(4), small_ocp) == 0.0
        small_ocp.p = np.ones(4)
        assert terminal_cost(np.ones(4), small_ocp) == pytest.approx(4.0)
        rng = np.random.default_rng(1)
        for _ in range(100):
            e = rng.normal(size=4)
            assert terminal_cost(e, small_ocp) <= small_ocp.p.max() * (e @ e) + 1e-12


class TestRollout:
    def test_zero_input_zero_flow_constant(self, small_ocp, pentagon):
        x0 = extract_state(pentagon)
        nu_F = np.zeros((small_ocp.n, 6))
        states, verts = rollout(pentagon, x0, nu_F, None, small_ocp, Z)
        for i in range(small_ocp.n + 1):
            np.testing.assert_array_equal(states[i], x0)
            np.testing.assert_array_equal(verts[i], pentagon.vertices)

    def test_matches_manual_propagation_bitexact(self, small_ocp, pentagon):
        rng = np.random.default_rng(2)
        x0 = extract_state(pentagon)
        nu_F = rng.uniform(-0.2, 0.2, size=(small_ocp.n, 6))
        flow = rng.uniform(-0.01, 0.01, 2)
        states, verts = rollout(pentagon, x0, nu_F, flow, small_ocp, Z)
        poly, x = pentagon, x0
        fl = np.broadcast_to(flow, (pentagon.n_vertices, 2)).copy()
        for i in range(small_ocp.n):
            poly, x = propagate_discrete(poly, x, nu_F[i], fl, small_ocp.dt, Z)
            assert np.array_equal(states[i + 1], x)
            assert np.array_equal(verts[i + 1], poly.vertices)

    def test_infeasible_rollout_error(self, small_ocp, pentagon):
        x0 = extract_state(pentagon)
        # Slam the camera sideways at the limit: the centroid runs off the
        # visible region within the horizon.
        nu_F = np.zeros((small_ocp.n, 6))
        nu_F[:, 0] = -0.59
        small_ocp.dt = 1.0
        with pytest.raises(InfeasibleRollout) as exc:
            rollout(pentagon, x0, nu_F, None, small_ocp, Z)
        assert exc.value.step_index is not None and exc.value.step_index >= 1

    def test_total_cost_recomposition(self, small_ocp, pentagon):
        rng = np.random.default_rng(3)
        x0 = extract_state(pentagon)
        x_des = x0 + np.array([0.05, -0.04, 0.1, 0.1])
        a = anchor_for(small_ocp, x_des)
        nu_F = rng.uniform(-0.1, 0.1, size=(small_ocp.n, 6))
        j = total_cost(pentagon, x0, nu_F, None, small_ocp, x_des, Z, anchor=a)
        states, _ = rollout(pentagon, x0, nu_F, None, small_ocp, Z)
        j_manual = sum(
            stage_cost(states[i] - x_des, nu_F[i], small_ocp, a) for i in range(small_ocp.n)
        ) + terminal_cost(states[small_ocp.n] - x_des, small_ocp)
        assert j == pytest.approx(j_manual, rel=1e-15)

    def test_total_cost_zero_at_setpoint(self, small_ocp, pentagon):
        x0 = extract_state(pentagon)
        assert total_cost(pentagon, x0, np.zeros((small_ocp.n, 6)), None, small_ocp, x0, Z) == 0.0

    def test_beneficial_control_beats_rest(self, small_ocp, pentagon):
        x0 = extract_state(pentagon)
        x_des = x0 + np.array([0.1, 0.0, 0.0, 0.0])
        zero = total_cost(pentagon, x0, np.zeros((small_ocp.n, 6)), None, small_ocp, x_des, Z)
        nu_F = np.zeros((small_ocp.n, 6))
        nu_F[:, 0] = -0.2  # moves the centroid toward +x
        better = total_cost(pentagon, x0, nu_F, None, small_ocp, x_des, Z)
        assert better < zero

    def test_kernel_matches_public_cost(self, small_ocp, pentagon):
        rng = np.random.default_rng(4)
        x0 = extract_state(pentagon)
        x_des = x0 + np.array([0.04, 0.02, -0.08, 0.05])
        a = anchor_for(small_ocp, x_des)
        kern = _OcpKernel(pentagon, x0, None, small_ocp, x_des, a, Z)
        for _ in range(10):
            nu_F = rng.uniform(-0.15, 0.15, size=(small_ocp.n, 6))
            jk = kern.cost(nu_F[None])[0]
            jp = total_cost(pentagon, x0, nu_F, None, small_ocp, x_des, Z, anchor=a)
            assert jk == pytest.approx(jp, rel=1e-12)


class TestKernelGuards:
    """The kernel returns +inf on exactly the guards where the oracle raises."""

    @staticmethod
    def kernel_and_oracle(poly, x0, nu_F, flow, cfg, x_des):
        a = anchor_for(cfg, x_des)
        got = _OcpKernel(poly, x0, flow, cfg, x_des, a, Z).cost(nu_F[None])[0]
        return got, lambda: total_cost(poly, x0, nu_F, flow, cfg, x_des, Z, anchor=a)

    def test_input_within_eps_of_limit(self, small_ocp, pentagon):
        x0 = extract_state(pentagon)
        nu_F = np.zeros((small_ocp.n, 6))
        nu_F[2, 3] = small_ocp.masked_limits[3] - EPS_L / 2
        got, oracle = self.kernel_and_oracle(pentagon, x0, nu_F, None, small_ocp, x0)
        assert got == np.inf
        with pytest.raises(InputAtLimit):
            oracle()

    def test_singular_reference_angle_at_start(self, small_ocp):
        # E1 = 5e-7 <= EPS_ANGLE on the measured polygon itself.
        pts = np.array([[0.1 + 1e-6, 0.1], [-0.1, 0.1], [-0.1, -0.1], [0.1, -0.1]])
        poly = PolygonFeatures(pts)
        x0 = np.array([pts[:, 0].mean(), pts[:, 1].mean(), np.log(0.04), 0.0])
        nu_F = np.zeros((small_ocp.n, 6))
        got, oracle = self.kernel_and_oracle(poly, x0, nu_F, None, small_ocp, x0)
        assert got == np.inf
        with pytest.raises(AngleSingularity):
            oracle()

    def test_singular_reference_angle_mid_horizon(self, small_ocp):
        # Vertex 0 drifts left until E1 is about 2e-7 after three steps.
        pts = np.array([[0.2, 0.1], [-0.1, 0.1], [-0.1, -0.1], [0.1, -0.1]])
        poly = PolygonFeatures(pts)
        x0 = extract_state(poly)
        flow = np.zeros((4, 2))
        flow[0, 0] = (2e-7 - 0.05) / (3 * small_ocp.dt * 0.5)
        nu_F = np.zeros((small_ocp.n, 6))
        got, oracle = self.kernel_and_oracle(poly, x0, nu_F, flow, small_ocp, x0)
        assert got == np.inf
        with pytest.raises(StepDegeneracy):
            oracle()

    def test_terminal_polygon_collapse(self, small_ocp):
        # The target flattens onto the x axis exactly at the horizon end,
        # while every predicted state stays inside the safe set.
        pts = np.array([[0.3, 0.3], [-0.3, 0.3], [-0.3, -0.3], [0.3, -0.3]])
        poly = PolygonFeatures(pts, reference_pair=(0, 3))
        x0 = extract_state(poly)
        flow = np.column_stack([np.zeros(4), -pts[:, 1] / (small_ocp.n * small_ocp.dt)])
        nu_F = np.zeros((small_ocp.n, 6))
        got, oracle = self.kernel_and_oracle(poly, x0, nu_F, flow, small_ocp, x0)
        assert got == np.inf
        with pytest.raises(StepDegeneracy):
            oracle()
        # One step shorter, the same plan is feasible and both sides agree.
        small_ocp.n -= 1
        got, oracle = self.kernel_and_oracle(poly, x0, nu_F[:-1], flow, small_ocp, x0)
        assert got == pytest.approx(oracle(), rel=1e-12)


class TestSolver:
    def test_setpoint_fixed_point(self, small_ocp, pentagon):
        x0 = extract_state(pentagon)
        sol = solve_ocp(pentagon, x0, None, small_ocp, x0, Z)
        assert sol.cost <= 1e-9
        assert np.abs(sol.controls).max() <= 1e-6
        assert sol.status == "converged"

    def test_first_move_reduces_centroid_error(self, small_ocp, pentagon):
        x0 = extract_state(pentagon)
        x_des = x0 + np.array([0.12, -0.08, 0.0, 0.0])
        sol = solve_ocp(pentagon, x0, None, small_ocp, x_des, Z)
        step = sol.predicted_states[1][:2] - x0[:2]
        err = x0[:2] - x_des[:2]
        assert step @ err < 0.0

    def test_descent_vs_warm_start_randomized(self, small_ocp, monkeypatch):
        rng = np.random.default_rng(5)
        monkeypatch.setattr(nmpc, "_MAX_ITERS", 6)
        n_ok = 0
        while n_ok < 100:
            poly = random_polygon(rng, int(rng.integers(4, 8)), scale=0.25)
            x0 = extract_state(poly)
            x_des = x0 + rng.uniform(-0.06, 0.06, 4)
            try:
                a = anchor_for(small_ocp, x_des)
            except ValueError:
                continue  # drew a setpoint outside the safe set
            warm = rng.uniform(-0.1, 0.1, size=(small_ocp.n, 6))
            kern_cost = _OcpKernel(poly, x0, None, small_ocp, x_des, a, Z).cost(warm[None])[0]
            sol = solve_ocp(poly, x0, None, small_ocp, x_des, Z, warm_start=warm, anchor=a)
            assert sol.cost <= kern_cost + 1e-12
            n_ok += 1

    def test_iterates_strictly_feasible(self, small_ocp, pentagon):
        # The returned plan satisfies every constraint strictly: its public
        # rollout succeeds and all commands are interior.
        x0 = extract_state(pentagon)
        x_des = x0 + np.array([0.15, -0.1, 0.2, 0.2])
        sol = solve_ocp(pentagon, x0, None, small_ocp, x_des, Z)
        states, _ = rollout(pentagon, x0, sol.controls, None, small_ocp, Z)  # no raise
        assert (np.abs(sol.controls) < small_ocp.masked_limits).all()
        assert np.isfinite(sol.cost)

    def test_infeasible_start_raises(self, small_ocp, pentagon):
        x_bad = extract_state(pentagon)
        x_bad[0] = small_ocp.visibility.x_max + 0.05
        with pytest.raises(InfeasibleStart):
            solve_ocp(pentagon, x_bad, None, small_ocp, extract_state(pentagon), Z)

    @pytest.mark.parametrize(
        "name, duration",
        [("fig8_uav_wave", 4.0), ("fig4_free_pentagon", 1.0)],
        ids=["fig8_uav_wave", "fig4_free_pentagon"],
    )
    def test_uav_wave_solves_converge(self, name, duration):
        # The Lyapunov and feasibility arguments assume each applied plan is
        # a converged solve, not one cut off at max_iters. The pentagon's
        # opening solve, from a zero warm start, is its longest.
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
        doc["duration"] = duration
        cfg = parse_scenario(doc, name)
        iters = run_scenario(cfg).columns["iters"]
        assert iters.size == round(duration / cfg.ocp.dt)
        assert (iters < nmpc._MAX_ITERS).all(), f"max {iters.max()}"
        if name == "fig8_uav_wave":
            assert iters.mean() <= 4.0, f"mean {iters.mean():.2f} iterations per solve"


class TestLocalController:
    def test_zero_error_zero_action(self, small_ocp, pentagon):
        nu = local_controller_h(np.zeros(4), pentagon, small_ocp, Z)
        np.testing.assert_array_equal(nu, np.zeros(small_ocp.n_inputs))

    def test_linear_bound(self, small_ocp, pentagon):
        # ||h|| <= L_h ||err|| with L_h from the damped pseudo-inverse gain.
        g = dynamics_matrix(pentagon, Z)[:, small_ocp.mask]
        ggt = g @ g.T + _LOCAL_DAMPING**2 * np.eye(4)
        L_h = _LOCAL_GAIN * np.linalg.norm(g.T @ np.linalg.inv(ggt), 2)
        rng = np.random.default_rng(6)
        for _ in range(200):
            e = rng.uniform(-0.2, 0.2, 4)
            nu = local_controller_h(e, pentagon, small_ocp, Z)
            assert np.linalg.norm(nu) <= L_h * np.linalg.norm(e) + 1e-12

    def test_clamped_inside_limits(self, small_ocp, pentagon):
        nu = local_controller_h(np.array([5.0, -5.0, 5.0, -5.0]), pentagon, small_ocp, Z)
        assert (np.abs(nu) <= _LOCAL_CLAMP * small_ocp.masked_limits + 1e-15).all()

    def test_one_step_error_decrease(self, small_ocp, pentagon):
        x = extract_state(pentagon)
        x_des = x + np.array([0.05, -0.03, 0.06, 0.08])
        nu_m = local_controller_h(x - x_des, pentagon, small_ocp, Z)
        nu6 = np.zeros(6)
        nu6[small_ocp.mask_idx] = nu_m
        _, x_next = propagate_discrete(
            pentagon, x, nu6, np.zeros_like(pentagon.vertices), small_ocp.dt, Z
        )
        assert np.linalg.norm(x_next - x_des) < np.linalg.norm(x - x_des)

    @pytest.mark.parametrize("mask", [FULL_MASK, UAV_MASK], ids=["full", "uav"])
    def test_masked_map_keeps_full_rank(self, small_ocp, mask):
        # Under either mask the columns vx, vy, vz and wz of the input map
        # form a triangular block with diagonal (-1/z, -1/z, 2/z, -(1+abar^2)),
        # so the map has rank 4 at every depth, and near the setpoint the
        # local law gives an unclamped command along which the linearised
        # error decreases.
        cfg = dataclasses.replace(small_ocp, mask=mask.copy())
        bound = _LOCAL_CLAMP * cfg.masked_limits
        rng = np.random.default_rng(11)
        for _ in range(300):
            poly = random_polygon(rng, int(rng.integers(3, 13)))
            z = rng.uniform(0.5, 6.0)
            g = dynamics_matrix(poly, z)[:, mask]
            assert np.linalg.svd(g, compute_uv=False)[-1] > 1e-3
            e = rng.normal(0.0, 1e-3, 4)
            nu = local_controller_h(e, poly, cfg, z)
            assert (np.abs(nu) < bound).all()
            assert e @ g @ nu < 0.0


class TestRecedingController:
    def test_cold_start_uses_zero_warm(self, small_ocp, pentagon):
        x0 = extract_state(pentagon)
        ctrl = RecedingHorizonController(small_ocp, x0)
        warm = ctrl.warm_start(pentagon, x0, None, Z)
        np.testing.assert_array_equal(warm, np.zeros((small_ocp.n, small_ocp.n_inputs)))

    def test_warm_start_is_the_shifted_candidate(self, small_ocp, pentagon):
        # The warm start after an accepted solve is its controls shifted one
        # step, then the local controller acting on its own predicted
        # terminal state and polygon; the measured state and flow do not
        # enter. The public rollout oracle agrees with the solve's
        # prediction to rounding.
        x0 = extract_state(pentagon)
        x_des = x0 + np.array([0.1, -0.06, 0.1, 0.1])
        ctrl = RecedingHorizonController(small_ocp, x_des)
        res = ctrl.step(pentagon, x0, None, Z)
        assert not res.recovered
        sol, n = res.solution, small_ocp.n
        tail_poly = PolygonFeatures(sol.terminal_vertices, pentagon.reference_pair)
        tail = local_controller_h(sol.predicted_states[n] - x_des, tail_poly, small_ocp, Z)
        warm = ctrl.warm_start(pentagon, x0, None, Z)
        assert np.array_equal(warm, np.vstack([sol.controls[1:], tail[None]]))
        moved = x0 + np.array([0.01, -0.02, 0.03, -0.01])
        assert np.array_equal(ctrl.warm_start(pentagon, moved, np.array([0.02, -0.01]), Z), warm)
        ref_states, ref_verts = rollout(pentagon, x0, sol.controls, None, small_ocp, Z)
        np.testing.assert_allclose(sol.predicted_states, ref_states, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(sol.terminal_vertices, ref_verts[n], rtol=1e-12, atol=1e-15)

    def test_recovery_on_infeasible_measurement(self, small_ocp, pentagon):
        x0 = extract_state(pentagon)
        ctrl = RecedingHorizonController(small_ocp, x0)
        bad = x0.copy()
        bad[0] = small_ocp.visibility.x_max + 0.02
        res = ctrl.step(pentagon, bad, None, Z)
        assert res.recovered
        assert res.solution is None
        assert np.isfinite(res.nu).all()

    def test_recovery_keeps_failed_solution(self, small_ocp, pentagon):
        # A target flow that carries the polygon out of view within the
        # horizon leaves no finite plan from a feasible start: the step
        # recovers and keeps the failed solve.
        x0 = extract_state(pentagon)
        ctrl = RecedingHorizonController(small_ocp, x0)
        res = ctrl.step(pentagon, x0, np.array([5.0, 0.0]), Z)
        assert res.recovered
        assert res.solution.cost == np.inf and res.solution.iterations == 0
        assert np.isfinite(res.nu).all()

    def test_disabled_components_stay_zero(self, small_ocp, pentagon):
        import polyservo.camera as cam

        small_ocp.mask = cam.UAV_MASK.copy()
        x0 = extract_state(pentagon)
        ctrl = RecedingHorizonController(small_ocp, x0 + np.array([0.05, 0, 0, 0]))
        res = ctrl.step(pentagon, x0, None, Z)
        assert res.nu[3] == 0.0 and res.nu[4] == 0.0


class TestDiagnostics:
    def test_lipschitz_lf_example(self):
        lim = InputLimits(nu_max=(1.0, 1.0, 1.0), omega_max=(0.5, 0.5, 0.5))
        val = lipschitz_Lf(lim, z=10.0, dt=0.1)
        assert val == pytest.approx(np.sqrt(2 * 4 * 1.01**2), rel=1e-12)
        assert val == pytest.approx(2.8567, abs=2e-4)

    def test_lipschitz_lf_limit_and_monotone(self):
        lims = [InputLimits(nu_max=(1, 1, v), omega_max=(0.5, 0.5, 0.5)) for v in (0.5, 1.0, 2.0)]
        vals = [lipschitz_Lf(l, z=5.0, dt=0.05) for l in lims]
        assert vals[0] <= vals[1] <= vals[2]
        tiny = lipschitz_Lf(lims[1], z=5.0, dt=1e-9)
        assert tiny == pytest.approx(np.sqrt(8.0), rel=1e-6)

    def test_lipschitz_lF(self):
        assert lipschitz_LF(np.ones(4), np.ones(4)) == pytest.approx(4.0)
        assert lipschitz_LF(np.ones(4), 3.0 * np.ones(4)) == pytest.approx(12.0)
        assert lipschitz_LF(np.ones(4), np.array([1.0, 5.0, 2.0, 0.5])) == pytest.approx(20.0)

    def test_prediction_error_bound(self):
        assert prediction_error_bound(1, 0.3, 1.7) == pytest.approx(0.3)
        assert prediction_error_bound(3, 0.1, 2.0) == pytest.approx(0.7)
        assert prediction_error_bound(4, 0.1, 1.0) == pytest.approx(0.4)

    def test_disturbance_bound_table(self):
        # Spreadsheet-style recomputation with plain Python arithmetic.
        n, L_f, L_E, gap = 5, 1.2, 2.0, 0.5
        xi, per_m = disturbance_feasibility_bound(
            a_eps=1.0, a_eps_f=0.5, L_E=L_E, L_f=L_f, n=n
        )
        for m in range(n):
            s = sum(L_f**i for i in range(m + 1))
            expected = gap / (L_E * L_f ** ((n - 1) - m) * s)
            assert per_m[m] == pytest.approx(expected, rel=1e-12)
        assert xi == pytest.approx(min(per_m))

    def test_disturbance_bound_scaling_and_unit_lf(self):
        xi1, _ = disturbance_feasibility_bound(1.0, 0.5, 2.0, 1.3, 6)
        xi2, _ = disturbance_feasibility_bound(1.5, 0.5, 2.0, 1.3, 6)
        assert xi2 == pytest.approx(2.0 * xi1)
        _, per_m = disturbance_feasibility_bound(1.0, 0.5, 2.0, 1.0, 4)
        for m in range(4):
            assert per_m[m] == pytest.approx(0.5 / (2.0 * (m + 1)))

    def test_cost_difference_bound(self, small_ocp, pentagon):
        x_des = extract_state(pentagon)
        diag = compute_diagnostics(
            small_ocp, Z, x_des, ref_poly=pentagon, rng=np.random.default_rng(7)
        )
        bound, lzm = cost_difference_bound(small_ocp.n - 1, e=0.7, diag=diag)
        assert lzm == pytest.approx(diag.L_E)
        bound0, _ = cost_difference_bound(1, e=0.0, diag=diag, state_norms=(0.5, 0.2))
        assert bound0 == pytest.approx(-diag.F_lower * (0.25 + 0.04))
        assert bound0 <= 0.0
        with pytest.raises(ValueError):
            cost_difference_bound(small_ocp.n, e=0.7, diag=diag)

    def test_bundle_fields_and_terminal_set(self, small_ocp, pentagon):
        x_des = extract_state(pentagon)
        rng = np.random.default_rng(7)
        diag = compute_diagnostics(small_ocp, Z, x_des, ref_poly=pentagon, rng=rng)
        for v in (diag.L_f, diag.L_F, diag.L_E, diag.F_lower, diag.eps0, diag.a_eps, diag.xi_max):
            assert v > 0
        assert diag.a_eps > diag.a_eps_f > 0
        assert diag.L_f_emp > 0
        assert diag.L_FV == lipschitz_FV(small_ocp) > 0
        assert diag.in_terminal_set(np.zeros(4))
        big = np.array([10.0, 0, 0, 0])
        assert not diag.in_terminal_set(big)
        d = diag.to_dict()
        assert set(d) >= {"L_f", "L_F", "L_E", "eps0", "a_eps", "xi_max"}

    def test_setpoint_check_is_the_anchors(self, small_ocp, pentagon):
        # Inside the field of view, but so close to its edge that the
        # visibility value is below EPS_L: the controller's anchor rejects it.
        x_des = extract_state(pentagon)
        x_des[0] = small_ocp.visibility.x_max - 1e-7
        with pytest.raises(ValueError, match="strictly inside"):
            anchor_for(small_ocp, x_des)
        with pytest.raises(ValueError, match="strictly inside"):
            compute_diagnostics(small_ocp, Z, x_des, pentagon, np.random.default_rng(0))

    def test_sidecar_dict_is_every_field_but_p_weights(self, small_ocp, pentagon):
        diag = compute_diagnostics(
            small_ocp, Z, extract_state(pentagon), ref_poly=pentagon,
            rng=np.random.default_rng(7),
        )
        d = diag.to_dict()
        names = {f.name for f in dataclasses.fields(diag)}
        assert set(d) == names - {"p_weights"}
        assert d["L_zm"] == [float(v) for v in diag.L_zm]
        assert d["xi_max_per_m"] == [float(v) for v in diag.xi_max_per_m]
        assert d["state_box"] == [float(v) for v in diag.state_box]
        assert json.loads(json.dumps(d)) == d

    def test_lemma1_multistep_audit(self, small_ocp, pentagon):
        # Disturbed vs nominal model rollouts: the accumulated state error
        # stays below the geometric bound with the sampled constant.
        rng = np.random.default_rng(8)
        cfg = small_ocp
        lf_emp = empirical_lipschitz_f(cfg, Z, pentagon, rng)
        lf = max(lf_emp, 1.0)
        xi_bound = 2e-3
        x0 = extract_state(pentagon)
        for _ in range(100):
            nu_F = rng.uniform(-0.2, 0.2, size=(cfg.n, 6))
            nom_states, _ = rollout(pentagon, x0, nu_F, None, cfg, Z)
            poly, x = pentagon, x0.copy()
            for i in range(cfg.n):
                xi = rng.uniform(-1.0, 1.0, 4) * (xi_bound / 2.0)
                poly, x = propagate_discrete(
                    poly, x, nu_F[i], np.zeros_like(poly.vertices), cfg.dt, Z
                )
                x = x + xi
                err = np.linalg.norm(x - nom_states[i + 1])
                assert err <= prediction_error_bound(i + 1, xi_bound, lf) + 1e-12


    @pytest.mark.parametrize("seed, mask", [(0, FULL_MASK), (1, FULL_MASK), (2, UAV_MASK)])
    def test_sampled_constant_is_the_oracle_step_ratio(self, small_ocp, seed, mask):
        # Replaying the sampler's draws and stepping each pair with the
        # public propagate_discrete at zero flow gives the same worst ratio:
        # L_f_emp samples the map that criterion 07 and the audit above step.
        cfg = dataclasses.replace(small_ocp, mask=mask.copy())
        poly = random_polygon(np.random.default_rng(seed), 5)
        lf_emp = empirical_lipschitz_f(cfg, Z, poly, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        limits = cfg.limits.as_vector()
        n_v = poly.n_vertices
        worst = 0.0
        for _ in range(_LIPSCHITZ_SAMPLES):
            nu = rng.uniform(-1.0, 1.0, 6) * limits * cfg.mask
            delta = rng.normal(size=2 * n_v + 4)
            delta *= _LIPSCHITZ_RADIUS / np.linalg.norm(delta)
            log_area = np.log(0.5 * abs(_shoelace_sum(poly.vertices)))
            x = np.array([*poly.vertices.mean(axis=0), log_area, 0.0])
            moved = PolygonFeatures(
                poly.vertices + delta[: 2 * n_v].reshape(n_v, 2), poly.reference_pair
            )
            flow = np.zeros((n_v, 2))
            pa, xa = propagate_discrete(poly, x, nu, flow, cfg.dt, Z)
            pb, xb = propagate_discrete(moved, x + delta[2 * n_v :], nu, flow, cfg.dt, Z)
            dist = np.sqrt(((pa.vertices - pb.vertices) ** 2).sum() + ((xa - xb) ** 2).sum())
            worst = max(worst, dist / _LIPSCHITZ_RADIUS)
        assert lf_emp == pytest.approx(worst, rel=1e-12)


# lipschitz_FV against the stage_cost oracle, on random input limits,
# input weights and both masks. The fixtures are immutable values, so
# sharing them across examples is safe.
FV_PROPS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
_limits = st.tuples(st.floats(0.2, 2.0), st.floats(0.2, 2.0), st.floats(0.2, 2.0))
fv_inputs = st.fixed_dictionaries(
    {
        "limits": st.builds(InputLimits, _limits, _limits),
        "r": st.lists(st.floats(0.01, 10.0), min_size=6, max_size=6).map(np.array),
        "mask": st.sampled_from([FULL_MASK, UAV_MASK]).map(np.copy),
    }
)
fractions = st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6).map(np.array)


@FV_PROPS
@given(
    inputs=fv_inputs,
    a=fractions,
    b=fractions,
    x_err=st.lists(st.floats(-0.1, 0.1), min_size=4, max_size=4).map(np.array),
)
def test_lipschitz_FV_bounds_stage_cost_differences(small_ocp, pentagon, inputs, a, b, x_err):
    cfg = dataclasses.replace(small_ocp, **inputs)
    c = 0.9 * cfg.masked_limits
    nu_a, nu_b = c * a[cfg.mask], c * b[cfg.mask]
    anchor = anchor_for(cfg, extract_state(pentagon))
    fa = stage_cost(x_err, nu_a, cfg, anchor)
    fb = stage_cost(x_err, nu_b, cfg, anchor)
    # The state terms cancel in fa - fb only up to rounding.
    rounding = 1e-14 * (abs(fa) + abs(fb))
    assert abs(fa - fb) <= lipschitz_FV(cfg) * np.linalg.norm(nu_a - nu_b) * (1 + 1e-9) + rounding


@FV_PROPS
@given(inputs=fv_inputs)
def test_lipschitz_FV_is_reached_at_the_corner(small_ocp, pentagon, inputs):
    # A step of 1e-7 down the stage cost's steepest slope at the box corner
    # c, the slope taken by central differences of the oracle, reaches the
    # constant and does not exceed it.
    cfg = dataclasses.replace(small_ocp, **inputs)
    anchor = anchor_for(cfg, extract_state(pentagon))

    def F(nu):
        return stage_cost(np.zeros(4), nu, cfg, anchor)

    c = 0.9 * cfg.masked_limits
    grad = np.array([F(c + e) - F(c - e) for e in 1e-6 * np.eye(c.size)]) / 2e-6
    fa, fb = F(c), F(c - 1e-7 * grad / np.linalg.norm(grad))
    bound = lipschitz_FV(cfg) * 1e-7
    assert (1 - 1e-5) * bound <= fa - fb <= bound * (1 + 1e-9) + 1e-14 * (abs(fa) + abs(fb))
