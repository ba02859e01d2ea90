"""End-to-end acceptance suite.

Each test covers one numbered criterion at its stated tolerance and prints
one PASS line on success (pytest reports the failure otherwise). The
reference scenarios live in configs/ and are the same files the CLI runs.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from polyservo import (
    PolygonFeatures,
    angle_gradient,
    area_gradient,
    extract_state,
    solve_ocp,
    state_jacobian,
)
from polyservo.barriers import (
    InputLimits,
    RecenteringAnchor,
    barrier_Bnu,
    constraint_L1,
    recentered_barrier,
)
from polyservo.camera import interaction_matrices
from polyservo.cli import main as cli_main
from polyservo.config import load_scenario, parse_scenario
from polyservo.nmpc import (
    RecedingHorizonController,
    compute_diagnostics,
    prediction_error_bound,
)
from polyservo.polygon import dynamics_matrix, propagate_discrete
from polyservo.targets import CentroidFlowEstimator, DeformableTarget
from polyservo.world import CameraPose, project_target, run_scenario, step_pose
from polyservo.analysis import convergence_ok, steady_state_error
from conftest import central_diff_vertices, random_polygon

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _report(k, detail):
    print(f"\nCRITERION {k}: PASS - {detail}")


def test_criterion_01_dynamics_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst_order = np.inf
    checked = 0
    for _ in range(100):
        poly = random_polygon(rng, int(rng.integers(3, 13)))
        x = extract_state(poly)
        z = float(rng.uniform(1.0, 3.0))
        g = dynamics_matrix(poly, z)
        L = interaction_matrices(poly.vertices, z)
        for d in range(6):
            nu = np.zeros(6)
            nu[d] = 1.0
            errs = []
            for dt in (1e-3, 5e-4, 2.5e-4):
                stepped = poly.vertices + (L @ nu) * dt
                x_fd = extract_state(PolygonFeatures(stepped, poly.reference_pair))
                errs.append(np.linalg.norm(x_fd - (x + g @ nu * dt)))
            for a, b in ((errs[0], errs[1]), (errs[1], errs[2])):
                if a > 1e-12:
                    worst_order = min(worst_order, np.log2(a / b))
                    checked += 1
    elapsed = time.perf_counter() - t0
    assert worst_order >= 1.9, f"observed order {worst_order:.3f}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"
    _report(1, f"order >= {worst_order:.2f} over {checked} checks in {elapsed:.1f}s")


def test_criterion_02_gradient_suite():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        poly = random_polygon(rng, int(rng.integers(3, 13)))

        def rel(analytic, fd):
            return np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-14)

        ag = area_gradient(poly)
        fd_a = central_diff_vertices(
            lambda p: 0.5
            * abs(
                (
                    p[:, 0] * np.roll(p[:, 1], -1) - np.roll(p[:, 0], -1) * p[:, 1]
                ).sum()
            ),
            poly.vertices,
        )
        worst = max(worst, rel(ag, fd_a))

        ang = angle_gradient(poly)
        fd_b = central_diff_vertices(
            lambda p: extract_state(PolygonFeatures(p, poly.reference_pair))[3],
            poly.vertices,
        )
        worst = max(worst, rel(ang, fd_b))

        jac = state_jacobian(poly)
        for row in range(4):
            fd_r = central_diff_vertices(
                lambda p, row=row: extract_state(PolygonFeatures(p, poly.reference_pair))[row],
                poly.vertices,
            ).ravel()
            worst = max(worst, rel(jac[row], fd_r))
    assert worst < 1e-6, f"worst relative gradient error {worst:.2e}"
    _report(2, f"worst relative error {worst:.2e} < 1e-6 on 100 polygons")


def test_criterion_03_barrier_suite(intrinsics):
    from polyservo.barriers import AreaBounds, VisibilityParams

    vis = VisibilityParams.from_intrinsics(intrinsics, gamma=0.15)
    bounds = AreaBounds(sigma_min=0.02, sigma_max=0.6, delta=0.04)

    sx = vis.x_max - vis.gamma / 2
    v = constraint_L1(np.array([sx, 0.0]), vis)
    assert abs(v - (1.0 - np.exp(-1.0))) <= 1e-12

    limits = InputLimits(nu_max=(0.6, 0.6, 0.6), omega_max=(0.6, 0.6, 0.8))
    assert barrier_Bnu(np.zeros(6), limits) == 0.0
    rng = np.random.default_rng(1003)
    lim_vec = limits.as_vector()
    for _ in range(10_000):
        nu = rng.uniform(-0.99, 0.99, 6) * lim_vec
        if np.abs(nu).max() > 1e-9:
            assert barrier_Bnu(nu, limits) > 0.0

    x_des = np.array([0.05, -0.03, np.log(0.15), 0.4])
    anchor = RecenteringAnchor(x_des, vis, bounds)
    h = 1e-6
    for j in (1, 2):
        assert recentered_barrier(x_des, j, anchor) == 0.0
        for i in range(4):
            xp, xm = x_des.copy(), x_des.copy()
            xp[i] += h
            xm[i] -= h
            grad = (
                recentered_barrier(xp, j, anchor) - recentered_barrier(xm, j, anchor)
            ) / (2 * h)
            assert abs(grad) < 1e-6
    _report(3, "constraint values, input barrier sign, and recentring all within tolerance")


def test_criterion_04_zero_error_fixed_point():
    cfg = load_scenario(CONFIGS / "static_octagon.json")
    pose = CameraPose.level(cfg.initial_position, cfg.initial_yaw)
    target = DeformableTarget(cfg.target_base, cfg.target_modes, seed=cfg.target_seed)
    s0, _ = project_target(pose, target.sample(0.0))
    poly = PolygonFeatures(s0, cfg.reference_pair)
    x0 = extract_state(poly)
    sol = solve_ocp(poly, x0, None, cfg.ocp, x0, pose.height)
    assert np.abs(sol.controls).max() <= 1e-6
    assert sol.cost <= 1e-9
    _report(4, f"|nu|_inf = {np.abs(sol.controls).max():.2e}, cost = {sol.cost:.2e}")


def test_criterion_05_free_camera_convergence():
    cfg = load_scenario(CONFIGS / "fig4_free_pentagon.json")
    t0 = time.perf_counter()
    log = run_scenario(cfg)
    wall = time.perf_counter() - t0
    assert wall <= 60.0, f"wall time {wall:.1f}s"
    assert log.aborted is None
    sse = steady_state_error(log, 0.2)
    half_w = 0.5 * cfg.intrinsics.width / cfg.intrinsics.alpha_x
    assert sse["ex"] <= 0.02 * half_w and sse["ey"] <= 0.02 * half_w
    assert sse["esig"] <= 0.05
    assert sse["eang_deg"] <= 2.0
    assert (log.columns["L1"] > 0).all() and (log.columns["L2"] > 0).all()
    n = log.n_steps
    tail = slice(n - int(round(0.2 * n)), n)
    assert log.columns["L1"][tail].min() >= 0.98
    assert log.columns["L2"][tail].min() >= 0.98
    _report(
        5,
        f"centroid ({sse['ex_px']:.2f}, {sse['ey_px']:.2f}) px, "
        f"esig {sse['esig']:.4f}, angle {sse['eang_deg']:.3f} deg, wall {wall:.1f}s",
    )


def test_criterion_06_uav_wave_reproduction():
    converged = 0
    details = []
    for seed in range(10):
        cfg = load_scenario(CONFIGS / "fig8_uav_wave.json", seed_offset=seed)
        log = run_scenario(cfg)
        ok = convergence_ok(log, cfg)
        converged += int(ok)
        if ok:
            sse = steady_state_error(log, 0.2)
            details.append(sse["eang_deg"])
    assert converged >= 9, f"only {converged}/10 sessions converged"
    _report(6, f"{converged}/10 seeded UAV sessions converged, worst angle "
               f"{max(details):.2f} deg <= 5 deg")


def test_criterion_07_robust_feasibility():
    base = json.loads((CONFIGS / "robust_octagon.json").read_text())
    cfg0 = parse_scenario(base, "robust_base")
    pose = CameraPose.level(cfg0.initial_position, cfg0.initial_yaw)
    target = DeformableTarget(cfg0.target_base, cfg0.target_modes, seed=cfg0.target_seed)
    s0, _ = project_target(pose, target.sample(0.0))
    poly0 = PolygonFeatures(s0, cfg0.reference_pair)
    diag = compute_diagnostics(
        cfg0.ocp,
        pose.height,
        cfg0.x_des,
        ref_poly=poly0,
        rng=np.random.default_rng(7),
    )
    lf = diag.L_f_emp
    xi_norm = 0.5 * diag.xi_max_emp  # inject at 50% of the feasibility bound
    base["disturbance"]["bound"] = xi_norm / 2.0  # per-component uniform bound

    bound1 = prediction_error_bound(1, xi_norm, lf)
    worst = 0.0
    for seed in range(10):
        cfg = parse_scenario(base, f"robust_{seed}", seed_offset=seed)
        log = run_scenario(cfg)
        assert log.aborted is None
        assert (log.columns["feasible"][1:] == 1).all(), "post-init recovery triggered"
        for k, pred in log.predictions:
            if k + 1 < len(log.truth):
                worst = max(worst, float(np.linalg.norm(log.truth[k + 1] - pred[1])))
    assert worst <= bound1, f"one-step error {worst:.3e} > bound {bound1:.3e}"

    # Multi-step check in the disturbed-recursion setting: nominal vs
    # disturbed model rollouts stay under the geometric bound.
    rng = np.random.default_rng(1007)
    cfg = cfg0.ocp
    x0 = extract_state(poly0)
    zs = pose.height
    for _ in range(100):
        nu_F = rng.uniform(-0.2, 0.2, size=(cfg.n, 6))
        poly_n, x_n = poly0, x0.copy()
        poly_d, x_d = poly0, x0.copy()
        for i in range(cfg.n):
            poly_n, x_n = propagate_discrete(
                poly_n, x_n, nu_F[i], np.zeros_like(s0), cfg.dt, zs
            )
            poly_d, x_d = propagate_discrete(
                poly_d, x_d, nu_F[i], np.zeros_like(s0), cfg.dt, zs
            )
            x_d = x_d + rng.uniform(-1.0, 1.0, 4) * (xi_norm / 2.0)
            err = np.linalg.norm(x_d - x_n)
            assert err <= prediction_error_bound(i + 1, xi_norm, max(lf, 1.0)) + 1e-12
    _report(
        7,
        f"10 disturbed runs feasible; worst one-step error {worst:.2e} <= {bound1:.2e} "
        f"(L_f_emp {lf:.3f}); 100 multi-step audits under the bound",
    )


def test_criterion_08_lyapunov_decrease():
    cfg = load_scenario(CONFIGS / "static_octagon.json")
    log = run_scenario(cfg)
    assert log.aborted is None
    cost = log.columns["cost"]
    increases = np.diff(cost[5:])
    assert increases.max() <= 1e-6, f"max increase {increases.max():.2e}"
    _report(8, f"J* non-increasing after step 5 (max increase {increases.max():.2e})")


def test_criterion_09_receding_step_performance():
    cfg = load_scenario(CONFIGS / "perf_12gon.json")
    assert cfg.ocp.n == 10 and cfg.ocp.mask.all() and cfg.target_base.shape[0] == 12
    target = DeformableTarget(cfg.target_base, cfg.target_modes, seed=cfg.target_seed)
    pose = CameraPose.level(cfg.initial_position, cfg.initial_yaw)
    s, _ = project_target(pose, target.sample(0.0))
    controller = RecedingHorizonController(cfg.ocp, cfg.x_des)
    estimator = CentroidFlowEstimator()
    x = extract_state(PolygonFeatures(s, cfg.reference_pair))
    nu_prev = np.zeros(6)
    times = []
    for k in range(60):
        poly = PolygonFeatures(s, cfg.reference_pair)
        z = pose.height
        l_bar = interaction_matrices(poly.vertices, z).mean(axis=0)
        flow = estimator.update(x[:2], k * cfg.ocp.dt, l_bar, nu_prev)
        t0 = time.perf_counter()
        res = controller.step(poly, x, flow, z)
        times.append(time.perf_counter() - t0)
        pose = step_pose(pose, res.nu, cfg.ocp.dt)
        s, _ = project_target(pose, target.sample((k + 1) * cfg.ocp.dt))
        x = extract_state(PolygonFeatures(s, cfg.reference_pair))
        nu_prev = res.nu
    median_ms = float(np.median(times) * 1e3)
    assert median_ms < 50.0, f"median receding step {median_ms:.1f} ms"
    _report(9, f"median receding step {median_ms:.1f} ms over 60 steps (n=10, N=12, full mask)")


def test_criterion_10_run_determinism(tmp_path):
    doc = json.loads((CONFIGS / "perf_12gon.json").read_text())
    doc["duration"] = 3.0
    doc["disturbance"] = {"bound": 0.001, "seed": 12}
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(doc))
    blobs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        rc = cli_main(
            ["run", str(cfg_path), "--out", str(out), "--no-plots", "--seed", "4"]
        )
        assert rc in (0, 2)
        blobs.append((out / "perf_12gon.csv").read_bytes())
    assert blobs[0] == blobs[1]
    _report(10, f"byte-identical CSV over repeated seeded runs ({len(blobs[0])} bytes)")
