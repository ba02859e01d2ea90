import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from polyservo import PolygonFeatures, extract_state, world
from polyservo.config import load_scenario, parse_scenario
from polyservo.errors import TargetLost
from polyservo.nmpc import RecedingHorizonController, StepResult
from polyservo.polygon import propagate_discrete
from polyservo.targets import DeformableTarget, RigidDrift
from polyservo.world import (
    CSV_HEADER,
    CameraPose,
    inject_disturbance,
    opening_scene,
    project_target,
    run_scenario,
    step_pose,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SQUARE_W = np.array([[0.3, 0.3], [-0.3, 0.3], [-0.3, -0.3], [0.3, -0.3]])


def tiny_scenario_doc(**overrides):
    doc = {
        "name": "tiny",
        "mode": "free_camera",
        "intrinsics": {
            "alpha_x": 500.0,
            "alpha_y": 500.0,
            "c_u": 320.0,
            "c_v": 240.0,
            "width": 640,
            "height": 480,
        },
        "target": {
            "base_vertices": SQUARE_W.tolist(),
            "reference_pair": [1, 2],
            "seed": 2,
            "modes": [],
        },
        "initial_pose": {"position": [0.08, -0.06, 2.1], "yaw": 0.05},
        "x_des": [0.0, 0.0, -2.40795, 0.0],
        "ocp": {
            "horizon": 5,
            "dt": 0.1,
            "q": [50.0, 50.0, 60.0, 20.0],
            "r": [0.1, 0.1, 0.05, 0.5, 0.5, 0.1],
            "p": [500.0, 500.0, 600.0, 200.0],
            "gamma": 0.15,
            "sigma_min": 0.01,
            "sigma_max": 0.6,
            "delta": 0.02,
            "nu_max": [0.6, 0.6, 0.6],
            "omega_max": [0.6, 0.6, 0.8],
        },
        "disturbance": {"bound": 0.0, "seed": 1},
        "duration": 2.0,
        "estimator": "none",
    }
    doc.update(overrides)
    return doc


class TestPoseAndProjection:
    def test_zero_twist_identity(self):
        pose = CameraPose.level([0.1, 0.2, 2.0], 0.3)
        after = step_pose(pose, np.zeros(6), 0.1)
        np.testing.assert_array_equal(after.position, pose.position)
        np.testing.assert_array_equal(after.rotation, pose.rotation)

    def test_static_projection_stable(self):
        pose = CameraPose.level([0.0, 0.0, 2.0], 0.0)
        tgt = DeformableTarget(SQUARE_W)
        s1, _ = project_target(step_pose(pose, np.zeros(6), 0.1), tgt.sample(0.1))
        s2, _ = project_target(step_pose(pose, np.zeros(6), 0.1), tgt.sample(0.2))
        np.testing.assert_array_equal(s1, s2)

    def test_pure_yaw_preserves_projected_area(self):
        pose = CameraPose.level([0.0, 0.0, 2.0], 0.0)
        s0, _ = project_target(pose, SQUARE_W)
        a0 = _area(s0)
        nu = np.zeros(6)
        nu[5] = 0.5
        pose2 = step_pose(pose, nu, 0.3)
        s1, _ = project_target(pose2, SQUARE_W)
        assert _area(s1) == pytest.approx(a0, rel=1e-12)

    def test_climb_scales_area(self):
        z, v, dt = 2.0, 0.3, 0.01
        pose = CameraPose.level([0.0, 0.0, z], 0.0)
        s0, _ = project_target(pose, SQUARE_W)
        nu = np.zeros(6)
        nu[2] = v  # +z in camera frame = downward = toward the plane
        pose2 = step_pose(pose, nu, dt)
        s1, depths = project_target(pose2, SQUARE_W)
        assert depths[0] == pytest.approx(z - v * dt)
        assert _area(s1) / _area(s0) == pytest.approx((z / (z - v * dt)) ** 2, rel=1e-9)

    def test_one_step_model_error_second_order(self):
        # Euler-propagated model vs true reprojection after a pose step.
        rng = np.random.default_rng(0)
        pose = CameraPose.level([0.05, -0.04, 2.0], 0.1)
        s0, depths = project_target(pose, SQUARE_W)
        poly = PolygonFeatures(s0)
        x0 = extract_state(poly)
        worst = np.inf
        for _ in range(10):
            nu = rng.uniform(-0.5, 0.5, 6)
            errs = []
            for dt in (2e-3, 1e-3):
                _, x_model = propagate_discrete(
                    poly, x0, nu, np.zeros_like(s0), dt, float(depths[0])
                )
                pose2 = step_pose(pose, nu, dt)
                s_true, _ = project_target(pose2, SQUARE_W)
                x_true = extract_state(PolygonFeatures(s_true))
                errs.append(np.linalg.norm(x_true - x_model))
            if errs[0] > 1e-13:
                worst = min(worst, np.log2(errs[0] / errs[1]))
        assert worst >= 1.9

    def test_target_lost_behind_camera(self):
        pose = CameraPose.level([0.0, 0.0, 0.2], 0.0)
        raised = np.column_stack([SQUARE_W, np.ones(4)])  # above the camera
        with pytest.raises(TargetLost):
            project_target(pose, raised)


class TestDisturbance:
    def test_zero_bound(self):
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(inject_disturbance(rng, 0.0), np.zeros(4))

    def test_bound_respected(self):
        rng = np.random.default_rng(1)
        draws = np.array([inject_disturbance(rng, 0.01) for _ in range(100_000)])
        assert np.abs(draws).max() <= 0.01

    def test_seeded_reproducibility(self):
        a = inject_disturbance(np.random.default_rng(42), 0.5)
        b = inject_disturbance(np.random.default_rng(42), 0.5)
        np.testing.assert_array_equal(a, b)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            inject_disturbance(np.random.default_rng(0), -1.0)


class TestRunScenario:
    def test_converged_start_stays_put(self):
        doc = tiny_scenario_doc()
        # Start exactly at the desired view.
        doc["initial_pose"] = {"position": [0.0, 0.0, 2.0], "yaw": 0.0}
        doc["x_des"] = self._exact_x_des(doc)
        cfg = parse_scenario(doc, "fixedpoint")
        log = run_scenario(cfg)
        assert log.aborted is None
        for name in ("ex", "ey", "esig"):
            assert np.abs(log.columns[name]).max() <= 1e-6
        assert np.abs(log.columns["eang"]).max() <= 1e-4  # degrees

    @staticmethod
    def _exact_x_des(doc):
        pose = CameraPose.level(doc["initial_pose"]["position"], doc["initial_pose"]["yaw"])
        s, _ = project_target(pose, np.array(doc["target"]["base_vertices"]))
        return extract_state(
            PolygonFeatures(s, tuple(doc["target"]["reference_pair"]))
        ).tolist()

    def test_errors_decay_and_barriers_positive(self):
        cfg = parse_scenario(tiny_scenario_doc(duration=3.0), "decay")
        log = run_scenario(cfg)
        assert log.aborted is None
        assert (log.columns["L1"] > 0).all() and (log.columns["L2"] > 0).all()
        e0 = abs(log.columns["ex"][0]) + abs(log.columns["ey"][0])
        e1 = abs(log.columns["ex"][-1]) + abs(log.columns["ey"][-1])
        assert e1 < 0.05 * e0

    def test_determinism_bit_identical_csv(self, tmp_path):
        doc = tiny_scenario_doc(disturbance={"bound": 0.002, "seed": 7}, duration=1.5)
        out = []
        for tag in ("a", "b"):
            cfg = parse_scenario(doc, "det")
            log = run_scenario(cfg)
            p = tmp_path / f"{tag}.csv"
            log.to_csv(p)
            out.append(p.read_bytes())
        assert out[0] == out[1]

    def test_sensor_state_is_truth_plus_one_draw_per_step(self):
        cfg = parse_scenario(
            tiny_scenario_doc(disturbance={"bound": 0.002, "seed": 7}, duration=1.5), "sensor"
        )
        log = run_scenario(cfg)
        assert log.aborted is None
        rng = np.random.default_rng(7)
        seen = np.column_stack([log.columns[n] for n in ("sx", "sy", "sigbar", "abar")])
        for k in range(log.n_steps):
            np.testing.assert_array_equal(
                seen[k], log.truth[k] + rng.uniform(-1.0, 1.0, 4) * 0.002
            )
        target, pose = opening_scene(cfg)[:2]
        s0, _ = project_target(pose, target.sample(0.0))
        np.testing.assert_array_equal(
            log.truth[0], extract_state(PolygonFeatures(s0, cfg.reference_pair))
        )

    def test_predictions_only_from_accepted_solves(self, monkeypatch):
        # Step 0 recovers from a failed solve, whose predicted states are
        # the measured state repeated; no one-step audit may read them.
        step = RecedingHorizonController.step

        def failing_first_step(ctrl, poly, x_meas, flow, z):
            res = step(ctrl, poly, x_meas, flow, z)
            if getattr(ctrl, "_failed_once", False):
                return res
            ctrl._failed_once = True
            failed = replace(res.solution, cost=float("inf"), status="no_descent")
            failed.predicted_states = np.repeat(x_meas[None], ctrl.cfg.n + 1, axis=0)
            return StepResult(nu=res.nu, solution=failed, recovered=True)

        monkeypatch.setattr(RecedingHorizonController, "step", failing_first_step)
        cfg = parse_scenario(tiny_scenario_doc(duration=0.5), "preds")
        log = run_scenario(cfg)
        assert log.columns["feasible"][0] == 0
        assert [k for k, _ in log.predictions] == [1, 2, 3, 4]

    def test_csv_header_fixed(self, tmp_path):
        cfg = parse_scenario(tiny_scenario_doc(duration=1.2), "hdr")
        log = run_scenario(cfg)
        p = tmp_path / "log.csv"
        log.to_csv(p)
        first = p.read_text().splitlines()[0]
        assert first == CSV_HEADER
        assert (
            first == "t,sx,sy,sigbar,abar,ex,ey,esig,eang,L1,L2,"
            "vx,vy,vz,wx,wy,wz,cost,iters,feasible"
        )

    def test_abort_on_target_lost(self):
        doc = tiny_scenario_doc(duration=6.0)
        # A sprinting target the camera cannot keep in frame.
        doc["target"]["modes"] = [{"type": "rigid_drift", "velocity": [1.5, 0.0]}]
        doc["ocp"]["nu_max"] = [0.05, 0.05, 0.05]
        cfg = parse_scenario(doc, "lost")
        log = run_scenario(cfg)
        # Stamped with the time of the command that moved the camera.
        assert log.aborted == "target vertex left the image at t=1.000"
        assert log.n_steps == 11 and log.columns["feasible"].tolist() == [1] * 11
        assert log.truth.shape == (11, 4)

    def test_sidecar_contents(self, tmp_path):
        cfg = parse_scenario(tiny_scenario_doc(duration=1.2), "meta")
        log = run_scenario(cfg)
        p = tmp_path / "log.meta.json"
        log.write_sidecar(p)
        meta = json.loads(p.read_text())
        assert meta["config_hash"] == cfg.config_hash
        assert "diagnostics" in meta and meta["diagnostics"]["L_f"] > 0

    def test_uav_mode_keeps_level_pose(self):
        doc = tiny_scenario_doc(mode="uav", duration=1.5)
        doc["x_des"] = [0.0, 0.0, -2.63, 0.0]
        cfg = parse_scenario(doc, "uav")
        log = run_scenario(cfg)
        assert log.aborted is None
        assert np.abs(log.columns["wx"]).max() == 0.0
        assert np.abs(log.columns["wy"]).max() == 0.0


class TestLoopEndings:
    """A run that stops early still returns a log whose CSV holds its steps."""

    @staticmethod
    def _csv_lines(log, tmp_path):
        p = tmp_path / "log.csv"
        log.to_csv(p)
        return p.read_text().splitlines()

    def test_unrecoverable_infeasibility_aborts_with_log(self, tmp_path, monkeypatch):
        monkeypatch.setattr(world, "_MAX_RECOVERY_STEPS", 0)
        log = run_scenario(parse_scenario(unrecoverable_doc(), "abort"))
        assert log.aborted.startswith("unrecoverable infeasibility")
        assert log.n_steps == 1 and log.meta["steps"] == 1
        assert log.columns["feasible"].tolist() == [0]
        assert log.columns["iters"].tolist() == [0]
        assert np.isnan(log.columns["cost"][0])
        assert log.truth.shape == (1, 4)
        lines = self._csv_lines(log, tmp_path)
        assert lines[0] == CSV_HEADER and len(lines) == 2
        assert len(lines[1].split(",")) == len(CSV_HEADER.split(","))

    def test_run_shorter_than_one_period_logs_nothing(self, tmp_path):
        doc = json.loads((CONFIGS / "static_octagon.json").read_text())
        doc["duration"] = 0.04
        log = run_scenario(parse_scenario(doc, "empty"))
        assert log.aborted is None
        assert log.n_steps == 0 and log.meta["steps"] == 0
        assert list(log.columns) == CSV_HEADER.split(",")
        assert all(col.shape == (0,) for col in log.columns.values())
        assert log.columns["iters"].dtype.kind == "i"
        assert self._csv_lines(log, tmp_path) == [CSV_HEADER]


def unrecoverable_doc():
    """``static_octagon`` that aborts on unrecoverable infeasibility.

    From z = 6 the octagon's projected area is below sigma_min, so no OCP
    can be posed; the run aborts once the recovery limit is spent.
    """
    doc = json.loads((CONFIGS / "static_octagon.json").read_text())
    doc["initial_pose"]["position"][2] = 6.0
    return doc


def off_image_doc():
    """``static_octagon`` moved so that its opening frame has a vertex at -16.6 px."""
    doc = json.loads((CONFIGS / "static_octagon.json").read_text())
    doc["initial_pose"]["position"] = [1.1, -0.12, 2.25]
    return doc


def test_opening_frame_outside_image_is_target_lost():
    # The same pixel check as every later frame: no session starts on a
    # polygon the camera cannot see.
    with pytest.raises(TargetLost, match="left the image"):
        opening_scene(parse_scenario(off_image_doc(), "off_image"))


def _area(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs((x * np.roll(y, -1) - np.roll(x, -1) * y).sum())
