"""Deterministic closed-loop world: pose integration, sensing, logging.

The world is a flat ground plane at z = 0 observed by a camera above it.
The camera pose integrates applied velocity commands through the SE(3)
exponential; the target evolves on the plane. One sensor step a period
projects the vertices through the true pinhole model, adds the measurement
disturbance to their moment state (the disturbed discrete-time system the
controller is analysed against) and reads the altimeter.

Runs are bit-reproducible: all randomness flows from the configured seeds
and log serialization uses shortest round-trip float formatting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .barriers import constraint_L1, constraint_L2
from .camera import CameraIntrinsics, interaction_matrices, normalized_to_pixel
from .errors import TargetLost
from .nmpc import RecedingHorizonController, compute_diagnostics
from .polygon import PolygonFeatures, extract_state
from .targets import CentroidFlowEstimator, DeformableTarget

__all__ = [
    "CameraPose",
    "SimLog",
    "CSV_HEADER",
    "step_pose",
    "project_target",
    "inject_disturbance",
    "opening_scene",
    "run_scenario",
]

# World-from-camera base rotation for a nadir camera: camera x stays along
# world x, optical axis points down.
R_NADIR = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])

# A run aborts once more consecutive steps than this fall back to the local controller.
_MAX_RECOVERY_STEPS = 20

CSV_HEADER = (
    "t,sx,sy,sigbar,abar,ex,ey,esig,eang,L1,L2,"
    "vx,vy,vz,wx,wy,wz,cost,iters,feasible"
)


@dataclass
class CameraPose:
    position: np.ndarray  # (3,) meters, world frame
    rotation: np.ndarray  # (3, 3) world-from-camera

    @classmethod
    def level(cls, position, yaw: float):
        c, s = np.cos(yaw), np.sin(yaw)
        r_z = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return cls(np.asarray(position, dtype=float).copy(), r_z @ R_NADIR)

    @property
    def height(self) -> float:
        return float(self.position[2])


def _hat(w):
    return np.array(
        [[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]]
    )


def _se3_exp(v, w, dt: float):
    """Rotation increment and translation of the SE(3) exponential."""
    phi = np.asarray(w, dtype=float) * dt
    rho = np.asarray(v, dtype=float) * dt
    th = np.linalg.norm(phi)
    K = _hat(phi)
    if th < 1e-10:
        R = np.eye(3) + K + 0.5 * (K @ K)
        V = np.eye(3) + 0.5 * K + (K @ K) / 6.0
    else:
        Kn = K / th
        R = np.eye(3) + np.sin(th) * Kn + (1.0 - np.cos(th)) * (Kn @ Kn)
        V = (
            np.eye(3)
            + ((1.0 - np.cos(th)) / th) * Kn
            + ((th - np.sin(th)) / th) * (Kn @ Kn)
        )
    return R, V @ rho


def step_pose(pose: CameraPose, nu6, dt: float) -> CameraPose:
    """Integrate a camera-frame twist over one control period."""
    nu6 = np.asarray(nu6, dtype=float)
    dR, dp = _se3_exp(nu6[:3], nu6[3:], dt)
    return CameraPose(
        position=pose.position + pose.rotation @ dp,
        rotation=pose.rotation @ dR,
    )


def project_target(pose: CameraPose, world_pts):
    """Project planar world points; returns normalized (N, 2) and depths."""
    world_pts = np.asarray(world_pts, dtype=float)
    if world_pts.shape[1] == 2:
        world_pts = np.column_stack([world_pts, np.zeros(len(world_pts))])
    p_c = (world_pts - pose.position) @ pose.rotation
    Z = p_c[:, 2]
    if (Z <= 1e-9).any():
        raise TargetLost("target vertex at or behind the camera plane")
    s = np.column_stack([p_c[:, 0] / Z, p_c[:, 1] / Z])
    return s, Z


def _project_in_image(pose: CameraPose, world_pts, k: CameraIntrinsics):
    """:func:`project_target`'s vertices; raises :class:`TargetLost` off the pixel image."""
    s, _ = project_target(pose, world_pts)
    px = normalized_to_pixel(s, k)
    if (px < 0).any() or (px > (k.width, k.height)).any():
        raise TargetLost("target vertex left the image")
    return s


def inject_disturbance(rng, bound: float):
    """Uniform per-component state disturbance in [-bound, bound]."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    return rng.uniform(-1.0, 1.0, 4) * bound


def _measure(pose: CameraPose, target: DeformableTarget, t: float, cfg, rng):
    """``(poly, x_meas, z, x_true)`` the camera at ``pose`` senses at time ``t``.

    ``x_meas`` is ``poly``'s state ``x_true`` plus one disturbance draw from
    ``rng``; ``z`` is the altimeter. Raises :class:`TargetLost` off the image.
    """
    s = _project_in_image(pose, target.sample(t), cfg.intrinsics)
    poly = PolygonFeatures(s, cfg.reference_pair)
    x_true = extract_state(poly)
    x_meas = x_true + inject_disturbance(rng, cfg.disturbance_bound)
    return poly, x_meas, pose.height, x_true


@dataclass
class SimLog:
    """Per-step closed-loop record plus the run's diagnostic header.

    ``truth`` carries the undisturbed moment state per step (in-memory only;
    the CSV holds the measured state the controller saw).
    """

    columns: dict  # name -> np.ndarray, keys follow CSV_HEADER order
    meta: dict
    aborted: str | None = None
    predictions: list = field(default_factory=list)  # (step, predicted states) per accepted solve
    truth: np.ndarray | None = None  # (steps, 4) states before the sensor's disturbance

    @property
    def n_steps(self) -> int:
        return len(self.columns["t"])

    def to_csv(self, path):
        names = CSV_HEADER.split(",")
        with open(path, "w", newline="") as f:
            f.write(CSV_HEADER + "\n")
            cols = [self.columns[n] for n in names]
            for i in range(self.n_steps):
                f.write(",".join(_fmt(c[i]) for c in cols) + "\n")

    def write_sidecar(self, path):
        with open(path, "w") as f:
            json.dump(self.meta, f, indent=2, sort_keys=True)
            f.write("\n")


def _fmt(v):
    if isinstance(v, (np.integer, int)):
        return str(int(v))
    return repr(float(v))


def opening_scene(cfg):
    """``(target, pose, diagnostics)`` a session of ``cfg`` starts from.

    The diagnostics are evaluated on the target's true t=0 projection from
    the level initial pose, at the camera's height (the altimeter's depth).
    They draw nothing from the disturbance generator, so the sensor's first
    reading takes its first draw. Raises :class:`TargetLost` when that
    projection is not inside the pixel image.
    """
    target = DeformableTarget(cfg.target_base, cfg.target_modes, seed=cfg.target_seed)
    target.validate(cfg.duration)
    pose = CameraPose.level(cfg.initial_position, cfg.initial_yaw)
    s0 = _project_in_image(pose, target.sample(0.0), cfg.intrinsics)
    diag = compute_diagnostics(
        cfg.ocp,
        pose.height,
        cfg.x_des,
        ref_poly=PolygonFeatures(s0, cfg.reference_pair),
        rng=np.random.default_rng(cfg.disturbance_seed + 1),
    )
    return target, pose, diag


def run_scenario(cfg) -> SimLog:
    """Deterministic closed-loop run of one scenario.

    ``cfg`` is a :class:`polyservo.config.ScenarioConfig`. Every control
    period flow estimation and control act on one sensor reading, the step
    is logged, and the pose moves by the command before the next reading.
    Aborts (lost target, persistent infeasibility) return the log with the
    ``aborted`` reason, stamped with the step that caused it, not raise.
    """
    target, pose, diag = opening_scene(cfg)
    rng = np.random.default_rng(cfg.disturbance_seed)
    dt = cfg.ocp.dt
    n_steps = int(round(cfg.duration / dt))
    poly, x_meas, z, x_true = _measure(pose, target, 0.0, cfg, rng)

    controller = RecedingHorizonController(cfg.ocp, cfg.x_des)
    estimator = CentroidFlowEstimator() if cfg.estimator == "centroid_fd" else None
    prev_nu = np.zeros(6)

    rows = []  # one tuple per step, in CSV_HEADER order
    predictions = []
    truth_rows = []
    aborted = None
    consecutive_recoveries = 0

    for k_step in range(n_steps):
        t = k_step * dt

        flow = None
        if estimator is not None:
            l_bar = interaction_matrices(poly.vertices, z).mean(axis=0)
            flow = estimator.update(x_meas[:2], t, l_bar, prev_nu)

        res = controller.step(poly, x_meas, flow, z)
        consecutive_recoveries = consecutive_recoveries + 1 if res.recovered else 0
        sol = res.solution
        if not res.recovered:
            predictions.append((k_step, sol.predicted_states))

        err = x_meas - cfg.x_des
        eang = np.degrees(np.arctan(x_meas[3]) - np.arctan(cfg.x_des[3]))
        truth_rows.append(x_true)
        rows.append((
            t, *x_meas, *err[:3], eang,
            constraint_L1(x_meas[:2], cfg.ocp.visibility),
            constraint_L2(x_meas[2], cfg.ocp.area_bounds),
            *res.nu,
            sol.cost if sol else float("nan"),
            sol.iterations if sol else 0,
            0 if res.recovered else 1,
        ))

        if consecutive_recoveries > _MAX_RECOVERY_STEPS:
            aborted = f"unrecoverable infeasibility at t={t:.3f}"
            break

        pose = step_pose(pose, res.nu, dt)
        try:
            poly, x_meas, z, x_true = _measure(pose, target, (k_step + 1) * dt, cfg, rng)
        except TargetLost as exc:
            aborted = f"{exc} at t={t:.3f}"
            break
        prev_nu = res.nu

    names = CSV_HEADER.split(",")
    columns = {
        name: np.array(vals, dtype=(int if name in ("iters", "feasible") else float))
        for name, vals in zip(names, list(zip(*rows)) or [()] * len(names))
    }
    meta = {
        "config_hash": cfg.config_hash,
        "name": cfg.name,
        "diagnostics": diag.to_dict(),
        "aborted": aborted,
        "steps": int(len(columns["t"])),
        "dt": dt,
        "alpha_x": cfg.intrinsics.alpha_x,
        "alpha_y": cfg.intrinsics.alpha_y,
    }
    return SimLog(
        columns=columns,
        meta=meta,
        aborted=aborted,
        predictions=predictions,
        truth=np.array(truth_rows),
    )
