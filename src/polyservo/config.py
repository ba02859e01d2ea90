"""Scenario and batch configuration files.

Configs are JSON documents. Parsing is strict: unknown keys anywhere in the
document are rejected so typos cannot silently disable a setting, and every
numeric value must be a finite JSON number (not a string or a boolean),
integral where an integer is expected. Numeric fields are SI units (meters,
seconds, radians) except where noted; image quantities are pixels in the
intrinsics block and normalized units elsewhere.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .barriers import AreaBounds, InputLimits, VisibilityParams
from .camera import FULL_MASK, UAV_MASK, CameraIntrinsics
from .errors import ConfigError
from .nmpc import OcpConfig, SolverParams
from .targets import Breathing, RigidDrift, RigidSpin, TravelingWave

__all__ = ["ConvergenceSpec", "ScenarioConfig", "BatchSpec", "load_scenario", "load_batch"]


@dataclass(frozen=True)
class ConvergenceSpec:
    """The steady-state window and angle threshold of the run exit status.

    The centroid, area and barrier thresholds no scenario varies are the
    constants of :mod:`polyservo.analysis`.
    """

    window: float = 0.2  # tail fraction of the run
    angle_deg: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.window <= 1.0:
            raise ValueError("window must be in (0, 1]")
        if not self.angle_deg > 0:
            raise ValueError("angle_deg must be positive")


@dataclass
class ScenarioConfig:
    name: str
    intrinsics: CameraIntrinsics
    target_base: np.ndarray
    target_modes: list
    target_seed: int
    reference_pair: tuple
    initial_position: np.ndarray
    initial_yaw: float
    x_des: np.ndarray
    ocp: OcpConfig
    disturbance_bound: float
    disturbance_seed: int
    duration: float
    estimator: str
    convergence: ConvergenceSpec
    max_recovery_steps: int
    config_hash: str = ""


_MODES = {
    "rigid_drift": RigidDrift,
    "rigid_spin": RigidSpin,
    "breathing": Breathing,
    "traveling_wave": TravelingWave,
}

_OCP_KEYS = {
    "horizon",
    "dt",
    "q",
    "r",
    "p",
    "gamma",
    "sigma_min",
    "sigma_max",
    "delta",
    "nu_max",
    "omega_max",
    "solver",
}

_TOP_KEYS = {
    "name",
    "mode",
    "intrinsics",
    "target",
    "initial_pose",
    "x_des",
    "ocp",
    "disturbance",
    "duration",
    "estimator",
    "convergence",
    "max_recovery_steps",
}

# What a conversion or constructor raises on a wrong-typed or out-of-range value.
_VALUE_ERRORS = (TypeError, ValueError, OverflowError)


def _number(value, typ=float):
    """JSON number ``value`` as ``typ``: finite for float, integral for int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    if typ is int:
        if not isinstance(value, numbers.Integral) and not float(value).is_integer():
            raise ValueError(f"expected an integer, got {value!r}")
        return int(value)
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


def _floats(value):
    """A JSON number or (nested) list of numbers as a float array."""
    if isinstance(value, list):
        return np.array([_floats(v) for v in value], dtype=float)
    return np.asarray(_number(value))


def _require(d, key, ctx):
    if key not in d:
        raise ConfigError(f"{ctx}: missing key {key!r}")
    return d[key]


def _object(d, allowed, ctx):
    """Return ``d`` after checking it is a JSON object with only ``allowed`` keys."""
    if not isinstance(d, dict):
        raise ConfigError(f"{ctx}: expected a JSON object, got {type(d).__name__}")
    extra = set(d) - set(allowed)
    if extra:
        raise ConfigError(f"{ctx}: unknown keys {sorted(extra)}")
    return d


def _parse_fields(cls, d, ctx, extra_keys=()):
    """Build dataclass ``cls`` from JSON object ``d``, one key per field.

    Keys, required keys and defaults come from the fields of ``cls``; each
    value is converted by :func:`_number` to its annotated type (``tuple``:
    of floats). ``extra_keys`` are also allowed in ``d`` and left to the
    caller.
    """
    fields = dataclasses.fields(cls)
    _object(d, {f.name for f in fields} | set(extra_keys), ctx)
    types = typing.get_type_hints(cls)
    kwargs = {}
    for f in fields:
        if f.name in d:
            typ, value = types[f.name], d[f.name]
            kwargs[f.name] = (
                tuple(_number(v) for v in value) if typ is tuple else _number(value, typ)
            )
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{ctx}: missing key {f.name!r}")
    return cls(**kwargs)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except ValueError as exc:  # invalid JSON or undecodable bytes
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def parse_scenario(doc: dict, name_hint: str = "scenario", seed_offset: int = 0) -> ScenarioConfig:
    """Build a validated :class:`ScenarioConfig` from a JSON document.

    ``seed_offset`` shifts both the disturbance and target seeds, which is
    how batches and the ``--seed`` flag derive independent sessions from a
    single scenario file. Any invalid value raises :class:`ConfigError`
    naming the block it sits in.
    """
    block = "scenario"
    try:
        _object(doc, _TOP_KEYS, block)
        mode = _require(doc, "mode", block)
        if mode not in ("free_camera", "uav"):
            raise ConfigError(f"scenario: unknown mode {mode!r}")
        mask = FULL_MASK if mode == "free_camera" else UAV_MASK

        block = "intrinsics"
        intrinsics = _parse_fields(CameraIntrinsics, _require(doc, "intrinsics", "scenario"), block)

        block = "target"
        td = _object(
            _require(doc, "target", "scenario"),
            {"base_vertices", "modes", "seed", "reference_pair"},
            block,
        )
        base = _floats(_require(td, "base_vertices", block))
        if base.ndim != 2 or base.shape[1] != 2 or base.shape[0] < 3:
            raise ConfigError("target.base_vertices must be an (N, 2) list, N >= 3")
        ref = tuple(_number(v, int) for v in td.get("reference_pair", (0, 1)))
        if len(ref) != 2 or ref[0] == ref[1] or not all(0 <= i < len(base) for i in ref):
            raise ConfigError("target.reference_pair must be two distinct vertex indices")
        target_seed = _number(td.get("seed", 0), int) + seed_offset
        modes = []
        for i, entry in enumerate(td.get("modes", [])):
            block = f"target.modes[{i}]"
            kind = _require(entry, "type", block)
            if kind not in _MODES:
                raise ConfigError(f"{block}: unknown mode type {kind!r}")
            modes.append(_parse_fields(_MODES[kind], entry, block, extra_keys=("type",)))

        block = "initial_pose"
        pd = _object(_require(doc, "initial_pose", "scenario"), {"position", "yaw"}, block)
        position = _floats(_require(pd, "position", block))
        if position.shape != (3,):
            raise ConfigError("initial_pose.position must have three entries")
        if position[2] <= 0.1:
            raise ConfigError("camera must start above the target plane (z > 0.1)")
        initial_yaw = _number(pd.get("yaw", 0.0))

        block = "x_des"
        x_des = _floats(_require(doc, "x_des", "scenario"))
        if x_des.shape != (4,):
            raise ConfigError("x_des must have four entries")

        od = _object(_require(doc, "ocp", "scenario"), _OCP_KEYS, "ocp")
        block = "ocp.solver"
        solver = _parse_fields(SolverParams, od.get("solver", {}), block)
        block = "ocp"
        ocp = OcpConfig(
            n=_number(_require(od, "horizon", block), int),
            dt=_number(_require(od, "dt", block)),
            q=_floats(_require(od, "q", block)),
            r=_floats(_require(od, "r", block)),
            p=_floats(_require(od, "p", block)),
            visibility=VisibilityParams.from_intrinsics(
                intrinsics, _number(_require(od, "gamma", block))
            ),
            area_bounds=AreaBounds(
                sigma_min=_number(_require(od, "sigma_min", block)),
                sigma_max=_number(_require(od, "sigma_max", block)),
                delta=_number(_require(od, "delta", block)),
            ),
            limits=InputLimits(
                nu_max=tuple(_number(v) for v in _require(od, "nu_max", block)),
                omega_max=tuple(_number(v) for v in _require(od, "omega_max", block)),
            ),
            mask=mask,
            solver=solver,
        )

        block = "disturbance"
        dd = _object(doc.get("disturbance", {}), {"bound", "seed"}, block)
        bound = _number(dd.get("bound", 0.0))
        if not bound >= 0:
            raise ConfigError("disturbance.bound must be nonnegative")
        dist_seed = _number(dd.get("seed", 0), int) + seed_offset

        block = "duration"
        duration = _number(_require(doc, "duration", "scenario"))
        if not duration > 0:
            raise ConfigError("duration must be positive")

        estimator = doc.get("estimator", "centroid_fd")
        if estimator not in ("centroid_fd", "none"):
            raise ConfigError(f"unknown estimator {estimator!r}")

        block = "convergence"
        conv = _parse_fields(ConvergenceSpec, doc.get("convergence", {}), block)

        block = "max_recovery_steps"
        max_recovery_steps = _number(doc.get("max_recovery_steps", 20), int)
        if max_recovery_steps < 0:
            raise ConfigError("max_recovery_steps must be nonnegative")

        name = doc.get("name", name_hint)
        if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ConfigError(f"name must be a plain file stem, got {name!r}")
    except _VALUE_ERRORS as exc:
        raise ConfigError(f"{block}: {exc}") from exc

    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(
        (canonical + f"|seed_offset={seed_offset}").encode()
    ).hexdigest()

    return ScenarioConfig(
        name=name,
        intrinsics=intrinsics,
        target_base=base,
        target_modes=modes,
        target_seed=target_seed,
        reference_pair=ref,
        initial_position=position,
        initial_yaw=initial_yaw,
        x_des=x_des,
        ocp=ocp,
        disturbance_bound=bound,
        disturbance_seed=dist_seed,
        duration=duration,
        estimator=estimator,
        convergence=conv,
        max_recovery_steps=max_recovery_steps,
        config_hash=digest,
    )


def load_scenario(path, seed_offset: int = 0) -> ScenarioConfig:
    path = Path(path)
    return parse_scenario(_read_json(path), name_hint=path.stem, seed_offset=seed_offset)


@dataclass
class BatchSpec:
    """A set of scenario files, each run ``repetitions`` times."""

    scenario_paths: list
    repetitions: int
    base_seed: int

    def sessions(self):
        """Yield (scenario_path, session_name, seed_offset) triples."""
        for path in self.scenario_paths:
            stem = Path(path).stem
            for rep in range(self.repetitions):
                yield path, f"{stem}_rep{rep:03d}", self.base_seed + rep


def load_batch(path) -> BatchSpec:
    """Read a batch file; a listed scenario that does not parse is a ConfigError."""
    path = Path(path)
    doc = _read_json(path)
    try:
        _object(doc, {"scenarios", "repetitions", "base_seed"}, "batch")
        scenarios = _require(doc, "scenarios", "batch")
        if not isinstance(scenarios, list) or not all(isinstance(p, str) for p in scenarios):
            raise ConfigError("batch: scenarios must be a list of file names")
        if not scenarios:
            raise ConfigError("batch: scenarios list is empty")
        paths = [path.parent / p for p in scenarios]
        stems = [p.stem for p in paths]
        if len(set(stems)) != len(stems):
            raise ConfigError("batch: scenario file stems must be unique")
        for p in paths:
            try:
                parse_scenario(_read_json(p), p.stem)
            except (OSError, ConfigError) as exc:
                raise ConfigError(f"batch: scenario {p}: {exc}") from exc
        reps = _number(doc.get("repetitions", 1), int)
        if reps < 1:
            raise ConfigError("batch: repetitions must be at least 1")
        base_seed = _number(doc.get("base_seed", 0), int)
    except _VALUE_ERRORS as exc:
        raise ConfigError(f"batch: {exc}") from exc
    return BatchSpec(
        scenario_paths=[str(p) for p in paths],
        repetitions=reps,
        base_seed=base_seed,
    )
