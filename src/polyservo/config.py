"""Scenario and batch configuration files.

Configs are JSON documents. Parsing is strict. Every JSON object goes
through one reader, and a key is accepted only if the parser reads it, so a
typo cannot silently disable a setting. A required key that is absent is
reported first, as ``<block>: missing key '...'``; the keys a block never
read are reported when it closes, as ``<block>: unknown keys [...]``. So a
misspelt required key reads as missing and a misspelt optional key as
unknown. Every numeric value must be a finite JSON number (not a string or
a boolean), integral where an integer is expected, and a scenario ``name``
must be a plain file stem: a nonempty string other than ``.`` and ``..``
with no ``/``, ``\\`` or NUL character. Numeric fields are SI units
(meters, seconds, radians) except where noted; image quantities are pixels
in the intrinsics block and normalized units elsewhere.
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

from .barriers import AreaBounds, InputLimits, RecenteringAnchor, VisibilityParams
from .camera import FULL_MASK, UAV_MASK, CameraIntrinsics
from .errors import ConfigError
from .nmpc import OcpConfig
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
    config_hash: str = ""


_MODES = {
    "rigid_drift": RigidDrift,
    "rigid_spin": RigidSpin,
    "breathing": Breathing,
    "traveling_wave": TravelingWave,
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


class _Reader:
    """One JSON object of a config, named ``block`` in error messages.

    A key is accepted exactly when it is read: :meth:`close` rejects every
    key that no :meth:`read` asked for.
    """

    def __init__(self, doc, block):
        if not isinstance(doc, dict):
            raise ConfigError(f"{block}: expected a JSON object, got {type(doc).__name__}")
        self.doc, self.block, self.unread = doc, block, set(doc)

    def read(self, key, default=dataclasses.MISSING):
        """The value of ``key``, else ``default``; without a default the key is required."""
        self.unread.discard(key)
        if key in self.doc:
            return self.doc[key]
        if default is dataclasses.MISSING:
            raise ConfigError(f"{self.block}: missing key {key!r}")
        return default

    def close(self):
        if self.unread:
            raise ConfigError(f"{self.block}: unknown keys {sorted(self.unread)}")


def _parse_fields(cls, obj):
    """Build dataclass ``cls`` from reader ``obj``, one key per field, and close it.

    Keys and defaults come from the fields of ``cls``, and a field without a
    ``default`` is required; each value, a default too, is converted by
    :func:`_number` to its annotated type (``tuple``: of floats).
    """
    types = typing.get_type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        value = obj.read(f.name, f.default)
        typ = types[f.name]
        kwargs[f.name] = tuple(_number(v) for v in value) if typ is tuple else _number(value, typ)
    obj.close()
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
    single scenario file; a shifted seed must be nonnegative. Any invalid
    value raises :class:`ConfigError` naming the block it sits in.
    """
    block = "scenario"
    try:
        top = _Reader(doc, block)
        mode = top.read("mode")
        if mode not in ("free_camera", "uav"):
            raise ConfigError(f"scenario: unknown mode {mode!r}")
        mask = FULL_MASK if mode == "free_camera" else UAV_MASK

        block = "intrinsics"
        intrinsics = _parse_fields(CameraIntrinsics, _Reader(top.read("intrinsics"), block))

        block = "target"
        td = _Reader(top.read("target"), block)
        base = _floats(td.read("base_vertices"))
        if base.ndim != 2 or base.shape[1] != 2 or base.shape[0] < 3:
            raise ConfigError("target.base_vertices must be an (N, 2) list, N >= 3")
        ref = tuple(_number(v, int) for v in td.read("reference_pair", (0, 1)))
        if len(ref) != 2 or ref[0] == ref[1] or not all(0 <= i < len(base) for i in ref):
            raise ConfigError("target.reference_pair must be two distinct vertex indices")
        target_seed = _number(td.read("seed", 0), int) + seed_offset
        modes = []
        for i, entry in enumerate(td.read("modes", [])):
            block = f"target.modes[{i}]"
            md = _Reader(entry, block)
            kind = md.read("type")
            if kind not in _MODES:
                raise ConfigError(f"{block}: unknown mode type {kind!r}")
            modes.append(_parse_fields(_MODES[kind], md))
        td.close()

        block = "initial_pose"
        pd = _Reader(top.read("initial_pose"), block)
        position = _floats(pd.read("position"))
        if position.shape != (3,):
            raise ConfigError("initial_pose.position must have three entries")
        if position[2] <= 0.1:
            raise ConfigError("camera must start above the target plane (z > 0.1)")
        initial_yaw = _number(pd.read("yaw", 0.0))
        pd.close()

        block = "x_des"
        x_des = _floats(top.read("x_des"))
        if x_des.shape != (4,):
            raise ConfigError("x_des must have four entries")

        block = "ocp"
        od = _Reader(top.read("ocp"), block)
        ocp = OcpConfig(
            n=_number(od.read("horizon"), int),
            dt=_number(od.read("dt")),
            q=_floats(od.read("q")),
            r=_floats(od.read("r")),
            p=_floats(od.read("p")),
            visibility=VisibilityParams.from_intrinsics(intrinsics, _number(od.read("gamma"))),
            area_bounds=AreaBounds(
                sigma_min=_number(od.read("sigma_min")),
                sigma_max=_number(od.read("sigma_max")),
                delta=_number(od.read("delta")),
            ),
            limits=InputLimits(
                nu_max=tuple(_number(v) for v in od.read("nu_max")),
                omega_max=tuple(_number(v) for v in od.read("omega_max")),
            ),
            mask=mask,
        )
        od.close()
        block = "x_des"
        RecenteringAnchor(x_des, ocp.visibility, ocp.area_bounds)  # raises outside the safe set

        block = "disturbance"
        dd = _Reader(top.read("disturbance", {}), block)
        bound = _number(dd.read("bound", 0.0))
        if not bound >= 0:
            raise ConfigError("disturbance.bound must be nonnegative")
        dist_seed = _number(dd.read("seed", 0), int) + seed_offset
        dd.close()
        for blk, seed in (("target", target_seed), ("disturbance", dist_seed)):
            if seed < 0:
                raise ConfigError(f"{blk}: seed plus seed offset must be nonnegative, got {seed}")

        block = "duration"
        duration = _number(top.read("duration"))
        if not duration > 0:
            raise ConfigError("duration must be positive")

        estimator = top.read("estimator", "centroid_fd")
        if estimator not in ("centroid_fd", "none"):
            raise ConfigError(f"unknown estimator {estimator!r}")

        block = "convergence"
        conv = _parse_fields(ConvergenceSpec, _Reader(top.read("convergence", {}), block))

        name = top.read("name", name_hint)
        if not isinstance(name, str) or name in ("", ".", "..") or set(name) & {"/", "\\", "\x00"}:
            raise ConfigError(f"name must be a plain file stem, got {name!r}")
        top.close()
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
    """Read a batch file; a scenario that fails to parse at ``base_seed`` is a ConfigError."""
    path = Path(path)
    doc = _read_json(path)
    try:
        bd = _Reader(doc, "batch")
        scenarios = bd.read("scenarios")
        if not isinstance(scenarios, list) or not all(isinstance(p, str) for p in scenarios):
            raise ConfigError("batch: scenarios must be a list of file names")
        if not scenarios:
            raise ConfigError("batch: scenarios list is empty")
        paths = [path.parent / p for p in scenarios]
        stems = [p.stem for p in paths]
        if len(set(stems)) != len(stems):
            raise ConfigError("batch: scenario file stems must be unique")
        reps = _number(bd.read("repetitions", 1), int)
        if reps < 1:
            raise ConfigError("batch: repetitions must be at least 1")
        base_seed = _number(bd.read("base_seed", 0), int)
        bd.close()
        for p in paths:
            try:
                parse_scenario(_read_json(p), p.stem, seed_offset=base_seed)
            except (OSError, ConfigError) as exc:
                raise ConfigError(f"batch: scenario {p}: {exc}") from exc
    except _VALUE_ERRORS as exc:
        raise ConfigError(f"batch: {exc}") from exc
    return BatchSpec(
        scenario_paths=[str(p) for p in paths],
        repetitions=reps,
        base_seed=base_seed,
    )
