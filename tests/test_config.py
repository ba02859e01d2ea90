"""Config parsing: malformed documents raise ConfigError, never another error.

``parse_scenario`` and ``load_batch`` take documents from outside the
program. A wrong-typed, missing, unknown or out-of-range value must end in
:class:`ConfigError`, which the CLI reports with exit code 1. The property
tests mutate the reference configs under ``configs/`` one edit at a time:
swap a node for a value of another JSON type, drop a key, add an unknown
key, or replace an object with a non-object.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import polyservo
from polyservo.cli import main as cli_main
from polyservo.config import load_batch, load_scenario, parse_scenario
from polyservo.errors import ConfigError
from test_world import off_image_doc, tiny_scenario_doc

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SCENARIOS = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))}
BATCH = SCENARIOS.pop("batch_reference")
# Absolute scenario paths, so a mutated batch file can live anywhere.
BATCH["scenarios"] = [str(CONFIGS / name) for name in BATCH["scenarios"]]

PROPS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
json_values = st.recursive(
    _scalars,
    lambda kids: (
        st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4)
    ),
    max_leaves=8,
)


def _nodes(value, path=()):
    """Every path into a JSON value, the root included."""
    yield path
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _nodes(v, path + (i,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, reference):
    """``reference`` with one edit: swap, drop, add or non_object."""
    doc = copy.deepcopy(reference)
    paths = list(_nodes(doc))
    objects = [p for p in paths if isinstance(_get(doc, p), dict)]
    kind = draw(st.sampled_from(["swap", "drop", "add", "non_object"]))
    if kind == "add":
        _get(doc, draw(st.sampled_from(objects)))["unexpected_key"] = draw(json_values)
        return doc
    if kind == "drop":
        path = draw(st.sampled_from([p for p in paths[1:] if isinstance(_get(doc, p[:-1]), dict)]))
        del _get(doc, path[:-1])[path[-1]]
        return doc
    if kind == "swap":
        path = draw(st.sampled_from(paths))
        old = _get(doc, path)
        new = draw(json_values.filter(lambda v: type(v) is not type(old)))
    else:
        path = draw(st.sampled_from(objects))
        new = draw(json_values.filter(lambda v: not isinstance(v, dict)))
    if not path:
        return new
    _get(doc, path[:-1])[path[-1]] = new
    return doc


@PROPS
@given(st.sampled_from(sorted(SCENARIOS)), st.data())
def test_mutated_scenario_parses_or_raises_config_error(name, data):
    doc = data.draw(mutated(SCENARIOS[name]))
    try:
        parse_scenario(doc, name)
    except ConfigError:
        pass


@PROPS
@given(st.data())
def test_mutated_batch_loads_or_raises_config_error(tmp_path_factory, data):
    doc = data.draw(mutated(BATCH))
    spec = tmp_path_factory.mktemp("batch") / "batch.json"
    spec.write_text(json.dumps(doc))
    try:
        load_batch(spec)
    except ConfigError:
        pass


@settings(PROPS, max_examples=100)
@given(st.binary(max_size=64))
def test_garbage_file_raises_config_error(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("garbage") / "garbage.json"
    path.write_bytes(blob)
    for load in (load_scenario, load_batch):
        with pytest.raises(ConfigError):
            load(path)


WAVE = {"type": "traveling_wave", "amplitude": 0.01, "wavelength": 0.8, "speed": 0.1}


def _set(path, value):
    doc = tiny_scenario_doc()
    _get(doc, path[:-1])[path[-1]] = value
    return doc


# The cases of the three tables below are keyed by their test ids. Each id
# is written out, so deleting a case renames no other: the first cases keep
# the ids they were collected under, and a new case is named by its content.
BAD_VALUES = {
    "path0-abc": (("duration",), "abc"),
    "path1-abc": (("x_des",), "abc"),
    "path2-square": (("target", "base_vertices"), "square"),
    "path3-5": (("intrinsics",), 5),
    "path4-x": (("disturbance", "seed"), "x"),
    "path5-value5": (("target", "reference_pair"), ["a", 1]),
    "path6-value6": (("target", "reference_pair"), [0, 4]),
    "path7-value7": (("convergence",), {"window": "x"}),
    "path8-value8": (("convergence",), {"window": 0}),
    "path9-3": (("target", "modes"), 3),
    "path10-value10": (("target", "modes"), [{"type": "rigid_spin", "rate": [1.0]}]),
    "path11-value11": (("ocp", "solver"), {"max_iters": 1e400}),  # the solver has no settings
    # Numeric strings, booleans, non-integral ints and non-finite floats
    # are not numbers of the kind the field expects.
    "path12-2.5": (("duration",), "2.5"),
    "path13-True": (("intrinsics", "width"), True),
    "path14-5.9": (("ocp", "horizon"), 5.9),
    "path16-True": (("disturbance", "seed"), True),
    "path17-value17": (("ocp", "q"), ["1", "1", "1", "1"]),
    "path18-nan": (("intrinsics", "alpha_x"), float("nan")),
    "path19-value19": (("x_des",), [0.0, 0.0, float("inf"), 0.0]),
    # Target modes that cannot describe a target.
    "path20-value20": (("target", "modes"), [dict(WAVE, wavelength=0)]),
    "path21-value21": (("target", "modes"), [dict(WAVE, axis=[0.0, 0.0])]),
    "path22-value22": (("target", "modes"), [dict(WAVE, axis=[1.0, 0.0, 0.0])]),
    "path23-value23": (
        ("target", "modes"), [{"type": "rigid_drift", "velocity": [0.01, 0.0, 0.0]}]
    ),
    "path24-value24": (
        ("target", "modes"), [{"type": "breathing", "amplitude": 1.5, "frequency": 0.2}]
    ),
    # Values that parse as numbers but break a run: no time to run, a
    # horizon too short to hold the terminal step, a time step that does
    # not move, an angle threshold no run can meet.
    "path25-0": (("duration",), 0),
    "path26--3": (("ocp", "horizon"), -3),
    "path27--1.0": (("ocp", "dt"), -1.0),
    "path28-0.0": (("ocp", "dt"), 0.0),
    "path30-value30": (("convergence",), {"angle_deg": 0.0}),
    "path31-value31": (("convergence",), {"angle_deg": -2.0}),
    # A name that is not a plain file stem would write outside --out.
    "path32-5": (("name",), 5),
    "path33-": (("name",), ""),
    "path34-.": (("name",), "."),
    "path35-..": (("name",), ".."),
    "path36-../x": (("name",), "../x"),
    "path37-a/b": (("name",), "a/b"),
    "path38-a\\b": (("name",), "a\\b"),
    "path39-a\x00b": (("name",), "a\x00b"),  # the OS refuses it in a file name
    # Seeds for numpy's generators are nonnegative.
    "path40--1": (("disturbance", "seed"), -1),
    "path41--1": (("target", "seed"), -1),
    # A setpoint outside the safe set has no recentred barrier.
    "path42-value42": (("x_des",), [0.0, 0.0, 5.0, 0.0]),
}


@pytest.mark.parametrize("path, value", list(BAD_VALUES.values()), ids=list(BAD_VALUES))
def test_bad_value_raises_config_error(path, value):
    with pytest.raises(ConfigError, match=path[0]):
        parse_scenario(_set(path, value))


def test_integral_float_for_int_and_int_for_float_accepted():
    doc = tiny_scenario_doc(duration=2)
    doc["ocp"]["horizon"] = 5.0
    doc["target"]["seed"] = 3.0
    cfg = parse_scenario(doc)
    assert cfg.ocp.n == 5 and type(cfg.ocp.n) is int
    assert cfg.target_seed == 3 and type(cfg.target_seed) is int
    assert cfg.duration == 2.0 and type(cfg.duration) is float


def test_batch_rejects_boolean_repetitions(tmp_path):
    path = tmp_path / "batch.json"
    scenarios = [str(CONFIGS / "static_octagon.json")]
    path.write_text(json.dumps({"scenarios": scenarios, "repetitions": True}))
    with pytest.raises(ConfigError, match="batch"):
        load_batch(path)


def test_batch_scenarios_must_be_a_list_of_names(tmp_path):
    path = tmp_path / "batch.json"
    name = str(CONFIGS / "static_octagon.json")
    for scenarios in ({name: 3}, name, [name, 3]):
        path.write_text(json.dumps({"scenarios": scenarios}))
        with pytest.raises(ConfigError, match="list of file names"):
            load_batch(path)


FIXED_KEYS = {
    "path0": ("ocp", "solver"),  # the stopping rule's constants are fixed too
    "path1": ("ocp", "max_iters"),
    "path2": ("ocp", "grad_tol"),
    "path3": ("ocp", "decrement_tol"),
    "path4": ("ocp", "local_gain"),
    "path5": ("ocp", "local_damping"),
    "path6": ("ocp", "local_clamp"),
    "path7": ("ocp", "abar_limit"),
    "path8": ("ocp", "eps0"),  # the terminal radius is always the auto-fit
    "path9": ("depth",),  # the controller's depth is always the altimeter
    "path10": ("convergence", "centroid_frac"),  # grading thresholds in analysis
    "path11": ("convergence", "sigma_tol"),
    "path12": ("convergence", "barrier_margin"),
    "max_recovery_steps": ("max_recovery_steps",),  # a run aborts after 20
}


@pytest.mark.parametrize("path", list(FIXED_KEYS.values()), ids=list(FIXED_KEYS))
def test_fixed_solver_constants_are_unknown_keys(path):
    doc = tiny_scenario_doc(convergence={})
    _get(doc, path[:-1])[path[-1]] = 1.0
    with pytest.raises(ConfigError, match=f"unknown keys.*{path[-1]}"):
        parse_scenario(doc)


def _object_paths(doc):
    return [p for p in _nodes(doc) if isinstance(_get(doc, p), dict)]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_unknown_key_is_rejected_in_every_block(name):
    paths = _object_paths(SCENARIOS[name])
    assert len(paths) >= 7  # the scenario, intrinsics, target, ... convergence
    for path in paths:
        doc = copy.deepcopy(SCENARIOS[name])
        _get(doc, path)["unexpected_key"] = 1
        with pytest.raises(ConfigError, match="unknown keys.*unexpected_key"):
            parse_scenario(doc, name)


def test_unknown_key_is_rejected_in_the_batch_file(tmp_path):
    assert _object_paths(BATCH) == [()]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(dict(BATCH, unexpected_key=1)))
    with pytest.raises(ConfigError, match="unknown keys.*unexpected_key"):
        load_batch(path)


def test_misspelt_required_key_is_missing_and_misspelt_optional_key_unknown():
    doc = tiny_scenario_doc()
    doc["initial_pose"]["yaww"] = doc["initial_pose"].pop("yaw")
    with pytest.raises(ConfigError, match=r"initial_pose: unknown keys \['yaww'\]"):
        parse_scenario(doc)
    doc = tiny_scenario_doc()
    doc["ocp"]["horizn"] = doc["ocp"].pop("horizon")
    with pytest.raises(ConfigError, match="ocp: missing key 'horizon'"):
        parse_scenario(doc)


def test_defaults_come_from_the_dataclasses():
    cfg = parse_scenario(tiny_scenario_doc())
    wave = {"type": "traveling_wave", "amplitude": 0.01, "wavelength": 0.8, "speed": 0.1}
    doc = tiny_scenario_doc(convergence={"angle_deg": 3.0})
    doc["target"]["modes"] = [wave]
    custom = parse_scenario(doc)
    assert cfg.convergence.window == custom.convergence.window == 0.2
    assert custom.convergence.angle_deg == 3.0
    assert custom.target_modes[0].axis == (1.0, 0.0)


def _cli(*args, cwd):
    src = str(Path(polyservo.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "polyservo.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


MALFORMED_CLI = {
    "run-doc0": ("run", tiny_scenario_doc(duration="abc")),
    "diagnose-doc1": ("diagnose", tiny_scenario_doc(intrinsics=5)),
    "batch-doc2": (
        "batch", {"scenarios": [str(CONFIGS / "static_octagon.json")], "repetitions": "x"}
    ),
    "run-doc3": ("run", _set(("target", "modes"), [dict(WAVE, wavelength=0)])),
    "diagnose-doc4": ("diagnose", _set(("target", "modes"), [dict(WAVE, wavelength=0)])),
    "run-doc5": ("run", _set(("ocp", "solver"), {"max_iters": 30})),
    "run-doc7": ("run", _set(("name",), "../x")),
    "run-doc8": ("run", _set(("name",), "a\x00b")),
    "run-doc9": ("run", _set(("target", "seed"), -1)),
    "run-doc10": ("run", _set(("disturbance", "seed"), -1)),
    "batch-doc11": (
        "batch", {"scenarios": [str(CONFIGS / "static_octagon.json")], "base_seed": -100}
    ),
    "run-doc12": ("run", _set(("x_des",), [0.0, 0.0, 5.0, 0.0])),
}


@pytest.mark.parametrize("command, doc", list(MALFORMED_CLI.values()), ids=list(MALFORMED_CLI))
def test_cli_malformed_config_exits_one_without_traceback(tmp_path, command, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    res = _cli(command, str(path), cwd=tmp_path)
    assert res.returncode == 1
    assert "config error" in res.stderr
    assert "Traceback" not in res.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def test_cli_negative_seed_offset_exits_one_without_traceback(tmp_path):
    (tmp_path / "tiny.json").write_text(json.dumps(tiny_scenario_doc()))
    res = _cli("run", "tiny.json", "--seed", "-100", cwd=tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("config error: target: seed plus seed offset")
    assert "Traceback" not in res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.json"]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_batch_jobs_below_one_exits_one_without_traceback(tmp_path, jobs):
    (tmp_path / "tiny.json").write_text(json.dumps(tiny_scenario_doc()))
    (tmp_path / "spec.json").write_text(json.dumps({"scenarios": ["tiny.json"]}))
    res = _cli("batch", "spec.json", "--jobs", jobs, cwd=tmp_path)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == f"config error: --jobs must be at least 1, got {jobs}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json", "tiny.json"]


@pytest.mark.parametrize("command", ["run", "batch"])
def test_unusable_output_directory_exits_one_before_any_work(tmp_path, command):
    (tmp_path / "tiny.json").write_text(json.dumps(tiny_scenario_doc()))
    (tmp_path / "spec.json").write_text(json.dumps({"scenarios": ["tiny.json"]}))
    (tmp_path / "taken").write_text("")
    res = _cli(
        command, "spec.json" if command == "batch" else "tiny.json", "--out", "taken", cwd=tmp_path
    )
    assert res.returncode == 1
    assert res.stdout == ""
    [line] = res.stderr.splitlines()
    assert line.startswith("config error") and "'taken'" in line
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json", "taken", "tiny.json"]


def test_diagnose_setpoint_outside_safe_set_exits_one(tmp_path, capsys):
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(tiny_scenario_doc(x_des=[5.0, 0.0, -2.40795, 0.0])))
    assert cli_main(["diagnose", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: x_des: x_des must be strictly inside the safe set")


@pytest.mark.parametrize("command", ["run", "diagnose", "batch"])
def test_opening_frame_outside_image_exits_two_without_traceback(tmp_path, command):
    (tmp_path / "off.json").write_text(json.dumps(off_image_doc()))
    (tmp_path / "spec.json").write_text(json.dumps({"scenarios": ["off.json"]}))
    res = _cli(command, "spec.json" if command == "batch" else "off.json", cwd=tmp_path)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    if command == "batch":
        assert "off_rep000: failed: target vertex left the image" in res.stdout
    else:
        assert f"{command} failed: target vertex left the image" in res.stderr


def _batch_dir(tmp_path, second):
    """A batch of one good tiny scenario and ``second``, with short runs."""
    good = tiny_scenario_doc(duration=5.0)
    good["ocp"]["horizon"] = 4
    (tmp_path / "good.json").write_text(json.dumps(good))
    (tmp_path / "second.json").write_text(json.dumps(second))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"scenarios": ["good.json", "second.json"]}))
    return spec


def test_batch_with_malformed_scenario_exits_one_before_any_session(tmp_path):
    spec = _batch_dir(tmp_path, tiny_scenario_doc(unexpected_key=1))
    with pytest.raises(ConfigError, match="second.json.*unexpected_key"):
        load_batch(spec)
    res = _cli("batch", str(spec), cwd=tmp_path)
    assert res.returncode == 1
    assert "config error" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "out").exists()


def test_batch_records_failed_session_and_exits_two(tmp_path):
    res = _cli("batch", str(_batch_dir(tmp_path, off_image_doc())), cwd=tmp_path)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "second_rep000: failed: target vertex left the image" in res.stdout
    assert "good_rep000: ok" in res.stdout
    assert (tmp_path / "out" / "good_rep000.csv").exists()
    assert (tmp_path / "out" / "aggregate.csv").exists()
    assert not (tmp_path / "out" / "second_rep000.csv").exists()
