import concurrent.futures
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polyservo
from polyservo.analysis import (
    STAT_VARIABLES,
    aggregate_sessions,
    run_batch,
    steady_state_error,
    write_run_outputs,
)
from polyservo.cli import main as cli_main
from polyservo.config import load_batch, load_scenario, parse_scenario
from polyservo.errors import ConfigError, ShortRun
from polyservo.svg import bar_chart, line_chart
from polyservo.world import SimLog, run_scenario
from test_world import tiny_scenario_doc, unrecoverable_doc


def synthetic_log(n=100, tail_value=0.05):
    cols = {
        name: np.zeros(n)
        for name in (
            "t sx sy sigbar abar ex ey esig eang L1 L2 vx vy vz wx wy wz cost".split()
        )
    }
    cols["t"] = np.arange(n) * 0.1
    cols["L1"] = np.ones(n)
    cols["L2"] = np.ones(n)
    cols["iters"] = np.zeros(n, dtype=int)
    cols["feasible"] = np.ones(n, dtype=int)
    k = int(0.2 * n)
    for name in ("ex", "ey", "esig", "eang"):
        cols[name][-k:] = tail_value
    return SimLog(columns=cols, meta={"alpha_x": 500.0, "alpha_y": 500.0})


class TestSteadyState:
    def test_zero_trace(self):
        log = synthetic_log(tail_value=0.0)
        sse = steady_state_error(log)
        assert all(v == 0.0 for v in sse.values())

    def test_constructed_tail_mean(self):
        log = synthetic_log(tail_value=0.05)
        sse = steady_state_error(log, window=0.2)
        assert sse["ex"] == pytest.approx(0.05)
        assert sse["ex_px"] == pytest.approx(25.0)
        assert sse["eang_deg"] == pytest.approx(0.05)

    def test_full_window_is_whole_mean(self):
        log = synthetic_log(n=50, tail_value=0.1)
        sse = steady_state_error(log, window=1.0)
        assert sse["esig"] == pytest.approx(np.abs(log.columns["esig"]).mean())

    def test_short_run_rejected(self):
        log = synthetic_log(n=20)
        with pytest.raises(ShortRun):
            steady_state_error(log, window=0.2)


class TestAggregation:
    def test_identical_sessions_zero_std(self):
        s = {name: 0.3 for name in STAT_VARIABLES}
        stats = aggregate_sessions([dict(s) for _ in range(8)])
        for name in STAT_VARIABLES:
            v = stats[name]
            assert v["std"] == 0.0
            assert v["mean"] == v["min"] == v["max"] == 0.3

    def test_mean_matches_hand_computation(self):
        vals = [0.1, 0.2, 0.7]
        sessions = [{name: v for name in STAT_VARIABLES} for v in vals]
        stats = aggregate_sessions(sessions)
        assert stats["esig"]["mean"] == pytest.approx(sum(vals) / 3)
        assert stats["esig"]["min"] == pytest.approx(0.1)
        assert stats["esig"]["max"] == pytest.approx(0.7)


class TestSvg:
    def test_line_chart_deterministic(self, tmp_path):
        ts = np.linspace(0, 1, 30)
        panels = [("a", [("x", np.sin(ts))]), ("b", [("y", np.cos(ts))])]
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        line_chart(p1, ts, panels)
        line_chart(p2, ts, panels)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().startswith("<svg")

    def test_bar_chart_written(self, tmp_path):
        p = tmp_path / "bars.svg"
        bar_chart(p, [("ex", 1.0, 0.2, 0.5, 1.5), ("ey", 0.8, 0.1, 0.6, 1.0)])
        text = p.read_text()
        assert text.count("<rect") >= 3
        assert "ex" in text and "ey" in text


def write_tiny_config(path, **overrides):
    doc = tiny_scenario_doc(**overrides)
    Path(path).write_text(json.dumps(doc))
    return doc


class TestCliRun:
    def test_run_writes_csv_and_exits_zero(self, tmp_path):
        cfg_path = tmp_path / "tiny.json"
        write_tiny_config(cfg_path, duration=5.0)
        out = tmp_path / "out"
        rc = cli_main(["run", str(cfg_path), "--out", str(out)])
        assert rc == 0
        assert (out / "tiny.csv").exists()
        assert (out / "tiny.meta.json").exists()
        assert (out / "tiny.errors.svg").exists()

    def test_malformed_json_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = cli_main(["run", str(bad)])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_exit_one(self, tmp_path):
        cfg_path = tmp_path / "extra.json"
        doc = tiny_scenario_doc()
        doc["surprise"] = 1
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["run", str(cfg_path)]) == 1

    def test_no_plots_flag(self, tmp_path):
        cfg_path = tmp_path / "tiny.json"
        write_tiny_config(cfg_path, duration=5.0)
        out = tmp_path / "out"
        rc = cli_main(["run", str(cfg_path), "--out", str(out), "--no-plots"])
        assert rc == 0
        assert (out / "tiny.csv").exists()
        assert not (out / "tiny.errors.svg").exists()

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "tiny.json"
        write_tiny_config(cfg_path, duration=5.0)
        env_out = tmp_path / "envout"
        monkeypatch.setenv("POLYSERVO_OUT", str(env_out))
        rc = cli_main(["run", str(cfg_path), "--no-plots"])
        assert rc == 0
        assert (env_out / "tiny.csv").exists()

    def test_seeded_runs_identical(self, tmp_path):
        cfg_path = tmp_path / "tiny.json"
        write_tiny_config(cfg_path, duration=1.5, disturbance={"bound": 0.002, "seed": 3})
        outs = []
        for tag in ("o1", "o2"):
            out = tmp_path / tag
            # Too short to grade convergence; only byte-identity matters here.
            rc = cli_main(["run", str(cfg_path), "--out", str(out), "--no-plots", "--seed", "5"])
            assert rc in (0, 2)
            outs.append((out / "tiny.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "doc, rc, stdout, stderr",
        [
            (
                tiny_scenario_doc(duration=5.0),
                0,
                [
                    r"steady-state \|err\|: ex=\d+\.\d\dpx ey=\d+\.\d\dpx "
                    r"esig=\d+\.\d{4} eang=\d+\.\d{3}deg",
                    "wrote {csv}",
                    "converged",
                ],
                [],
            ),
            # 15 steps: a 0.2 window holds 3 samples, too few to grade.
            (tiny_scenario_doc(duration=1.5), 2, ["wrote {csv}", "did not converge"], []),
            (unrecoverable_doc(), 2, ["wrote {csv}"], ["aborted: unrecoverable infeasibility.*"]),
        ],
        ids=["converged", "too_short", "aborted"],
    )
    def test_run_report(self, tmp_path, capsys, doc, rc, stdout, stderr):
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_main(["run", str(cfg_path), "--out", str(out), "--no-plots"]) == rc
        cap = capsys.readouterr()
        csv = re.escape(str(out / f"{doc['name']}.csv"))
        for text, patterns in ((cap.out, stdout), (cap.err, stderr)):
            lines = text.splitlines()
            assert len(lines) == len(patterns), text
            for line, pattern in zip(lines, patterns):
                assert re.fullmatch(pattern.replace("{csv}", csv), line), line

    def test_diagnose_prints_bundle(self, tmp_path, capsys):
        cfg_path = tmp_path / "tiny.json"
        write_tiny_config(cfg_path)
        rc = cli_main(["diagnose", str(cfg_path)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["L_f"] > 0 and out["xi_max"] > 0


class TestCliBatch:
    def test_full_protocol_counts(self, tmp_path):
        # Five target variants, ten seeded sessions each: fifty per-session
        # logs plus one aggregate table and a summary chart.
        scen_dir = tmp_path / "scen"
        scen_dir.mkdir()
        names = []
        for i in range(5):
            doc = tiny_scenario_doc(duration=5.0)
            doc["ocp"]["horizon"] = 4
            doc["initial_pose"]["yaw"] = 0.03 + 0.02 * i
            doc["disturbance"] = {"bound": 0.001, "seed": 10 + i}
            (scen_dir / f"target{i}.json").write_text(json.dumps(doc))
            names.append(f"target{i}.json")
        spec_path = scen_dir / "spec.json"
        spec_path.write_text(
            json.dumps({"scenarios": names, "repetitions": 10, "base_seed": 50})
        )
        out = tmp_path / "batch_out"
        rc = cli_main(["batch", str(spec_path), "--out", str(out), "--jobs", "4"])
        csvs = sorted(out.glob("target*_rep*.csv"))
        assert len(csvs) == 50
        assert (out / "aggregate.csv").exists()
        assert (out / "summary.svg").exists()
        assert rc in (0, 2)

    def test_aggregate_recomputable_from_sessions(self, tmp_path):
        scen_dir = tmp_path / "scen"
        scen_dir.mkdir()
        doc = tiny_scenario_doc(duration=5.0)
        (scen_dir / "one.json").write_text(json.dumps(doc))
        spec_path = scen_dir / "spec.json"
        spec_path.write_text(json.dumps({"scenarios": ["one.json"], "repetitions": 3, "base_seed": 7}))
        spec = load_batch(spec_path)
        out = tmp_path / "out"
        summary = run_batch(spec, out, jobs=1)
        per = [r["sse"] for r in summary["sessions"]]
        means = {n: np.mean([s[n] for s in per]) for n in STAT_VARIABLES}
        for name in STAT_VARIABLES:
            assert summary["stats"][name]["mean"] == pytest.approx(means[name])

    def test_session_sse_uses_scenario_window(self, tmp_path):
        # 20 steps: a 0.5 window holds 10 samples, a 0.2 window too few.
        scen_dir = tmp_path / "scen"
        scen_dir.mkdir()
        doc = tiny_scenario_doc(duration=2.0, convergence={"window": 0.5})
        (scen_dir / "wide.json").write_text(json.dumps(doc))
        spec_path = scen_dir / "spec.json"
        spec_path.write_text(json.dumps({"scenarios": ["wide.json"], "base_seed": 3}))
        summary = run_batch(load_batch(spec_path), tmp_path / "out", jobs=1)
        log = run_scenario(load_scenario(scen_dir / "wide.json", seed_offset=3))
        assert summary["sessions"][0]["sse"] == steady_state_error(log, 0.5)

    def test_batch_spec_validation(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"scenarios": [], "repetitions": 2}))
        with pytest.raises(ConfigError):
            load_batch(p)
        p.write_text(json.dumps({"scenarios": ["missing.json"]}))
        with pytest.raises(ConfigError):
            load_batch(p)

    def test_batch_continues_past_aborts(self, tmp_path):
        scen_dir = tmp_path / "scen"
        scen_dir.mkdir()
        good = tiny_scenario_doc(duration=2.0)
        bad = tiny_scenario_doc(duration=4.0)
        bad["target"]["modes"] = [{"type": "rigid_drift", "velocity": [1.5, 0.0]}]
        bad["ocp"]["nu_max"] = [0.05, 0.05, 0.05]
        (scen_dir / "good.json").write_text(json.dumps(good))
        (scen_dir / "bad.json").write_text(json.dumps(bad))
        spec_path = scen_dir / "spec.json"
        spec_path.write_text(
            json.dumps({"scenarios": ["good.json", "bad.json"], "repetitions": 1})
        )
        summary = run_batch(load_batch(spec_path), tmp_path / "out", jobs=1)
        assert summary["n_sessions"] == 2
        aborted = [r for r in summary["sessions"] if r["aborted"]]
        assert len(aborted) == 1

    def test_jobs_clamped_to_session_count(self, tmp_path, monkeypatch):
        # A stand-in pool that records its size and maps serially, so the
        # test starts no process.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # run_batch imports the pool from concurrent.futures when it needs one.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        scen_dir = tmp_path / "scen"
        scen_dir.mkdir()
        (scen_dir / "one.json").write_text(json.dumps(tiny_scenario_doc(duration=0.3)))
        spec_path = scen_dir / "spec.json"
        for reps, expected in ((2, [2]), (1, [])):
            sizes.clear()
            spec_path.write_text(json.dumps({"scenarios": ["one.json"], "repetitions": reps}))
            summary = run_batch(load_batch(spec_path), tmp_path / "out", jobs=8)
            assert summary["n_sessions"] == reps
            assert sizes == expected


class TestVersionFlag:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--version"])
        assert exc.value.code == 0
        assert "polyservo" in capsys.readouterr().out


def test_import_loads_no_process_pool():
    # Only run_batch with jobs > 1 starts workers; importing the module in a
    # fresh interpreter (each CLI call, each batch worker) leaves
    # multiprocessing and its socket and logging imports unloaded.
    src = str(Path(polyservo.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", "import sys, polyservo.analysis; print('multiprocessing' in sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
