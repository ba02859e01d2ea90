#!/usr/bin/env python3
"""Layered closed-loop benchmark of polyservo.

Run from the repository root (no install needed; ``src/`` goes on the path):

    python3 bench/run.py --workload uav_wave --seed 0 --seconds 40 --trace 0

Workloads. Session ``k`` of a scenario takes ``--seed + k`` as its
``seed_offset``, the way ``run_batch`` numbers repetitions; each run
executes a fixed plan, so solver counts repeat exactly for a seed.

- ``uav_wave``: two serial sessions of ``configs/fig8_uav_wave.json``, the
  second cut to 80 steps (200 distinct solves, so 10 lie beyond p95; a
  cut session counts as failed only if it aborts, and has no steady-state
  error). Under-actuated 4-input mask, travelling wave plus
  drift, centroid-flow estimator; most solves stop at ``max_iters``, so
  solver-iteration and kernel changes show most here.
- ``pentagon_free``: one serial session of ``configs/fig4_free_pentagon.json``
  (250 solves). Full 6-DOF, wider gradient batches, mostly converging
  solves: a change that helps stalled solves but costs converging ones
  shows here.
- ``regulate_batch``: ``run_batch`` over ``robust_octagon``,
  ``static_octagon`` and ``perf_12gon`` at two seeds each, with ``jobs``
  equal to the usable CPU count (520 solves). Solves stop after a few
  iterations, so per-solve and per-session fixed costs (rollouts, local
  controller, diagnostics, output writing, the worker pool) weigh most; an
  iteration-count change should barely move it.

After the main sessions, the first session of each scenario is repeated
in-process for 5 steps, and its CSV must equal the first rows of the
original byte for byte. Repeats stay out of the latency pool, which holds
each distinct solve of the main sessions once.

``--trace 0`` measures the end-to-end metrics with only the step hook of
:mod:`hooks` installed. ``setup_s`` is the median import time of numpy
and polyservo, over this process and a few fresh interpreters, plus the
median, over the untraced in-process sessions, of the time from the
``load_scenario`` call to the first controller step. ``ctrl_ms_p50`` and
``ctrl_ms_p95`` are percentiles of the process CPU time of each controller
step (with one BLAS thread, the compute a control period needs); the
wall-clock percentiles are printed beside them but carry no bound.

``--trace 1`` prints the per-layer metrics. The serial workloads trace
their main sessions. ``regulate_batch`` runs its untraced batch first, for
``analysis.worker_busy_frac``, then the same sessions traced in-process
(``jobs=1``), whose CSVs must equal the untraced ones. Two more 30-step
repeats of the first scenario then trace alternate loop iterations, one the
even and one the odd ones, and ``trace.overhead_frac`` compares each
iteration traced against the same iteration untraced (see
:func:`trace_overhead`). Wrappers stay installed in the untraced
iterations; they then only check a flag and call through.

Every run checks each accepted solve against the public ``total_cost``
oracle and against its warm start. Metric names and units are read from
``BENCHMARK.json``. Solver and tracking quality (``max_iters_frac``,
``failed_frac``, ``tracking_err_px``, ``angle_err_deg``) are printed by
every run but listed there as per-layer metrics: they are zero or
seed-dependent on some workloads, so they carry no regression bound.
``realtime_factor`` and ``sessions_per_min`` are reported for every
workload. The kernel metrics hook the private ``_OcpKernel`` and read null
once it is gone. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when a check fails and 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
OUT_ROOT = ROOT / ".bench_out"
REPEAT_STEPS = 5
# Steps of each of the two crossed repeats that measure tracing overhead.
CROSSED_STEPS = 30
# Fresh interpreters that time the package import again for setup_s.
IMPORT_REPEATS = 2
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import numpy, polyservo, polyservo.analysis; print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class Workload:
    scenarios: tuple  # stems under configs/
    sessions: int  # sessions per scenario
    batch: bool
    last_steps: int | None = None  # cut the last session of a scenario to this many steps


WORKLOADS = {
    "uav_wave": Workload(("fig8_uav_wave",), sessions=2, batch=False, last_steps=80),
    "pentagon_free": Workload(("fig4_free_pentagon",), sessions=1, batch=False),
    "regulate_batch": Workload(
        ("robust_octagon", "static_octagon", "perf_12gon"), sessions=2, batch=True
    ),
}

# Metric names, units and bounds live in BENCHMARK.json at the repository root.
SPEC_FILE = ROOT / "BENCHMARK.json"


@dataclass
class Session:
    csv: Path
    steps: int
    dt: float
    converged: bool
    aborted: str | None
    sse: dict | None
    full: bool = True  # ran for the scenario's whole duration
    # In-process sessions only:
    wall_s: float | None = None  # load + run + write
    setup_s: float | None = None  # load_scenario call to the first step
    sid: str | None = None  # StepRecorder session id


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="nominal measured time; each workload's plan is fixed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-steps", type=int, default=None,
                    help="truncate every session to this many steps (self-test)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "polyservo" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"bench: polyservo sources not found under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    # One BLAS thread per process: a batch with jobs = nproc then runs at
    # most nproc threads. Set before numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    load_avg = os.getloadavg()
    t_start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    global np, polyservo, analysis, hooks
    import numpy as np
    import polyservo
    from polyservo import analysis

    import_s = statistics.median([time.perf_counter() - t_start] + fresh_imports())
    import hooks

    wl = WORKLOADS[args.workload]
    out = OUT_ROOT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        record = run(wl, args, out, units, import_s)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    record["provenance"] = provenance(args, load_avg)
    record["elapsed_s"] = time.perf_counter() - t_start

    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name, (value, unit) in record["all_metrics"].items():
        print(f"  {name:<46} {value!r} {unit}")
    print(f"  ctrl samples {record['ctrl_samples']} distinct solves,"
          f" {record['ctrl_beyond_p95']} beyond p95; wall-clock p50/p95"
          f" {record['ctrl_wall_ms'][0]:.1f}/{record['ctrl_wall_ms'][1]:.1f} ms;"
          f" run took {record['elapsed_s']:.1f} s")
    for name, ok in record["checks"].items():
        print(f"  check {name:<40} {'ok' if ok else 'FAILED'}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": all(record["checks"].values()),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            n: {"value": record["all_metrics"][n][0], "unit": u} for n, u in wanted.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def fresh_imports() -> list:
    """Seconds to import numpy and polyservo, once in each of a few fresh interpreters."""
    return [
        float(subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        ).stdout)
        for _ in range(IMPORT_REPEATS)
    ]


def run(wl: Workload, args, out: Path, units: dict, import_s: float) -> dict:
    paths = [ROOT / "configs" / f"{stem}.json" for stem in wl.scenarios]
    tracer = hooks.Tracer() if args.trace else None
    jobs = len(os.sched_getaffinity(0)) if wl.batch else 1
    # Serial workloads trace their main sessions; the batch stays untraced and
    # is traced afterwards as a second, in-process batch.
    trace_main = tracer is not None and not wl.batch
    rec = hooks.StepRecorder(out)
    rec.install()
    try:
        rec.phase = "main"
        batch_wall = None
        with tracer.active(rec) if trace_main else contextlib.nullcontext():
            if wl.batch:
                t0 = time.perf_counter()
                sessions = run_batch(paths, wl.sessions, args, out / "main", jobs)
                batch_wall = time.perf_counter() - t0
            else:
                sessions = []
                for path in paths:
                    for k in range(wl.sessions):
                        steps = wl.last_steps if k == wl.sessions - 1 else None
                        sessions.append(run_serial(
                            path, args.seed + k, args, out / f"main{len(sessions)}", rec, steps
                        ))
        traced = sessions if trace_main else []
        if tracer is not None and wl.batch:
            rec.phase = "traced"
            with tracer.active(rec):
                traced = run_batch(paths, wl.sessions, args, out / "traced", 1)
        n_plan_spans = len(tracer.spans) if tracer is not None else 0
        rec.phase = "repeat"
        repeats = [  # (index into paths, Session)
            (i, run_serial(path, args.seed, args, out / f"repeat{i}", rec, steps=REPEAT_STEPS))
            for i, path in enumerate(paths)
        ]
        crossed = []
        if tracer is not None:
            # Two more repeats of the first scenario; the first traces its even
            # loop iterations, the second its odd ones.
            with tracer.active(rec):
                for parity in (0, 1):
                    rec.trace_parity = parity
                    crossed.append(run_serial(
                        paths[0], args.seed, args, out / f"crossed{parity}", rec,
                        steps=CROSSED_STEPS,
                    ))
                rec.trace_parity = None
    finally:
        rec.uninstall()

    records = rec.records()
    by_sid = {}
    for r in records:
        by_sid.setdefault(r.sid, []).append(r)
    main_records = [r for r in records if r.phase == "main"]
    ctrl = np.array([r.ctrl_cpu_s for r in main_records])
    ctrl_wall = np.array([r.ctrl_s for r in main_records])
    repeated = repeats + [(0, s) for s in crossed]
    ran = sessions + (traced if wl.batch else []) + [s for _, s in repeated]
    same_csv = all(
        csv_matches(sessions[i * wl.sessions].csv, s.csv, s.steps) for i, s in repeated
    )
    if wl.batch and tracer is not None:
        same_csv = same_csv and all(
            a.csv.read_bytes() == b.csv.read_bytes() for a, b in zip(sessions, traced)
        )
    checks = {
        "oracle_total_cost": all(r.oracle_rel <= hooks.ORACLE_RTOL for r in records),
        "solved_cost_le_warm_start": all(r.warm_ok for r in records),
        "repeat_csv_byte_identical": same_csv,
        "every_step_checked": len(records) == sum(s.steps for s in ran)
        and any(r.checked for r in records),
    }

    failed = sum(1 for s in sessions if s.aborted or (s.full and not s.converged))
    untraced_setups = [s.setup_s for s in sessions if not trace_main] + [
        s.setup_s for _, s in repeats
    ]
    metrics = {
        "setup_s": import_s + statistics.median(x for x in untraced_setups if x is not None)
    }
    metrics.update(end_to_end(sessions, main_records, jobs, batch_wall))
    metrics["failed_frac"] = failed / len(sessions)
    if tracer is not None:
        plan_phase = "traced" if wl.batch else "main"
        metrics.update(layer_metrics(
            tracer.spans[:n_plan_spans],
            tracer.missing,
            [r for r in records if r.phase == plan_phase],
            sessions[0].dt,
        ))
        metrics["trace.overhead_frac"] = trace_overhead(*(by_sid[s.sid] for s in crossed))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": len(sessions),
        "failed": failed,
        "checks": checks,
        "ctrl_samples": len(ctrl),
        "ctrl_beyond_p95": int(np.sum(ctrl > np.percentile(ctrl, 95))),
        "ctrl_wall_ms": [float(np.percentile(ctrl_wall, q)) * 1e3 for q in (50, 95)],
        "all_metrics": {n: (v, units[n]) for n, v in metrics.items()},
    }


def run_serial(path, seed, args, out: Path, rec, steps=None) -> Session:
    t0 = time.perf_counter()
    cfg = polyservo.load_scenario(path, seed_offset=seed)
    caps = [n for n in (steps, args.max_steps) if n is not None]
    if caps:
        cfg.duration = min(cfg.duration, min(caps) * cfg.ocp.dt)
    n0 = len(rec.rows)
    log = polyservo.run_scenario(cfg)
    csv = Path(analysis.write_run_outputs(log, cfg, out, plots=False))
    wall = time.perf_counter() - t0
    first = rec.rows[n0] if len(rec.rows) > n0 else None
    return Session(
        csv=csv,
        steps=log.n_steps,
        dt=cfg.ocp.dt,
        converged=analysis.convergence_ok(log, cfg),
        aborted=log.aborted,
        sse=steady_state(log, cfg) if steps is None else None,
        full=steps is None,
        wall_s=wall,
        setup_s=first.t_in - t0 if first is not None else None,
        sid=first.sid if first is not None else None,
    )


def steady_state(log, cfg):
    try:
        return analysis.steady_state_error(log, cfg.convergence.window)
    except polyservo.errors.ShortRun:
        return None


def run_batch(paths, repetitions, args, out: Path, jobs: int) -> list:
    """``run_batch`` over the workload's scenarios through a generated batch file."""
    out.mkdir(parents=True)
    if args.max_steps is not None:
        (out / "scenarios").mkdir()
        copies = []
        for p in paths:
            doc = json.loads(p.read_text())
            doc["duration"] = min(doc["duration"], args.max_steps * doc["ocp"]["dt"])
            copies.append(out / "scenarios" / p.name)
            copies[-1].write_text(json.dumps(doc))
        paths = copies
    batch_file = out / "batch.json"
    batch_file.write_text(json.dumps({
        "scenarios": [str(p) for p in paths],
        "repetitions": repetitions,
        "base_seed": args.seed,
    }))
    spec = polyservo.load_batch(batch_file)
    res = analysis.run_batch(spec, out / "batch", jobs=jobs)
    sessions = []
    for (path, _, _), r in zip(spec.sessions(), res["sessions"]):
        dt = float(json.loads(Path(path).read_text())["ocp"]["dt"])
        csv = Path(r["csv"])
        sessions.append(Session(
            csv=csv,
            steps=csv.read_bytes().count(b"\n") - 1,
            dt=dt,
            converged=r["converged"],
            aborted=r["aborted"],
            sse=r["sse"],
        ))
    return sessions


def csv_matches(a: Path, b: Path, steps: int) -> bool:
    """``b`` equals the header plus the first ``steps`` rows of ``a``, byte for byte."""
    want = b"".join(a.read_bytes().splitlines(keepends=True)[: steps + 1])
    return b.read_bytes() == want


def loop_seconds(recs) -> float:
    """Closed-loop host time from the first step's start to the last step's end, less checks."""
    return recs[-1].t_out - recs[0].t_in - sum(r.check_s for r in recs)


def trace_overhead(even, odd) -> float:
    """Traced over untraced host time of a loop iteration, less one.

    ``even`` and ``odd`` are the step records of two runs of the same
    steps, which traced their even and their odd loop iterations. Each pair
    of iterations ``(2j, 2j + 1)`` then ran once traced and once untraced in
    each run, next to each other in time, so host slowdowns that last longer
    than a step cancel; the median over pairs keeps one slow step from
    deciding the figure.
    """

    def iterations(recs):
        return np.array([b.t_in - a.t_in - a.check_s for a, b in zip(recs, recs[1:])])

    a, b = iterations(even), iterations(odd)
    n = min(len(a), len(b)) // 2 * 2
    traced = a[0:n:2] + b[1:n:2]
    untraced = a[1:n:2] + b[0:n:2]
    return float(np.median(traced / untraced)) - 1.0


def end_to_end(sessions, records, jobs, batch_wall) -> dict:
    """Latency, throughput and quality of the main sessions from their step records."""
    by_sid = {}
    for r in records:
        by_sid.setdefault(r.sid, []).append(r)
    loop_s = sum(loop_seconds(recs) for recs in by_sid.values())
    check_s = sum(r.check_s for r in records)
    if batch_wall is not None:
        busy_s = batch_wall - check_s / jobs
    else:
        busy_s = sum(s.wall_s for s in sessions) - check_s
    # Process CPU time of each step: the compute a control period needs. Wall
    # time also counts the periods the host runs other work on this CPU,
    # which on a shared host fattens the tail by up to 1.4x.
    ctrl_ms = np.array([r.ctrl_cpu_s for r in records]) * 1e3
    solves = [r for r in records if r.status != "recovered"]
    sse = [s.sse for s in sessions if s.sse is not None]
    return {
        "realtime_factor": sum(s.steps * s.dt for s in sessions) / loop_s,
        "sessions_per_min": 60.0 * len(sessions) / busy_s,
        # Share of the workers' capacity spent inside control loops.
        "analysis.worker_busy_frac": loop_s / (jobs * busy_s),
        "ctrl_ms_p50": float(np.percentile(ctrl_ms, 50)),
        "ctrl_ms_p95": float(np.percentile(ctrl_ms, 95)),
        "iters_per_solve": float(np.mean([r.iters for r in solves])),
        "max_iters_frac": sum(r.status == "max_iters" for r in solves) / len(solves),
        "tracking_err_px": float(np.mean([np.hypot(e["ex_px"], e["ey_px"]) for e in sse]))
        if sse else float("nan"),
        "angle_err_deg": float(np.mean([e["eang_deg"] for e in sse])) if sse else float("nan"),
        "peak_rss_mb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ) / 1024.0,
    }


def layer_metrics(spans, missing, records, dt) -> dict:
    """Per-layer metrics of the traced plan: its spans and its step records."""
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def dur_ms(name):
        return [spans[i].dur * 1e3 for i in by_name.get(name, [])]

    def total_ms(name):
        return float(sum(dur_ms(name)))

    def median_ms(name):
        d = dur_ms(name)
        return float(np.median(d)) if d else float("nan")

    m = {}
    kname = "nmpc._OcpKernel.cost"
    if kname in missing:
        for key in ("calls", "rows", "us_per_row", "ms_total"):
            m[f"nmpc.kernel.{key}"] = None
        m["nmpc.linesearch.batches"] = m["nmpc.linesearch.rejected_rows_frac"] = None
    else:
        kernel = [spans[i] for i in by_name.get(kname, [])]
        rows = sum(s.rows for s in kernel)
        m["nmpc.kernel.calls"] = len(kernel)
        m["nmpc.kernel.rows"] = rows
        m["nmpc.kernel.ms_total"] = total_ms(kname)
        m["nmpc.kernel.us_per_row"] = 1e3 * m["nmpc.kernel.ms_total"] / rows if rows else None
        ls = [s for s in kernel if s.parent >= 0 and spans[s.parent].name == "nmpc.solve_ocp"]
        ls_rows = sum(s.rows for s in ls)
        m["nmpc.linesearch.batches"] = len(ls)
        m["nmpc.linesearch.rejected_rows_frac"] = (
            sum(s.rejected for s in ls) / ls_rows if ls_rows else 0.0
        )
    m["nmpc.gradient.calls"] = len(by_name.get("nmpc._OcpKernel.gradient", []))
    m["nmpc.gradient.ms_total"] = total_ms("nmpc._OcpKernel.gradient")
    solve = dur_ms("nmpc.solve_ocp")
    m["nmpc.solve_ocp.ms_p50"] = float(np.percentile(solve, 50))
    m["nmpc.solve_ocp.ms_p95"] = float(np.percentile(solve, 95))
    for status in ("converged", "max_iters", "no_descent"):
        m[f"nmpc.status.{status}"] = sum(r.status == status for r in records)
    m["nmpc.deadline_miss_frac"] = sum(r.ctrl_s > dt for r in records) / len(records)
    m["nmpc.rollout.calls"] = len(by_name.get("nmpc.rollout", []))
    m["nmpc.rollout.ms_total"] = total_ms("nmpc.rollout")
    m["nmpc.warm_start.ms_total"] = total_ms("nmpc.RecedingHorizonController.warm_start")
    m["nmpc.compute_diagnostics.ms"] = median_ms("nmpc.compute_diagnostics")
    m["config.load_scenario.ms"] = median_ms("config.load_scenario")
    for name in (
        "nmpc.local_controller_h",
        "polygon.propagate_discrete",
        "polygon.extract_state",
        "world.step_world",
        "targets.DeformableTarget.sample",
        "targets.CentroidFlowEstimator.update",
        "camera.interaction_matrices",
        "analysis.write_run_outputs",
    ):
        m[f"{name}.ms_total"] = total_ms(name)

    child_ms = {}
    for s in spans:
        if s.parent >= 0:
            child_ms[s.parent] = child_ms.get(s.parent, 0.0) + s.dur * 1e3
    m["world.run_scenario.self_ms"] = float(sum(
        spans[i].dur * 1e3 - child_ms.get(i, 0.0) for i in by_name.get("world.run_scenario", [])
    ))

    session_s = {}
    for s in spans:
        if s.session > 0:
            lo, hi = session_s.get(s.session, (s.start, s.end))
            session_s[s.session] = (min(lo, s.start), max(hi, s.end))
    lengths = [hi - lo for lo, hi in session_s.values()]
    m["analysis.session_s_p50"] = float(np.median(lengths))
    return m


def provenance(args, load_avg) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    sha = "unknown"  # also when ROOT is not itself a git work tree
    try:
        top_sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if len(top_sha) == 2 and Path(top_sha[0]).resolve() == ROOT:
            sha = top_sha[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "max_steps": args.max_steps,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_avg),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_sha": sha,
        "machine": platform.machine(),
    }


if __name__ == "__main__":
    sys.exit(main())
