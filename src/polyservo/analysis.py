"""Steady-state statistics, convergence checks, and batch aggregation."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .config import BatchSpec, ScenarioConfig, load_scenario
from .errors import PolyServoError, ShortRun
from .svg import bar_chart, line_chart
from .world import SimLog, run_scenario

__all__ = [
    "steady_state_error",
    "convergence_ok",
    "aggregate_sessions",
    "run_batch",
    "run_session",
    "write_run_outputs",
]

# Aggregate statistics follow the summary figures: centroid in pixels,
# area error in normalized log units, angle error in degrees.
STAT_VARIABLES = ("ex_px", "ey_px", "esig", "eang_deg")
# Steady-state thresholds every scenario shares; the window and the angle
# threshold are the scenario's ``convergence`` settings.
CENTROID_FRAC = 0.02  # mean |centroid error| per axis, of the image half-width
SIGMA_TOL = 0.05  # mean |log-area error|
BARRIER_MARGIN = 0.02  # least L1 and L2 over the window is at least 1 - margin


def _tail(n: int, window: float) -> slice:
    """The last ``window`` fraction of ``n`` samples, at least one."""
    return slice(n - max(int(round(n * window)), 1), n)


def steady_state_error(log: SimLog, window: float = 0.2) -> dict:
    """Mean absolute error per state variable over the final window fraction.

    Returns normalized and pixel centroid errors, the log-area error, and
    the angle error in degrees. Raises :class:`ShortRun` when the window
    holds fewer than 10 samples.
    """
    if not (0.0 < window <= 1.0):
        raise ValueError("window must be in (0, 1]")
    n = log.n_steps
    sl = _tail(n, window)
    k = n - sl.start
    if k < 10:
        raise ShortRun(f"steady-state window has {k} samples; need at least 10")
    cols = log.columns
    ex = float(np.abs(cols["ex"][sl]).mean())
    ey = float(np.abs(cols["ey"][sl]).mean())
    return {
        "ex": ex,
        "ey": ey,
        "ex_px": ex * log.meta["alpha_x"],
        "ey_px": ey * log.meta["alpha_y"],
        "esig": float(np.abs(cols["esig"][sl]).mean()),
        "eang_deg": float(np.abs(cols["eang"][sl]).mean()),
    }


def convergence_ok(log: SimLog, cfg: ScenarioConfig) -> bool:
    """Check the scenario's steady-state thresholds and barrier safety."""
    if log.aborted:
        return False
    spec = cfg.convergence
    try:
        sse = steady_state_error(log, spec.window)
    except ShortRun:
        return False
    half_w = 0.5 * cfg.intrinsics.width / cfg.intrinsics.alpha_x
    cols = log.columns
    tail = _tail(log.n_steps, spec.window)
    barriers_safe = (cols["L1"] > 0).all() and (cols["L2"] > 0).all()
    barriers_tail = (
        cols["L1"][tail].min() >= 1.0 - BARRIER_MARGIN
        and cols["L2"][tail].min() >= 1.0 - BARRIER_MARGIN
    )
    return bool(
        sse["ex"] <= CENTROID_FRAC * half_w
        and sse["ey"] <= CENTROID_FRAC * half_w
        and sse["esig"] <= SIGMA_TOL
        and sse["eang_deg"] <= spec.angle_deg
        and barriers_safe
        and barriers_tail
    )


def aggregate_sessions(per_session: list) -> dict:
    """Reduce per-session steady-state dicts to ``{name: {mean, min, max, std}}``.

    The keys are :data:`STAT_VARIABLES`, in that order.
    """
    if not per_session:
        raise ValueError("no sessions to aggregate")
    variables = {}
    for name in STAT_VARIABLES:
        vals = np.array([s[name] for s in per_session], dtype=float)
        variables[name] = {
            "mean": float(vals.mean()),
            "min": float(vals.min()),
            "max": float(vals.max()),
            "std": float(vals.std()),
        }
    return variables


def write_run_outputs(log: SimLog, cfg: ScenarioConfig, out_dir, plots: bool = True):
    """Write the CSV, JSON sidecar, and (optionally) SVG plots for one run."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = out_dir / cfg.name
    log.to_csv(f"{base}.csv")
    log.write_sidecar(f"{base}.meta.json")
    if plots and log.n_steps > 1:
        ts = log.columns["t"]
        line_chart(
            f"{base}.errors.svg",
            ts,
            [
                ("centroid x error (norm.)", [("ex", log.columns["ex"])]),
                ("centroid y error (norm.)", [("ey", log.columns["ey"])]),
                ("log-area error", [("esig", log.columns["esig"])]),
                ("angle error (deg)", [("eang", log.columns["eang"])]),
            ],
        )
        line_chart(
            f"{base}.barriers.svg",
            ts,
            [
                ("visibility constraint L1", [("L1", log.columns["L1"])]),
                ("area constraint L2", [("L2", log.columns["L2"])]),
            ],
            height=320,
        )
    return f"{base}.csv"


def run_session(cfg: ScenarioConfig, out_dir, plots: bool = True) -> dict:
    """Run a scenario, write its outputs and grade it: ``{csv, converged, aborted, sse}``.

    ``out_dir`` is made first, so an unusable one fails before the run.
    ``sse`` is ``None`` when the run is too short for its window.
    """
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    log = run_scenario(cfg)
    try:
        sse = steady_state_error(log, cfg.convergence.window)
    except ShortRun:
        sse = None
    return {
        "csv": write_run_outputs(log, cfg, out_dir, plots=plots),
        "converged": convergence_ok(log, cfg),
        "aborted": log.aborted,
        "sse": sse,
    }


def _run_session(args):
    scenario_path, session_name, seed_offset, out_dir = args
    cfg = load_scenario(scenario_path, seed_offset=seed_offset)
    cfg.name = session_name
    try:
        result = dict(run_session(cfg, out_dir, plots=False), failed=None)
    except (PolyServoError, ValueError) as exc:
        result = dict(csv=None, converged=False, aborted=None, sse=None, failed=str(exc))
    return dict(session=session_name, **result)


def run_batch(spec: BatchSpec, out_dir, jobs: int = 1):
    """Run every session of a batch; write per-session CSVs plus aggregates.

    Each session's steady-state errors are taken over its own scenario's
    ``convergence.window``. Individual aborts, and sessions whose run fails
    (``failed`` holds the reason), are recorded and do not stop the batch.
    At most one worker process per session is started. Returns a summary
    dict with per-session results and the aggregate statistics.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(path, name, off, str(out_dir)) for path, name, off in spec.sessions()]
    jobs = min(jobs, len(tasks))
    if jobs > 1:
        # Imported here: it loads multiprocessing, which only a pool needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_session, tasks))
    else:
        results = [_run_session(t) for t in tasks]

    usable = [r["sse"] for r in results if r["sse"] is not None]
    stats = aggregate_sessions(usable) if usable else None
    if stats is not None:
        with open(out_dir / "aggregate.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["variable", "mean", "min", "max", "std"])
            for name, v in stats.items():
                writer.writerow([name] + [repr(v[k]) for k in ("mean", "min", "max", "std")])

        bar_chart(
            out_dir / "summary.svg",
            [(name, v["mean"], v["std"], v["min"], v["max"]) for name, v in stats.items()],
        )

    return {
        "sessions": results,
        "stats": stats,
        "n_sessions": len(results),
        "n_converged": sum(1 for r in results if r["converged"]),
    }
