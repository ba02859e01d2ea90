"""Command-line front end: run scenarios, batches, and print diagnostics.

Exit codes: every command returns 1 on configuration errors. ``run``
returns 0 when the scenario converged and 2 when it aborted or missed its
thresholds. ``batch`` returns 0 when at least 90% of sessions converged
and none failed to run; a failed session's reason is printed.
``diagnose`` and ``run`` return 2 when the opening scene admits no diagnostics,
say a setpoint outside the safe set or a target off the image. The output
directory defaults to ``./out`` and can be overridden by ``--out`` or the
``POLYSERVO_OUT`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .analysis import convergence_ok, run_batch, steady_state_error, write_run_outputs
from .config import load_batch, load_scenario
from .errors import ConfigError, PolyServoError, ShortRun
from .world import opening_scene, run_scenario


def _out_dir(args):
    if args.out:
        return Path(args.out)
    env = os.environ.get("POLYSERVO_OUT")
    return Path(env) if env else Path("out")


def _cmd_run(args) -> int:
    try:
        cfg = load_scenario(args.config, seed_offset=args.seed or 0)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        log = run_scenario(cfg)
    except (PolyServoError, ValueError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    csv_path = write_run_outputs(log, cfg, _out_dir(args), plots=not args.no_plots)
    if log.aborted:
        print(f"aborted: {log.aborted}", file=sys.stderr)
        print(f"wrote {csv_path}")
        return 2
    try:
        sse = steady_state_error(log, cfg.convergence.window)
        print(
            "steady-state |err|: "
            f"ex={sse['ex_px']:.2f}px ey={sse['ey_px']:.2f}px "
            f"esig={sse['esig']:.4f} eang={sse['eang_deg']:.3f}deg"
        )
    except ShortRun:
        pass
    ok = convergence_ok(log, cfg)
    print(f"wrote {csv_path}")
    print("converged" if ok else "did not converge")
    return 0 if ok else 2


def _cmd_batch(args) -> int:
    try:
        spec = load_batch(args.spec)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    summary = run_batch(spec, _out_dir(args), jobs=args.jobs)
    for r in summary["sessions"]:
        if r["failed"]:
            state = f"failed: {r['failed']}"
        else:
            state = "ok" if r["converged"] else ("aborted" if r["aborted"] else "miss")
        print(f"{r['session']}: {state}")
    n, c = summary["n_sessions"], summary["n_converged"]
    print(f"{c}/{n} sessions converged")
    failed = any(r["failed"] for r in summary["sessions"])
    return 0 if c >= 0.9 * n and not failed else 2


def _cmd_diagnose(args) -> int:
    try:
        cfg = load_scenario(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        *_, diag = opening_scene(cfg)
    except (PolyServoError, ValueError) as exc:
        print(f"diagnose failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(diag.to_dict(), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyservo",
        description="Visual-servoing NMPC simulator for polygonal targets",
    )
    parser.add_argument("--version", action="version", version=f"polyservo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write its logs")
    p_run.add_argument("config", help="scenario JSON file")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--no-plots", action="store_true", help="skip SVG plots")
    p_run.add_argument("--seed", type=int, default=None, help="seed offset for this session")
    p_run.set_defaults(func=_cmd_run)

    p_batch = sub.add_parser("batch", help="run a batch spec and aggregate statistics")
    p_batch.add_argument("spec", help="batch JSON file")
    p_batch.add_argument("--out", default=None, help="output directory")
    p_batch.add_argument("--jobs", type=int, default=1, help="parallel sessions")
    p_batch.set_defaults(func=_cmd_batch)

    p_diag = sub.add_parser("diagnose", help="print the diagnostics bundle for a scenario")
    p_diag.add_argument("config", help="scenario JSON file")
    p_diag.set_defaults(func=_cmd_diagnose)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
