"""Command-line front end: run scenarios, batches, and print diagnostics.

``main`` maps outcomes to one exit-code table for every command:

- 0: ``run`` converged; ``batch`` had at least 90% of its sessions
  converge and none fail; ``diagnose`` printed its bundle.
- 1: a configuration error, an invalid scenario ``name``, a ``batch``
  ``--jobs`` below 1 or an unusable output directory (``config error: ...``).
- 2: an aborted, missed or failed run or batch (``<command> failed: ...``
  when it raised), and ``diagnose`` when the scene admits no diagnostics.

The output directory is ``--out``, else ``$POLYSERVO_OUT``, else ``./out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .analysis import run_batch, run_session
from .config import load_batch, load_scenario
from .errors import ConfigError, PolyServoError
from .world import opening_scene


def _out_dir(args):
    if args.out:
        return Path(args.out)
    env = os.environ.get("POLYSERVO_OUT")
    return Path(env) if env else Path("out")


def _cmd_run(args) -> int:
    cfg = load_scenario(args.config, seed_offset=args.seed or 0)
    res = run_session(cfg, _out_dir(args), plots=not args.no_plots)
    sse = res["sse"]
    if res["aborted"]:
        print(f"aborted: {res['aborted']}", file=sys.stderr)
    elif sse is not None:
        print(
            "steady-state |err|: "
            f"ex={sse['ex_px']:.2f}px ey={sse['ey_px']:.2f}px "
            f"esig={sse['esig']:.4f} eang={sse['eang_deg']:.3f}deg"
        )
    print(f"wrote {res['csv']}")
    if not res["aborted"]:
        print("converged" if res["converged"] else "did not converge")
    return 0 if res["converged"] else 2


def _cmd_batch(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    summary = run_batch(load_batch(args.spec), _out_dir(args), jobs=args.jobs)
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
    *_, diag = opening_scene(load_scenario(args.config))
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
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:  # before PolyServoError: a subclass
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (PolyServoError, ValueError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
