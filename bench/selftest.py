#!/usr/bin/env python3
"""Minimal-length self-test of the benchmark.

Run from the repository root: ``python3 bench/selftest.py`` (about a
minute). It runs two truncated workloads, one untraced and one traced, and
checks that

- the last stdout line has exactly the keys correct/attempted/failed/metrics;
- every metric named in BENCHMARK.json is emitted with its unit and a value;
- every correctness check ran and passed;
- without the package sources the benchmark exits non-zero, printing no result.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHECKS = (
    "oracle_total_cost",
    "solved_cost_le_warm_start",
    "repeat_csv_byte_identical",
    "every_step_checked",
)


def check(cond, msg):
    if not cond:
        sys.exit(f"selftest FAILED: {msg}")


def bench(cwd, workload, trace, max_steps=50):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3",
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    if max_steps is not None:
        cmd += ["--max-steps", str(max_steps)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(workload, trace):
    res = bench(ROOT, workload, trace)
    check(res.returncode == 0, f"{workload} trace={trace} exited {res.returncode}: {res.stderr}")
    lines = res.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    check(set(out) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(out)}")
    check(out["correct"] is True and out["attempted"] >= 1, f"result {out}")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    check(set(out["metrics"]) == {m["name"] for m in wanted}, "metric names differ from BENCHMARK.json")
    for m in wanted:
        got = out["metrics"][m["name"]]
        check(got["unit"] == m["unit"], f"{m['name']} unit {got['unit']} != {m['unit']}")
        v = got["value"]
        check(isinstance(v, (int, float)) and math.isfinite(v), f"{m['name']} value {v!r}")
    for name in CHECKS:
        check(any(line.split()[:3] == ["check", name, "ok"] for line in lines),
              f"check {name} did not run or failed")
    print(f"selftest: {workload} trace={trace} ok ({len(out['metrics'])} metrics)")


def check_missing_sources():
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        res = bench(bare, "uav_wave", 0, max_steps=None)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(res.returncode != 0, "bare checkout exited 0")
    check('"correct"' not in res.stdout, "bare checkout printed a result")
    print("selftest: bare checkout refused ok")


if __name__ == "__main__":
    check_missing_sources()
    check_run("regulate_batch", 0)
    check_run("pentagon_free", 1)
    print("selftest passed")
