"""Batch statistics: repeated seeded sessions and their aggregate summary.

Mirrors the experiment protocol of running several sessions per scenario
and reducing the per-session steady-state errors to mean / min / max / std
bars. Uses shortened repetitions so the demo stays quick.
"""

import json
import tempfile
from pathlib import Path

from polyservo.analysis import run_batch
from polyservo.config import load_batch

here = Path(__file__).resolve().parent
configs = here.parent / "configs"

with tempfile.TemporaryDirectory() as tmp:
    spec_path = Path(tmp) / "demo_batch.json"
    spec_path.write_text(
        json.dumps(
            {
                "scenarios": [str(configs / "static_octagon.json"), str(configs / "perf_12gon.json")],
                "repetitions": 3,
                "base_seed": 500,
            }
        )
    )
    spec = load_batch(spec_path)
    out = here / "out" / "batch"
    summary = run_batch(spec, out, jobs=2)

print(f"{summary['n_converged']}/{summary['n_sessions']} sessions converged")
print("\naggregate steady-state statistics:")
for name, v in summary["stats"].items():
    print(
        f"  {name:9s} mean={v['mean']:8.4f} min={v['min']:8.4f}"
        f" max={v['max']:8.4f} std={v['std']:8.4f}"
    )
print(f"\nper-session CSVs, aggregate.csv, and summary.svg are in {out}/")
