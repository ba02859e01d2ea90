"""The narrative demos 01-03 run to completion.

They are the only non-test callers of some public paths (demo 01 is the one
of ``printed_dynamics_matrix``), so they run here as scripts, each in a
fresh interpreter. Demos 04 and 05 run closed-loop
sessions and write plots; they are left out to keep the suite fast, and
the CI workflow runs them as a step of its own.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyservo

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_feature_dynamics", "02_barriers", "03_single_ocp"])
def test_demo_exits_zero(tmp_path, name):
    src = str(Path(polyservo.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert not any(tmp_path.iterdir())
