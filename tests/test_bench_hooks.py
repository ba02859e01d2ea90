"""The benchmark's traced names still resolve in the package.

``bench/hooks.py`` wraps polyservo functions and methods by name. A name
that no longer resolves is only listed in ``Tracer.missing``, and the
per-layer metrics read from it then read 0 without an error, so a rename
in ``src/`` must show here. Two entries are already stale and may be
missing: ``_OcpKernel.cost_one`` and ``world.step_world``, both deleted.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
STALE = {"nmpc._OcpKernel.cost_one", "world.step_world"}


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import hooks

    tracer = hooks.Tracer()
    try:
        tracer.install()
        assert set(tracer.missing) <= STALE
    finally:
        tracer.uninstall()
