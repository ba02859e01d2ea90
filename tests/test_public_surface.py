"""Every public name of a module under ``src/polyservo`` has a user.

A name in a module's ``__all__`` must be read somewhere in ``src/``,
``demos/`` or ``bench/`` outside its own definition. Its ``__all__`` entry,
the ``__init__.py`` re-exports and an import alone do not count, so a
helper that only its own unit tests call fails here unless it is on
``ALLOWED``. Standard library only (``ast``), like the unused-import guard.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "polyservo"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
USERS = sorted(
    p for d in ("src", "demos", "bench") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py"
)

# Paper quantities that nothing in the system calls but the reproduction
# checks: test_acceptance compares the area and angle gradients and the
# state Jacobian with finite differences and audits rollouts against the
# prediction-error bound, and TestDiagnostics checks both bounds.
ALLOWED = {
    "area_gradient",
    "angle_gradient",
    "state_jacobian",
    "prediction_error_bound",
    "cost_difference_bound",
}


def exported(source: str) -> list:
    """The names listed in ``__all__`` of ``source``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def referenced(sources) -> set:
    """Names read in ``sources``, as a bare name or an attribute.

    A top-level function or class reading its own name (recursion, a
    classmethod building its class) does not count as a use of it.
    """
    names = set()
    for source in sources:
        for stmt in ast.parse(source).body:
            used = set()
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    used.add(n.id)
                elif isinstance(n, ast.Attribute):
                    used.add(n.attr)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                used.discard(stmt.name)
            names |= used
    return names


REFERENCED = referenced(p.read_text() for p in USERS)


def test_checker_flags_only_unread_names():
    module = (
        "__all__ = ['called', 'attribute', 'annotation', 'imported', 'recursive']\n"
        "def called(): pass\n"
        "def attribute(): pass\n"
        "class annotation: pass\n"
        "def imported(): pass\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
    )
    user = (
        "from m import called, imported\n"
        "import m\n"
        "def f(x: annotation):\n"
        "    return called(), m.attribute\n"
        "s = 'imported'\n"
    )
    unread = set(exported(module)) - referenced([module, user])
    assert sorted(unread) == ["imported", "recursive"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_has_a_user(path):
    assert sorted(set(exported(path.read_text())) - REFERENCED - ALLOWED) == []
