"""Every public name of a module under ``src/polyservo`` has a user.

A name in a module's ``__all__`` must be read somewhere in ``src/``,
``demos/`` or ``bench/`` outside its own definition. Its ``__all__`` entry,
the ``__init__.py`` re-exports and an import alone do not count, so a
helper that only its own unit tests call fails here unless it is on
``ALLOWED``. Likewise a name that ``__init__.py`` re-exports must be imported
from ``polyservo`` or read as ``polyservo.<name>`` in ``src/``, ``tests/``,
``demos/`` or ``bench/``. Standard library only (``ast``), like the
unused-import guard.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "polyservo"
INIT = SRC / "__init__.py"
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


def reexported(source: str) -> set:
    """The names ``source`` imports from modules of its own package."""
    return {
        alias.asname or alias.name
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def package_reads(sources) -> set:
    """Names imported ``from polyservo`` or read as ``polyservo.<name>``."""
    names = set()
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.ImportFrom) and n.module == "polyservo" and n.level == 0:
                names.update(alias.name for alias in n.names)
            elif (
                isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name)
                and n.value.id == "polyservo"
            ):
                names.add(n.attr)
    return names


def test_package_checker_counts_only_package_reads():
    init = "from .a import kept, dropped\nfrom .b import renamed as alias\nimport os\n"
    user = (
        "from polyservo import kept\n"
        "import polyservo\n"
        "polyservo.alias()\n"
        "from polyservo.a import dropped\n"
    )
    assert reexported(init) == {"kept", "dropped", "alias"}
    assert reexported(init) - package_reads([user]) == {"dropped"}


def test_every_reexport_has_a_package_user():
    users = [
        p
        for d in ("src", "tests", "demos", "bench")
        for p in (ROOT / d).rglob("*.py")
        if p != INIT
    ]
    unread = reexported(INIT.read_text()) - package_reads(p.read_text() for p in users)
    assert sorted(unread) == []
