"""No module under ``src/polyservo`` imports ``ctypes``.

The package is a library: it must not reach into foreign code, such as the C
allocator's settings, that belongs to its host process. numpy imports
``ctypes`` itself, so the check reads each module's source instead of
``sys.modules``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "polyservo"


def ctypes_imports(source: str) -> list:
    """Line numbers of the imports of ``ctypes`` or its submodules in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(n == "ctypes" or n.startswith("ctypes.") for n in names):
            lines.append(node.lineno)
    return lines


def test_checker_flags_every_import_form():
    source = (
        "import ctypes\n"
        "import ctypes.util as cu\n"
        "from ctypes import CDLL\n"
        "import ctypeslib\n"
        "from .ctypes import x\n"
        "def f():\n"
        "    import os, ctypes\n"
    )
    assert ctypes_imports(source) == [1, 2, 3, 7]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_does_not_import_ctypes(path):
    assert ctypes_imports(path.read_text()) == []
