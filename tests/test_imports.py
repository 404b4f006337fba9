"""Every module of fmpl but the package's __init__ uses each name it imports."""

import ast
from pathlib import Path

import pytest

import fmpl

PACKAGE = Path(fmpl.__file__).parent
MODULES = sorted(str(path.relative_to(PACKAGE)) for path in PACKAGE.rglob("*.py") if path.name != "__init__.py")


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name that the module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert _unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_scan_sees_each_import_form():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy.linalg\n"
        "import numpy as np\n"
        "from .words import Index, shuffle as sh\n"
        "from math import comb\n"
        "np.zeros(comb(2, 1))\n"
    )
    assert _unused_imports(source) == [(2, "numpy"), (2, "os"), (4, "Index"), (4, "sh")]
