"""Every module of fmpl but the package's __init__ uses each name it imports,
only the symbolic modules name the unchecked Index constructor, only
evaluate names the window and walk-block rules, and only surjections._moves
states the rule by which a level map grows."""

import ast
from pathlib import Path

import pytest

import fmpl

PACKAGE = Path(fmpl.__file__).parent
ALL_MODULES = sorted(str(path.relative_to(PACKAGE)) for path in PACKAGE.rglob("*.py"))
MODULES = sorted(str(path.relative_to(PACKAGE)) for path in PACKAGE.rglob("*.py") if path.name != "__init__.py")
# The modules that build indices from the parts of indices already checked
UNCHECKED_INDEX_MODULES = ("identities.py", "surjections.py", "words.py")


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


def _names(source: str) -> set[str]:
    """Every name that the module imports, defines, reads or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            names.add(node.asname or node.name)
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


@pytest.mark.parametrize("module", ALL_MODULES)
def test_only_the_symbolic_modules_name_the_unchecked_index(module):
    named = "_unchecked_index" in _names((PACKAGE / module).read_text(encoding="utf-8"))
    assert not named or module in UNCHECKED_INDEX_MODULES


@pytest.mark.parametrize("module", ALL_MODULES)
def test_only_evaluate_names_the_window_and_the_walk_block(module):
    # the window w_b and the walk's block size are each written once, in
    # evaluate (_inv_window, _walk_block); other modules call them
    named = {"_inv_window", "WALK_BLOCK_BYTES"} & _names((PACKAGE / module).read_text(encoding="utf-8"))
    assert not named or module == "evaluate.py"


def test_the_name_scan_sees_imports_attributes_and_definitions():
    source = (
        "from .words import _unchecked_index as make\n"
        "import fmpl.words\n"
        "fmpl.words.star\n"
        "def head(): pass\n"
    )
    assert {"_unchecked_index", "make", "fmpl", "words", "star", "head"} <= _names(source)


def _functions(source: str) -> dict[str, ast.FunctionDef]:
    """The module's top-level functions by name."""
    return {node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}


def _compares_with_last(function: ast.FunctionDef) -> bool:
    """Whether the function, nested code included, compares anything with the name last."""
    return any(
        isinstance(node, ast.Compare) and any(isinstance(n, ast.Name) and n.id == "last" for n in ast.walk(node))
        for node in ast.walk(function)
    )


def _called(function: ast.FunctionDef) -> set[str]:
    """The names that the function calls."""
    return {n.func.id for n in ast.walk(function) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}


def test_only_moves_states_the_growth_rule():
    # a level map's next rank is compared with the last rank in _moves alone;
    # both the enumeration and the counted expansions grow through it
    functions = _functions((PACKAGE / "surjections.py").read_text(encoding="utf-8"))
    assert {name for name, function in functions.items() if _compares_with_last(function)} == {"_moves"}
    assert "_moves" in _called(functions["enumerate_phi"]) & _called(functions["_expansions"])
    expansions = functions["_expansions"]
    nested = [n for n in ast.walk(expansions) if isinstance(n, (ast.FunctionDef, ast.Lambda)) and n is not expansions]
    assert nested == [] and "_expansions" not in _called(expansions)


def test_the_rule_scan_sees_nested_compares_and_calls():
    source = (
        "def grow(k, last):\n"
        "    def step(t):\n"
        "        return t < last\n"
        "    return step(k)\n"
        "def count(k):\n"
        "    return grow(k, 0) + (k > 1)\n"
    )
    functions = _functions(source)
    assert [_compares_with_last(f) for f in functions.values()] == [True, False]
    assert _called(functions["grow"]) == {"step"} and _called(functions["count"]) == {"grow"}
