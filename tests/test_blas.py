"""fmpl loads numpy with one BLAS thread, because it calls no BLAS routine.

The reason and the measured cost are in the comment in src/fmpl/__init__.py.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fmpl
from helpers import subprocess_env

# numpy's entry points into BLAS; `@` is ast.MatMult
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def _blas_uses(tree: ast.AST):
    """(line, name) of each use of a BLAS entry point in a module's tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
            continue
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".")
        elif isinstance(node, ast.alias):
            names = node.name.split(".")
        else:
            continue
        yield from ((node.lineno, name) for name in names if name in BLAS_NAMES)


def test_fmpl_calls_no_blas_routine():
    package = Path(fmpl.__file__).parent
    found = [
        f"{path.relative_to(package)}:{line}: {name}"
        for path in sorted(package.rglob("*.py"))
        for line, name in _blas_uses(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert not found, (
        "fmpl loads numpy with one BLAS thread (see the comment in src/fmpl/__init__.py), "
        f"so a BLAS call would run single-threaded: {found}"
    )


def test_the_scan_sees_each_blas_form():
    source = "import numpy.linalg\nfrom numpy import einsum\na.dot(b)\nc = a @ b\nc @= a\nnp.inner(a, b)\n"
    names = sorted(name for _, name in _blas_uses(ast.parse(source)))
    assert names == ["@", "@", "dot", "einsum", "inner", "linalg"]


# a fresh interpreter: its thread count after `import fmpl`, and whether os.environ came back unchanged
PROBE = (
    "import json, os\n"
    "before = dict(os.environ)\n"
    "import fmpl\n"
    "threads = next(int(l.split()[1]) for l in open('/proc/self/status') if l.startswith('Threads:'))\n"
    "print(json.dumps([threads, dict(os.environ) == before, os.environ.get('OPENBLAS_NUM_THREADS')]))\n"
)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the thread count from /proc/self/status")
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS starts no extra thread on one core")
@pytest.mark.parametrize("caller", [None, "2"])
def test_import_loads_numpy_with_one_blas_thread_unless_the_caller_says(caller):
    env = subprocess_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    threads, unchanged, value = json.loads(proc.stdout)
    assert unchanged and value == caller
    assert threads == (1 if caller is None else 2)
