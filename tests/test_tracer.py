"""The benchmark's tracer still wraps the names it reads from fmpl.

perfbench/tracer.py replaces fmpl functions and methods by name, so a
rename in src would break `perfbench/run.py --trace 1` without any other
test failing.  These tests run one traced sweep each in a fresh
interpreter and read the per-layer metrics it prints.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        "verify eq7 -L 1 -M 2 -N 1 --primes 5..13 --jobs 1",
        "verify main -l 2,1 -r 3 --primes 5..30 --jobs 1",
    ],
)
def test_traced_sweep_counts_the_kernel_layers(tmp_path, argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "trace", str(tmp_path / "spans.jsonl"), "--"]
    proc = subprocess.run(cmd + argv.split(), cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["rc"] == 0
    assert out["metrics"]["evaluate.advanced.calls"] > 0
    assert out["metrics"]["evaluate.eval_fmp.calls"] > 0
    assert (tmp_path / "spans.jsonl").stat().st_size > 0
