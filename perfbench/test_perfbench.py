"""Tests of the benchmark's own checks, run on scratch copies of the checkout.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Appended to evaluate.py in a scratch copy: eval_fmp returns the zero
# polynomial.  verify_main still passes (both sides are 0), so only the
# value fingerprints can catch it.
PLANTED_ZERO = """

@lru_cache(maxsize=4096)
def eval_fmp(k: Index, p: int) -> ModPoly:
    return ModPoly.zero(p)
"""


def _copy(tmp_path: Path, with_src: bool = True) -> Path:
    dest = tmp_path / "checkout"
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_src:
        shutil.copytree(ROOT / "src" / "fmpl", dest / "src" / "fmpl", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def _check(cwd: Path, workload: str, seed: int = 0) -> dict:
    proc = _run(cwd, "perfbench/child.py", "check", workload, str(seed))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["main-w6", "main-w12", "eq7-p2k", "prop24-wide"])
def test_fingerprints_and_oracles_hold_on_the_current_code(workload):
    result = _check(ROOT, workload)
    assert result["attempted"] > 0
    assert result["mismatches"] == []


def test_every_seeded_index_set_has_recorded_fingerprints():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    workload = WORKLOADS["prop24-wide"]
    seeds = {workload.indices(seed): seed for seed in range(1, 50)}
    assert set(seeds) == set(workload.candidates)
    for seed in seeds.values():
        assert _check(ROOT, "prop24-wide", seed)["mismatches"] == []


def test_planted_zero_eval_fmp_is_caught(tmp_path):
    copy = _copy(tmp_path)
    with open(copy / "src" / "fmpl" / "evaluate.py", "a", encoding="utf-8") as fh:
        fh.write(PLANTED_ZERO)
    mismatches = _check(copy, "main-w12")["mismatches"]
    assert any(m.startswith("fingerprint eval_fmp(") for m in mismatches)
    assert any(m.startswith("oracle eval_fmp(") for m in mismatches)

    proc = _run(copy, "perfbench/run.py", "--workload", "main-w12", "--seconds", "1")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert "status" not in proc.stdout  # every prime still passed its sweep check


def test_refuses_to_run_without_the_program(tmp_path):
    copy = _copy(tmp_path, with_src=False)
    proc = _run(copy, "perfbench/run.py", "--workload", "main-w6", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
