import csv
import dataclasses
import functools
import gc
import io
import json
import multiprocessing
import platform
import subprocess
import sys
import tracemalloc
from concurrent.futures import Future, ProcessPoolExecutor

import pytest

from fmpl import sweep
from fmpl.identities import CheckResult, verify_stuffle
from fmpl.modular import primes_in_range
from fmpl.surjections import MAX_R
from fmpl.sweep import CHECKS, Check, PrimeOutcome, SweepReport, run_one, run_sweep
from fmpl.words import EMPTY, Index
from helpers import subprocess_env

I = Index.of


def test_run_sweep_covers_requested_primes():
    report = run_sweep("stuffle", {"l": I(2), "r": I(3)}, 5, 30)
    assert [r.p for r in report.results] == primes_in_range(5, 30)
    assert report.summary == {"pass": 8, "fail": 0, "skip": 0, "error": 0}
    assert report.exit_code == 0


def test_run_sweep_reports_failures(monkeypatch):
    def odd_one_out(p):
        return CheckResult(False, "planted") if p == 2 else CheckResult(True)

    monkeypatch.setitem(CHECKS, "odd-one-out", Check(odd_one_out, ()))
    report = run_sweep("odd-one-out", {}, 2, 3)
    statuses = {r.p: r.status for r in report.results}
    assert statuses == {2: "fail", 3: "pass"}
    assert report.exit_code == 1
    failing = [r for r in report.results if r.status == "fail"]
    assert all(r.detail for r in failing)


def test_li_at_one_skips_primes_outside_its_domain():
    # li_1(1) = 1 at p = 2, where p > wt(k) + dep(k) = 2 fails
    report = run_sweep("li-at-1", {"k": I(1)}, 2, 7)
    statuses = {r.p: r.status for r in report.results}
    assert statuses == {2: "skip", 3: "pass", 5: "pass", 7: "pass"}
    assert report.exit_code == 0
    assert "p > wt(k) + dep(k) = 2" in report.results[0].detail
    report = run_sweep("li-at-1", {"k": I(2, 1)}, 2, 7)
    assert [r.status for r in report.results] == ["skip", "skip", "skip", "pass"]


def _counting(monkeypatch, check):
    """Plant a copy of a registry entry whose check only records the primes it runs at."""
    calls = []

    def run(*args):
        calls.append(args[-1])
        return CheckResult(True)

    monkeypatch.setitem(CHECKS, check, dataclasses.replace(CHECKS[check], run=run))
    return calls


def test_li_at_one_domain_skip_is_decided_by_the_registry(monkeypatch):
    calls = _counting(monkeypatch, "li-at-1")
    assert run_one("li-at-1", {"k": I(2, 1)}, 5) == PrimeOutcome(5, "skip", "outside the domain p > wt(k) + dep(k) = 5")
    assert calls == []
    assert run_one("li-at-1", {"k": I(2, 1)}, 7) == PrimeOutcome(7, "pass", None)
    assert calls == [7]


@pytest.mark.parametrize(
    "check, params",
    [
        ("eq7", {"L": EMPTY, "M": I(1), "N": I(1)}),
        ("prop24", {"i": 3, "k": I(1, 1)}),
        ("bijection", {"r": MAX_R + 1}),
        ("pfd", {"alpha": 0, "beta": 1}),
        ("pfd", {"alpha": 1, "beta": 1.0}),
        ("pfd", {"alpha": 1}),
        ("bijection", {"r": 0}),
        ("prop24", {"i": 1, "k": (1, 1)}),
        ("stuffle", {"l": I(2**62), "r": I(2**62)}),
        ("prop24", {"i": 1, "k": I(2**63)}),
    ],
)
def test_run_sweep_validates_before_any_prime(monkeypatch, check, params):
    calls = _counting(monkeypatch, check)
    with pytest.raises(ValueError):
        run_sweep(check, params, 5, 30)
    assert calls == []


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size and runs each task at once."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize(
    "jobs, cores, prime_to, workers",
    [(100000, 4, 30, [4]), (100000, 64, 7, [2]), (3, 64, 30, [3]), (100000, 64, 5, [])],
)
def test_pool_is_capped_by_primes_and_cores(monkeypatch, jobs, cores, prime_to, workers):
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: cores)
    report = run_sweep("stuffle", {"l": I(2), "r": I(3)}, 5, prime_to, jobs=jobs)
    assert _InlinePool.sizes == workers
    assert [(r.p, r.status) for r in report.results] == [(p, "pass") for p in primes_in_range(5, prime_to)]


def test_run_sweep_rejects_unknown_check():
    with pytest.raises(ValueError, match="unknown check"):
        run_sweep("nope", {}, 5, 7)


def test_json_report_schema():
    report = run_sweep("pfd", {"alpha": 1, "beta": 2}, 5, 11)
    doc = report.to_json_dict()
    assert set(doc) == {"check", "params", "primes", "results", "summary", "duration_ms"}
    assert doc["check"] == "pfd"
    assert doc["params"] == {"alpha": "1", "beta": "2"}
    assert doc["primes"] == {"from": 5, "to": 11}
    assert doc["summary"] == {"pass": 3, "fail": 0, "skip": 0, "error": 0}
    for entry in doc["results"]:
        assert set(entry) <= {"p", "status", "detail"}
    # passing entries without detail omit the key entirely
    assert all("detail" not in e for e in doc["results"] if e["status"] == "pass")


def test_report_determinism_modulo_duration():
    a = run_sweep("main", {"l": I(1), "r": I(1)}, 5, 20).to_json_dict()
    b = run_sweep("main", {"l": I(1), "r": I(1)}, 5, 20).to_json_dict()
    a.pop("duration_ms")
    b.pop("duration_ms")
    assert a == b


def test_csv_report_shape():
    report = run_sweep("reversal", {"k": I(2, 1)}, 5, 13)
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert rows[0] == ["check", "params", "p", "status", "detail"]
    assert [row[2] for row in rows[1:]] == ["5", "7", "11", "13"]
    assert all(row[0] == "reversal" and row[1] == "k=2,1" for row in rows[1:])


def test_run_one_outcome():
    out = run_one("prop24", {"i": 2, "k": I(1, 1)}, 7)
    assert out == PrimeOutcome(7, "pass", None)


def test_parallel_sweep_matches_serial():
    serial = run_sweep("stuffle", {"l": I(1, 1), "r": I(2)}, 5, 40, jobs=1)
    parallel = run_sweep("stuffle", {"l": I(1, 1), "r": I(2)}, 5, 40, jobs=2)
    assert [(r.p, r.status) for r in serial.results] == [(r.p, r.status) for r in parallel.results]


def test_chunked_pool_sweep_matches_serial(monkeypatch):
    # forked workers see the planted entry whatever the platform's default start method
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)

    def planted(l, r, p):
        return CheckResult(False, "planted") if p == 211 else verify_stuffle(l, r, p)

    monkeypatch.setitem(CHECKS, "planted-stuffle", dataclasses.replace(CHECKS["stuffle"], run=planted))
    params = {"l": I(1, 1), "r": I(2)}
    serial = run_sweep("planted-stuffle", params, 5, 400, jobs=1).to_json_dict()
    parallel = run_sweep("planted-stuffle", params, 5, 400, jobs=2).to_json_dict()
    serial.pop("duration_ms")
    parallel.pop("duration_ms")
    assert parallel == serial
    assert serial["summary"] == {"pass": 75, "fail": 1, "skip": 0, "error": 0}


class _RecordingPool(_InlinePool):
    """An inline pool that also records the primes of each task it is sent."""

    chunks: list = []

    def submit(self, fn, *args):
        self.chunks.append(args[-1])
        return super().submit(fn, *args)


@pytest.mark.parametrize("prime_to", [30, 2000, 20000])
def test_pool_gets_few_chunks_largest_prime_first(monkeypatch, prime_to):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_RecordingPool, "chunks", [])
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 3)
    monkeypatch.setitem(CHECKS, "trivial", Check(lambda p: CheckResult(True), ()))
    report = run_sweep("trivial", {}, 5, prime_to, jobs=3)
    primes = primes_in_range(5, prime_to)
    assert _RecordingPool.sizes == [3]
    assert len(_RecordingPool.chunks) <= sweep.CHUNKS_PER_WORKER * 3
    assert max(primes) in _RecordingPool.chunks[0]
    assert sorted(p for chunk in _RecordingPool.chunks for p in chunk) == primes
    assert [r.p for r in report.results] == primes


def _raises_at_seven(l, r, p):
    if p == 7:
        raise MemoryError("planted at p = 7")
    return verify_stuffle(l, r, p)


@pytest.mark.parametrize("jobs", [1, 2])
def test_an_error_at_one_prime_is_recorded_and_the_sweep_goes_on(monkeypatch, jobs):
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
    monkeypatch.setitem(CHECKS, "planted", dataclasses.replace(CHECKS["stuffle"], run=_raises_at_seven))
    params = {"l": I(1, 1), "r": I(2)}
    report = run_sweep("planted", params, 5, 13, jobs=jobs)
    assert _InlinePool.sizes == ([] if jobs == 1 else [2])
    error = PrimeOutcome(7, "error", "MemoryError: planted at p = 7")
    expected = run_sweep("stuffle", params, 5, 13, jobs=1).results
    assert report.results == [error if r.p == 7 else r for r in expected]
    assert report.summary == {"pass": 3, "fail": 0, "skip": 0, "error": 1}
    assert report.exit_code == 3
    assert {"p": 7, "status": "error", "detail": error.detail} in report.to_json_dict()["results"]
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert ["planted", "l=1,1;r=2", "7", "error", error.detail] in rows


def test_a_failure_outranks_an_error_in_the_exit_code():
    report = SweepReport("stuffle", {}, 5, 7, [PrimeOutcome(5, "error", "MemoryError: "), PrimeOutcome(7, "fail", "x")])
    assert report.summary == {"pass": 0, "fail": 1, "skip": 0, "error": 1}
    assert report.exit_code == 1


def test_bijection_detail_lines():
    report = run_sweep("bijection", {"r": 2}, 5, 13)
    assert all(r.status == "pass" for r in report.results)
    assert all("|X_2| =" in r.detail for r in report.results)


def test_empty_prime_range():
    report = run_sweep("stuffle", {"l": I(2), "r": I(3)}, 24, 28)
    assert report.results == []
    assert report.exit_code == 0


def test_interrupt_produces_partial_report(monkeypatch):
    from fmpl.sweep import SweepInterrupted

    def impatient(p):
        if p == 11:
            raise KeyboardInterrupt
        return CheckResult(True)

    monkeypatch.setitem(CHECKS, "impatient", Check(impatient, ()))
    with pytest.raises(SweepInterrupted) as exc:
        run_sweep("impatient", {}, 5, 13)
    report = exc.value.report
    assert [r.p for r in report.results] == [5, 7, 11, 13]
    statuses = {r.p: r.status for r in report.results}
    assert statuses[5] == "pass" and statuses[7] == "pass"
    assert statuses[11] == "skip" and statuses[13] == "skip"
    assert all(r.detail == "interrupted" for r in report.results if r.status == "skip")


class _CtrlCPool(_RecordingPool):
    """A recording inline pool where reading the second result raises KeyboardInterrupt, as Ctrl-C would."""

    shutdowns: list = []

    def __init__(self, max_workers):
        super().__init__(max_workers)
        self.reads = 0

    def submit(self, fn, *args):
        future = super().submit(fn, *args)
        read = future.result

        def result(timeout=None):
            self.reads += 1
            if self.reads == 2:
                raise KeyboardInterrupt
            return read(timeout)

        future.result = result
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns.append((wait, cancel_futures))

    def __exit__(self, *exc):
        self.shutdown(wait=True)
        return False


def test_interrupted_pool_cancels_queued_chunks(monkeypatch):
    from fmpl.sweep import SweepInterrupted

    for name in ("sizes", "chunks", "shutdowns"):
        monkeypatch.setattr(_CtrlCPool, name, [])
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", _CtrlCPool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
    monkeypatch.setitem(CHECKS, "trivial", Check(lambda p: CheckResult(True), ()))
    with pytest.raises(SweepInterrupted) as exc:
        run_sweep("trivial", {}, 5, 200, jobs=2)
    # the pool is told to drop its queued chunks, without waiting, before the block exits
    assert _CtrlCPool.shutdowns[0] == (False, True)
    report = exc.value.report
    assert [r.p for r in report.results] == primes_in_range(5, 200)
    passed = sorted(r.p for r in report.results if r.status == "pass")
    assert passed in [sorted(chunk) for chunk in _CtrlCPool.chunks]
    assert all(r.detail == "interrupted" for r in report.results if r.status == "skip")


def test_long_sweep_holds_at_most_the_cache_bound():
    # each prime's tables are dropped when the next prime starts, so what a
    # sweep leaves behind is one prime's tables, whatever its prime range
    tracemalloc.start()
    try:
        report = run_sweep("prop24", {"i": 2, "k": I(1, 2, 1)}, 5, 3000, jobs=1)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert report.summary == {"pass": 428, "fail": 0, "skip": 0, "error": 0}
    assert held < 2 * 2**20


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="fmpl sets malloc's thresholds through glibc's mallopt only")
def test_sweep_reuses_the_heap_across_primes():
    # each prime frees its tables and the next builds tables of about the
    # same sizes; left to glibc's dynamic thresholds, this sweep took about
    # 22,000 minor page faults, with the thresholds that fmpl sets about 270
    script = (
        "import resource\n"
        "import fmpl\n"
        "from fmpl.sweep import run_sweep\n"
        "from fmpl.words import Index\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "report = run_sweep('main', {'l': Index.of(2, 1), 'r': Index.of(3)}, 5, 3000, jobs=1)\n"
        "print(report.summary['pass'], resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=subprocess_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    passed, faults = map(int, proc.stdout.split())
    assert passed == 428 and faults < 2000
