"""Prime-sweep execution of the per-prime checks, with JSON/CSV reports.

A check is one entry of CHECKS: its identities function, its parameters
with their types, their validation and, where the identity is claimed only
above a prime bound, that bound.  The CLI builds each ``verify`` command
from the same entry.  A sweep runs one named check with fixed parameters
over every prime in an inclusive range.  A pool of workers receives the
primes in chunks, largest primes first, as immutable (check, params,
primes) task descriptors, one task per chunk; results are merged into a
report ordered by prime, and an interrupted sweep keeps the outcomes of
the chunks whose results came back.  A prime outside the domain where the
check's identity is claimed is recorded as a skip with its reason, never
silently dropped, so a sweep verdict is always "pass with exception set".
A check that raises at one prime (a MemoryError included) is recorded as
an error with the exception's type and message, and the sweep goes on.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .identities import (
    pfd_check,
    verify_eq7,
    verify_li_at_one,
    verify_main,
    verify_prop24,
    verify_reversal,
    verify_stuffle,
)
from .modular import primes_in_range
from .surjections import MAX_R, bijection_roundtrip
from .words import Index

PASS, FAIL, SKIP, ERROR = "pass", "fail", "skip", "error"

# Bound on the total weight of a check's index parameters.  Every part that a
# check merges or groups (a stuffle or star merge, a descent group) is at most
# that total, so below it every part fits the int64 arrays of the evaluators.
MAX_WEIGHT = 1 << 63


@dataclass(frozen=True)
class PrimeOutcome:
    p: int
    status: str
    detail: Optional[str] = None


@dataclass
class SweepReport:
    """Per-prime outcomes for one check over one prime range."""

    check: str
    params: dict[str, str]
    prime_from: int
    prime_to: int
    results: list[PrimeOutcome] = field(default_factory=list)
    duration_ms: int = 0

    @property
    def summary(self) -> dict[str, int]:
        counts = {PASS: 0, FAIL: 0, SKIP: 0, ERROR: 0}
        for r in self.results:
            counts[r.status] += 1
        return counts

    @property
    def exit_code(self) -> int:
        """1 if some prime failed, else 3 if some prime raised an error, else 0."""
        summary = self.summary
        if summary[FAIL]:
            return 1
        return 3 if summary[ERROR] else 0

    def to_json_dict(self) -> dict:
        results = []
        for r in self.results:
            entry: dict = {"p": r.p, "status": r.status}
            if r.detail is not None:
                entry["detail"] = r.detail
            results.append(entry)
        return {
            "check": self.check,
            "params": self.params,
            "primes": {"from": self.prime_from, "to": self.prime_to},
            "results": results,
            "summary": self.summary,
            "duration_ms": self.duration_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["check", "params", "p", "status", "detail"])
        params = ";".join(f"{k}={v}" for k, v in self.params.items())
        for r in self.results:
            writer.writerow([self.check, params, r.p, r.status, r.detail or ""])
        return buf.getvalue()


def _validate_eq7(L: Index, M: Index, N: Index) -> None:
    if not L or not M:
        raise ValueError("eq7 requires nonempty -L and -M")


def _validate_product(l: Index, r: Index) -> None:
    """The correction expression expands variants of depth up to dep(l) + dep(r) - 1."""
    if l.depth + r.depth > MAX_R + 1:
        raise ValueError(f"dep(l) + dep(r) = {l.depth + r.depth} exceeds the supported maximum {MAX_R + 1}")


def _validate_prop24(i: int, k: Index) -> None:
    if not 1 <= i <= k.depth:
        raise ValueError(f"-i {i} outside [1, dep(k)={k.depth}]")
    if k.depth > MAX_R:
        raise ValueError(f"dep(k) = {k.depth} exceeds the supported maximum {MAX_R}")


def _validate_bijection(r: int) -> None:
    if r > MAX_R:
        raise ValueError(f"-r {r} exceeds the supported maximum {MAX_R}")


def _nonempty_k(check: str) -> Callable[[Index], None]:
    def validate(k: Index) -> None:
        if not k:
            raise ValueError(f"{check} requires a nonempty -k")

    return validate


@dataclass(frozen=True)
class Check:
    """One per-prime check, as both the CLI and the sweep see it.

    ``params`` lists each parameter's name and type (``Index``, or ``int``
    for a positive integer) in call order; the check runs as
    ``run(*args, p)`` and returns a pair (ok, detail), such as a
    CheckResult.  ``validate(*args)`` raises ValueError for parameters
    outside what the check supports, beyond what ``checked_args`` checks of
    every check.  Where ``bound`` is given, the identity is claimed only for
    primes p > ``bound(*args)``, the quantity that ``bound_text`` names.
    """

    run: Callable[..., tuple[bool, Optional[str]]]
    params: tuple[tuple[str, type], ...]
    validate: Callable[..., None] = lambda *args: None
    bound: Optional[Callable[..., int]] = None
    bound_text: str = ""

    def args(self, params: dict) -> list:
        """The parameter values in call order."""
        return [params[name] for name, _ in self.params]

    def checked_args(self, params: dict) -> list:
        """The parameter values in call order, or ValueError where one is not supported.

        Each ``int`` parameter must be a positive int and each ``Index`` one
        an Index, the index parameters' total weight must be below
        MAX_WEIGHT, and then ``validate`` must pass.  The CLI and run_sweep
        both check here, once, before any prime runs.
        """
        args = [params.get(name) for name, _ in self.params]
        for (name, typ), value in zip(self.params, args):
            if typ is int and not (isinstance(value, int) and value >= 1):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
            if typ is Index and not isinstance(value, Index):
                raise ValueError(f"{name} must be an Index, got {value!r}")
        weight = sum(value.weight for value in args if isinstance(value, Index))
        if weight >= MAX_WEIGHT:
            raise ValueError(f"total index weight {weight} is not below the supported maximum 2^63")
        self.validate(*args)
        return args


CHECKS: dict[str, Check] = {
    "eq7": Check(verify_eq7, (("L", Index), ("M", Index), ("N", Index)), _validate_eq7),
    "main": Check(verify_main, (("l", Index), ("r", Index)), _validate_product),
    "prop24": Check(verify_prop24, (("i", int), ("k", Index)), _validate_prop24),
    "stuffle": Check(verify_stuffle, (("l", Index), ("r", Index))),
    "pfd": Check(pfd_check, (("alpha", int), ("beta", int))),
    "bijection": Check(bijection_roundtrip, (("r", int),), _validate_bijection),
    "reversal": Check(verify_reversal, (("k", Index),), _nonempty_k("reversal")),
    "li-at-1": Check(
        verify_li_at_one,
        (("k", Index),),
        _nonempty_k("li-at-1"),
        bound=lambda k: k.weight + k.depth,
        bound_text="wt(k) + dep(k)",
    ),
}


def echo_params(params: dict) -> dict[str, str]:
    """Stable string form of the parameters for reports."""
    out = {}
    for key, value in params.items():
        out[key] = value.text() if isinstance(value, Index) else str(value)
    return out


def run_one(check: str, params: dict, p: int) -> PrimeOutcome:
    """Execute one (check, prime) task.

    Out-of-domain primes become skips.  An exception from the check
    becomes an error, "<Type>: <message>", so that one prime cannot end
    the sweep; KeyboardInterrupt is not an Exception and still stops it.
    """
    entry = CHECKS[check]
    args = entry.args(params)
    if entry.bound is not None and p <= (bound := entry.bound(*args)):
        return PrimeOutcome(p, SKIP, f"outside the domain p > {entry.bound_text} = {bound}")
    try:
        ok, detail = entry.run(*args, p)
    except Exception as exc:
        return PrimeOutcome(p, ERROR, f"{type(exc).__name__}: {exc}")
    return PrimeOutcome(p, PASS if ok else FAIL, detail)


def _run_chunk(check: str, params: dict, primes: list[int]) -> list[PrimeOutcome]:
    """Run one check at each prime of a chunk, in order; one pool task."""
    return [run_one(check, params, p) for p in primes]


def ProcessPoolExecutor(max_workers: int):
    """A process pool, imported only for a pooled sweep (multiprocessing costs 1.3 MiB); tests replace it."""
    from concurrent import futures
    return futures.ProcessPoolExecutor(max_workers=max_workers)


def _stop_workers(pool) -> None:
    """Cancel the queued chunks and end the workers now, with the chunks they hold.

    Before Python 3.14 (``terminate_workers``) an executor cannot do this
    itself, so the workers are read from its private table, which
    ``shutdown`` clears.
    """
    workers = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in workers:
        proc.terminate()
    for proc in workers:
        proc.join()


# Chunks per worker in a pooled sweep: enough that the last chunks to finish
# are short, few enough that dispatch stays a small fixed cost.
CHUNKS_PER_WORKER = 8


def run_sweep(
    check: str,
    params: dict,
    prime_from: int,
    prime_to: int,
    jobs: int = 1,
) -> SweepReport:
    """Run one check over all primes in [prime_from, prime_to].

    The parameters are validated once, before any prime runs.  With jobs > 1
    the tasks go to a pool of min(jobs, primes, cores) processes.  The
    primes, largest first, are dealt in turn into at most CHUNKS_PER_WORKER
    chunks per worker, so each chunk mixes large and small primes, the
    largest start first, and the pool takes one task per chunk.  The report
    lists the primes in ascending order either way.  On interruption the
    unfinished primes are recorded as skips, so the report still covers the
    requested range: run alone, each prime that finished keeps its outcome;
    in a pool, each prime of a chunk whose results came back does, the
    chunks still queued are cancelled rather than run, and the workers are
    ended with the chunks they hold.
    """
    if check not in CHECKS:
        raise ValueError(f"unknown check {check!r}")
    CHECKS[check].checked_args(params)
    primes = primes_in_range(prime_from, prime_to)
    workers = min(jobs, len(primes), os.cpu_count() or 1)
    report = SweepReport(check, echo_params(params), prime_from, prime_to)
    start = time.monotonic()
    outcomes: dict[int, PrimeOutcome] = {}
    try:
        if workers <= 1:
            for p in primes:
                outcomes[p] = run_one(check, params, p)
        else:
            from concurrent.futures import as_completed
            largest_first = primes[::-1]
            n_chunks = min(len(primes), CHUNKS_PER_WORKER * workers)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                try:
                    futures = [pool.submit(_run_chunk, check, params, largest_first[i::n_chunks]) for i in range(n_chunks)]
                    for fut in as_completed(futures):
                        for outcome in fut.result():
                            outcomes[outcome.p] = outcome
                except KeyboardInterrupt:
                    _stop_workers(pool)
                    raise
    except KeyboardInterrupt:
        for p in primes:
            outcomes.setdefault(p, PrimeOutcome(p, SKIP, "interrupted"))
        report.results = [outcomes[p] for p in primes]
        report.duration_ms = int((time.monotonic() - start) * 1000)
        raise SweepInterrupted(report) from None
    report.results = [outcomes[p] for p in primes]
    report.duration_ms = int((time.monotonic() - start) * 1000)
    return report


class SweepInterrupted(KeyboardInterrupt):
    """Carries the partial report out of an interrupted sweep."""

    def __init__(self, report: SweepReport):
        self.report = report
        super().__init__()
