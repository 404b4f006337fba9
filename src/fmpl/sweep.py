"""Prime-sweep execution of the per-prime checks, with JSON/CSV reports.

A sweep runs one named check with fixed parameters over every prime in an
inclusive range.  Workers receive immutable (check, params, prime) task
descriptors; results are merged into a report ordered by prime.  A prime
where a rational coefficient loses meaning, or one outside the domain where
the check's identity is claimed, is recorded as a skip with its reason,
never silently dropped, so a sweep verdict is always "pass with exception
set".
"""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Optional

from .identities import (
    CheckResult,
    ExceptionalPrimeError,
    pfd_check,
    verify_eq7,
    verify_li_at_one,
    verify_main,
    verify_prop24,
    verify_reversal,
    verify_stuffle,
)
from .modular import primes_in_range
from .surjections import bijection_roundtrip
from .words import Index

PASS, FAIL, SKIP = "pass", "fail", "skip"


class OutsideDomainError(ValueError):
    """The prime lies outside the range where the check's identity is claimed."""


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
        counts = {PASS: 0, FAIL: 0, SKIP: 0}
        for r in self.results:
            counts[r.status] += 1
        return counts

    @property
    def exit_code(self) -> int:
        return 0 if self.summary[FAIL] == 0 else 1

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


def _check_eq7(params: dict, p: int) -> CheckResult:
    return verify_eq7(params["L"], params["M"], params["N"], p)


def _check_main(params: dict, p: int) -> CheckResult:
    return verify_main(params["l"], params["r"], p)


def _check_prop24(params: dict, p: int) -> CheckResult:
    return verify_prop24(params["i"], params["k"], p)


def _check_stuffle(params: dict, p: int) -> CheckResult:
    return verify_stuffle(params["l"], params["r"], p)


def _check_pfd(params: dict, p: int) -> CheckResult:
    return pfd_check(params["alpha"], params["beta"], p)


def _check_bijection(params: dict, p: int) -> CheckResult:
    ok, detail = bijection_roundtrip(params["r"], p)
    return CheckResult(ok, detail)


def _check_reversal(params: dict, p: int) -> CheckResult:
    return verify_reversal(params["k"], p)


def _check_li_at_one(params: dict, p: int) -> CheckResult:
    k = params["k"]
    if p <= k.weight + k.depth:
        raise OutsideDomainError(f"outside the domain p > wt(k) + dep(k) = {k.weight + k.depth}")
    return verify_li_at_one(k, p)


CHECKS: dict[str, Callable[[dict, int], CheckResult]] = {
    "eq7": _check_eq7,
    "main": _check_main,
    "prop24": _check_prop24,
    "stuffle": _check_stuffle,
    "pfd": _check_pfd,
    "bijection": _check_bijection,
    "reversal": _check_reversal,
    "li-at-1": _check_li_at_one,
}


def echo_params(params: dict) -> dict[str, str]:
    """Stable string form of the parameters for reports."""
    out = {}
    for key, value in params.items():
        out[key] = value.text() if isinstance(value, Index) else str(value)
    return out


def run_one(check: str, params: dict, p: int) -> PrimeOutcome:
    """Execute one (check, prime) task; exceptional and out-of-domain primes become skips."""
    try:
        result = CHECKS[check](params, p)
    except (ExceptionalPrimeError, OutsideDomainError) as exc:
        return PrimeOutcome(p, SKIP, str(exc))
    if result.ok:
        return PrimeOutcome(p, PASS, result.detail)
    return PrimeOutcome(p, FAIL, result.detail)


def run_sweep(
    check: str,
    params: dict,
    prime_from: int,
    prime_to: int,
    jobs: int = 1,
) -> SweepReport:
    """Run one check over all primes in [prime_from, prime_to].

    With jobs > 1 the per-prime tasks are dispatched to a process pool; on
    interruption the unfinished primes are recorded as skips so the report
    still covers the requested range.
    """
    if check not in CHECKS:
        raise ValueError(f"unknown check {check!r}")
    primes = primes_in_range(prime_from, prime_to)
    report = SweepReport(check, echo_params(params), prime_from, prime_to)
    start = time.monotonic()
    outcomes: dict[int, PrimeOutcome] = {}
    try:
        if jobs <= 1 or len(primes) <= 1:
            for p in primes:
                outcomes[p] = run_one(check, params, p)
        else:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = {pool.submit(run_one, check, params, p): p for p in primes}
                pending = set(futures)
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for fut in done:
                        outcome = fut.result()
                        outcomes[outcome.p] = outcome
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
