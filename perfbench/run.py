"""Benchmark of ``fmpl verify`` sweeps, end to end and per module.

Run from the root of a checkout::

    python3 perfbench/run.py --workload main-w6 --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Each sweep runs through ``fmpl.cli.main`` in a fresh interpreter (see
``child.py``), so the caches start cold as they do for every CLI call.
With ``--trace 0`` the run repeats the sweep while another one fits in
``--seconds`` and reports medians of the end-to-end metrics.  With ``--trace 1`` it runs
the sweep once untraced at the workload's worker count, once untraced at
one worker (if different) and once traced at one worker, and reports the
per-layer metrics.  Either way it checks every prime's status, value
fingerprints at the smallest and largest prime, and literal-loop oracles.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1 when
a check fails.  Full results, with provenance, are written under
``.bench_out/`` in the checkout, and traced spans next to them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 7  # setup-only interpreters per run, besides one per sweep
DEADLINE_S = 170  # a run ends within this, whatever its children do


class ChildError(RuntimeError):
    """A child interpreter failed, was killed, or printed no result."""


class Run:
    """One benchmark run: its children, its deadline and its tally of checks."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.values = workload.indices(seed)
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_s: list[float] = []
        self.import_s: list[float] = []
        self.parse_s: list[float] = []
        self.tag = f"{workload.name}-seed{seed}"

    def child(self, *args: str):
        """Run child.py; return (its JSON line, wall seconds from spawn, rusage)."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep))
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            cwd=ROOT,
            env=env,
            start_new_session=True,
        )
        timer = threading.Timer(max(1.0, self.deadline - t_spawn), _kill_group, (proc.pid,))
        timer.start()
        try:
            out = proc.stdout.read().decode(errors="replace")
        except BaseException:  # interrupted: take the child's pool down with it
            _kill_group(proc.pid)
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
            _, status, rusage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        if proc.returncode != 0 or not isinstance(result, dict):
            sys.stderr.write(out[-2000:])
            raise ChildError(f"child {args[0]} exited with {proc.returncode}")
        return result, t_spawn, rusage

    def _record_setup(self, res, t_spawn):
        self.setup_s.append(res["t_parsed"] - t_spawn)
        self.import_s.append(res["t_import"] - res["t_start"])
        self.parse_s.append(res["t_parsed"] - res["t_import"])

    def setup(self, n: int) -> None:
        argv = self.workload.argv(self.values)
        for _ in range(n):
            res, t_spawn, _ = self.child("setup", "--", *argv)
            self._record_setup(res, t_spawn)

    def sweep(self, jobs: int | None = None, mode: str = "sweep") -> dict:
        """One sweep in a fresh interpreter (child.py `mode`); its primes count as operations."""
        primes = primes_in_range(*self.workload.primes)
        report = OUT / f"{self.tag}-report.json"
        report.unlink(missing_ok=True)
        argv = self.workload.argv(self.values, jobs) + ["--out", str(report)]
        self.attempted += len(primes)
        extra = (str(OUT / f"{self.tag}-spans.jsonl"),) if mode == "trace" else ()
        try:
            res, t_spawn, rusage = self.child(mode, *extra, "--", *argv)
            statuses = {r["p"]: r["status"] for r in json.loads(report.read_text())["results"]}
        except (ChildError, OSError, ValueError, KeyError) as exc:
            self.failures.extend(f"p={p}: sweep did not complete ({exc})" for p in primes)
            raise ChildError(str(exc)) from None
        bad = [p for p in primes if statuses.get(p) != "pass"]
        self.failures.extend(f"p={p}: status {statuses.get(p)}, expected pass" for p in bad)
        if res["rc"] != 0 and not bad:
            self.failures.append(f"fmpl exited with {res['rc']}")
        self._record_setup(res, t_spawn)
        res["sweep_s"] = res.get("t_end", 0) - res.get("t_call", 0)
        res["cpu_s"] = rusage.ru_utime + rusage.ru_stime
        res["peak_rss_mb"] = rusage.ru_maxrss / 1024
        return res

    def check_values(self) -> dict:
        res, _, _ = self.child("check", self.workload.name, str(self.seed))
        self.attempted += res["attempted"]
        self.failures.extend(res["mismatches"])
        return res


def _kill_group(pid: int) -> None:
    """Kill a child and its pool workers (its session); it may have just exited."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def primes_in_range(lo: int, hi: int) -> list[int]:
    """The benchmark's own sieve, so the expected prime set does not come from fmpl."""
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\0\0"
    for q in range(2, int(hi**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(sieve[q * q :: q]))
    return [n for n in range(max(lo, 2), hi + 1) if sieve[n]]


def describe(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples above it, if above the median."""
    ordered = sorted(samples)
    out = {"median": statistics.median(ordered), "n": len(ordered), "samples": samples}
    if len(ordered) >= 20:
        rank = len(ordered) - 10  # 1-based rank of the value with ten above it
        out["tail"] = {"percentile": round(100 * rank / len(ordered), 1), "value": ordered[rank - 1]}
    return out


def provenance(run: Run, check: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fmpl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": run.workload.name,
        "seed": run.seed,
        "argv": run.workload.argv(run.values),
        "fmpl_commit": commit,
        "fmpl_src_sha256": digest.hexdigest(),
        "fmpl_version": check.get("fmpl"),
        "python": check.get("python"),
        "numpy": check.get("numpy"),
        "nproc": os.cpu_count(),
    }


def measure(run: Run, seconds: int) -> dict:
    """End-to-end metrics: sweeps repeated while another fits in `seconds`, then set-up runs."""
    sweeps, walls = [], []
    start = time.monotonic()
    while not sweeps or time.monotonic() - start + statistics.median(walls) <= seconds:
        t0 = time.monotonic()
        sweeps.append(run.sweep())
        walls.append(time.monotonic() - t0)
    run.setup(SETUP_RUNS)
    samples = {name: [s[name] for s in sweeps] for name in ("sweep_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = run.setup_s
    return {name: describe(values) for name, values in samples.items()}


def measure_layers(run: Run) -> dict:
    """Per-layer metrics from one traced sweep at one worker, in process.

    An untraced sweep at one worker is the base for the tracing overhead and
    the pool efficiency, and measures the memory the caches keep.  Where the
    sweep calls eval_fmp_triple, one more sweep measures that call's peak
    under tracemalloc, which would slow the traced one.
    """
    base = run.sweep(jobs=1, mode="memory")
    untraced = base if run.workload.jobs == 1 else run.sweep()
    traced = run.sweep(jobs=1, mode="trace")
    metrics = {**traced["metrics"], **base["metrics"], "evaluate.eval_fmp_triple.peak_mb": 0.0}
    if metrics["evaluate.eval_fmp_triple.calls"]:
        metrics.update(run.sweep(jobs=1, mode="peak")["metrics"])
    run.setup(SETUP_RUNS)
    # the untraced one-worker sweep is the work; the traced task sum would count tracing too
    metrics["sweep.pool_eff"] = base["sweep_s"] / (run.workload.jobs * untraced["sweep_s"])
    metrics["cli.import_s"] = statistics.median(run.import_s)
    metrics["cli.parse_s"] = statistics.median(run.parse_s)
    metrics["trace.overhead_frac"] = traced["sweep_s"] / base["sweep_s"] - 1
    return metrics


def run_workload(workload, seed: int, seconds: int, trace: bool) -> dict:
    run = Run(workload, seed)
    OUT.mkdir(exist_ok=True)
    result: dict = {"metrics": {}}
    check: dict = {}
    try:
        check = run.check_values()
        if trace:
            result["layers"] = measure_layers(run)
        else:
            result["end_to_end"] = measure(run, seconds)
    except ChildError as exc:
        run.failures.append(f"run stopped: {exc}")
    result["provenance"] = provenance(run, check)
    result["attempted"] = max(run.attempted, 1)
    result["failed"] = min(len(run.failures), result["attempted"])
    result["failures"] = run.failures[:50]
    if "layers" in result:
        result["metrics"] = result["layers"]
    elif "end_to_end" in result:
        result["metrics"] = {k: v["median"] for k, v in result["end_to_end"].items()}
    (OUT / f"{run.tag}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_result(result: dict) -> None:
    prov = result["provenance"]
    print(f"{prov['workload']} seed={prov['seed']}: fmpl {' '.join(prov['argv'])}")
    for name, d in result.get("end_to_end", {}).items():
        tail = f", p{d['tail']['percentile']:g} {d['tail']['value']:.4f}" if "tail" in d else ", no tail percentile below 20 samples"
        print(f"  {name:<12} {d['median']:.4f} {unit(name):<4} (median of {d['n']}{tail})")
    for name, value in result.get("layers", {}).items():
        print(f"  {name:<40} {value:.6g}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':<12} {frac:.4f} ratio (failed {result['failed']} of {result['attempted']} operations)")
    for line in result["failures"][:10]:
        print(f"  FAIL {line}")
    print("  provenance " + json.dumps(prov))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "fmpl" / "__init__.py").is_file():
        print(f"perfbench: no fmpl sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)) for name in names}
    for result in results.values():
        print_result(result)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()}
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(line))
    return 0 if failed == 0 else 1


def unit(name: str) -> str:
    """The unit of a metric, read from its name."""
    last = name.rsplit(".", 1)[-1]
    if name.endswith(("_mb", ".mb")):
        return "MiB"
    if ".task_ms." in name:
        return "ms"
    if last in ("s", "sum") or last.endswith("_s"):
        return "s"
    if last in ("calls", "misses", "macs", "terms", "tasks"):
        return "count"
    if last == "p_exp":
        return "log-log"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
