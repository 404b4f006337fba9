"""One fresh interpreter of the benchmark; ``run.py`` starts one per measurement.

Usage (with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py setup -- <fmpl argv>       import fmpl and parse, then exit
    python3 perfbench/child.py sweep -- <fmpl argv>       ... and run fmpl.cli.main
    python3 perfbench/child.py trace SPANS -- <fmpl argv> ... traced, spans written to SPANS
    python3 perfbench/child.py memory -- <fmpl argv>      ... and measure the memory it keeps
    python3 perfbench/child.py peak -- <fmpl argv>        ... with eval_fmp_triple under tracemalloc
    python3 perfbench/child.py check WORKLOAD SEED        value fingerprints and oracles
    python3 perfbench/child.py record OUT_DIR             rewrite fingerprints.json

The last line of standard output is one JSON object.  Times are
``time.monotonic()`` readings, which the parent can compare with its own.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

FINGERPRINTS = Path(__file__).with_name("fingerprints.json")
ORACLE_PRIMES = (5, 7, 11, 13)


def _cli(argv):
    import fmpl.cli

    t_import = time.monotonic()
    fmpl.cli.build_parser().parse_args(argv)
    t_parsed = time.monotonic()
    return fmpl.cli, {"t_start": T_START, "t_import": t_import, "t_parsed": t_parsed}


def cmd_setup(argv):
    return _cli(argv)[1]


def cmd_sweep(argv):
    cli, out = _cli(argv)
    t_call = time.monotonic()
    out["rc"] = cli.main(argv)
    out["t_call"], out["t_end"] = t_call, time.monotonic()
    return out


def cmd_trace(spans_path, argv):
    """A sweep with spans and counters around every module's functions."""
    cli, out = _cli(argv)
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        t_call = time.monotonic()
        out["rc"] = cli.main(argv)
        out["t_call"], out["t_end"] = t_call, time.monotonic()
    finally:
        tracer.uninstall()
    out["metrics"] = layer_metrics(tracer, out["t_end"] - t_call)
    tracer.write_spans(spans_path)
    return out


def cmd_peak(argv):
    """A sweep where each eval_fmp_triple call runs under tracemalloc, for its peak."""
    cli, out = _cli(argv)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install_peak()
    try:
        out["rc"] = cli.main(argv)
    finally:
        tracer.uninstall()
    out["metrics"] = {"evaluate.eval_fmp_triple.peak_mb": max(tracer.triple_peaks, default=0.0)}
    return out


def _resident_mb() -> float:
    """Current resident set of this process, after freeing what can be freed."""
    import ctypes
    import gc
    import os

    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def cmd_memory(argv):
    """An untraced sweep, then the resident memory it left behind (what the caches keep)."""
    cli, out = _cli(argv)
    before = _resident_mb()
    t_call = time.monotonic()
    out["rc"] = cli.main(argv)
    out["t_call"], out["t_end"] = t_call, time.monotonic()
    out["metrics"] = {"mem.retained_mb": _resident_mb() - before}
    return out


# -- value fingerprints and oracles --------------------------------------------


def _digest(value) -> str:
    import hashlib

    from fmpl import ModPoly

    if isinstance(value, ModPoly):
        data = b"%d:" % value.p + value.coeffs.astype("<i8").tobytes()
    else:
        data = str(int(value)).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _blocks(workload, values):
    """(indices to evaluate on their own, the three blocks for eval_fmp_triple)."""
    from fmpl import EMPTY, Index

    idx = {flag: Index.parse(v) for flag, v in zip(workload.flags, values) if flag != "-i"}
    if workload.check == "eq7":
        triple = (idx["-L"], idx["-M"], idx["-N"])
    elif workload.check == "main":
        triple = (idx["-l"], idx["-r"], EMPTY)
    else:
        k = idx["-k"]
        triple = (k.head(), Index(k.parts[-1:]), EMPTY)
    return list(idx.values()), triple


def _values(workload, values, p):
    """Every evaluated value the fingerprints cover, keyed by the call."""
    from fmpl import eval_fmp, eval_fmp_triple, eval_zeta, eval_zeta_variant

    singles, triple = _blocks(workload, values)
    out = {}
    for k in singles:
        out[f"eval_fmp({k.text()})@{p}"] = eval_fmp(k, p)
        out[f"eval_zeta({k.text()})@{p}"] = eval_zeta(k, p)
        for i in range(1, k.depth + 1):
            out[f"eval_zeta_variant({i};{k.text()})@{p}"] = eval_zeta_variant(i, k, p)
    out["eval_fmp_triple(%s)@%d" % (";".join(b.text() for b in triple), p)] = eval_fmp_triple(*triple, p)
    return out


def _literal_zeta(k, p) -> int:
    """Sum over 0 < n_1 < ... < n_r < p of prod n_j^-k_j, by nested loops."""
    from itertools import combinations

    total = 0
    for ns in combinations(range(1, p), k.depth):
        term = 1
        for n, kj in zip(ns, k.parts):
            term = term * pow(n, -kj, p) % p
        total += term
    return total % p


def _oracle_checks(workload, values):
    """(name, ok) for each cross-check against the literal-loop oracles."""
    from fmpl import (
        brute_force_fmp,
        brute_force_fmp_triple,
        brute_force_zeta_variant,
        eval_fmp,
        eval_fmp_triple,
        eval_zeta,
        eval_zeta_variant,
    )
    from fmpl.evaluate import BRUTE_FORCE_MAX_DEPTH

    singles, triple = _blocks(workload, values)
    out = []
    for p in ORACLE_PRIMES:
        for k in singles:
            if k.depth > BRUTE_FORCE_MAX_DEPTH:
                continue
            out.append((f"eval_fmp({k.text()})@{p}", eval_fmp(k, p) == brute_force_fmp(k, p)))
            out.append((f"eval_zeta({k.text()})@{p}", eval_zeta(k, p) == _literal_zeta(k, p)))
            for i in range(1, k.depth + 1):
                ok = eval_zeta_variant(i, k, p) == brute_force_zeta_variant(i, k, p)
                out.append((f"eval_zeta_variant({i};{k.text()})@{p}", ok))
        if sum(b.depth for b in triple) <= BRUTE_FORCE_MAX_DEPTH:
            ok = eval_fmp_triple(*triple, p) == brute_force_fmp_triple(*triple, p)
            out.append(("eval_fmp_triple(%s)@%d" % (";".join(b.text() for b in triple), p), ok))
    return out


def _end_primes(workload):
    from fmpl import primes_in_range

    primes = primes_in_range(*workload.primes)
    return primes[0], primes[-1]


def cmd_check(name, seed):
    import numpy

    import fmpl
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    values = workload.indices(int(seed))
    recorded = json.loads(FINGERPRINTS.read_text())
    mismatches, attempted = [], 0
    for p in _end_primes(workload):
        for key, value in _values(workload, values, p).items():
            attempted += 1
            if recorded.get(key) != _digest(value):
                mismatches.append(f"fingerprint {key}: recorded {recorded.get(key)}, got {_digest(value)}")
    for key, ok in _oracle_checks(workload, values):
        attempted += 1
        if not ok:
            mismatches.append(f"oracle {key}: differs from the literal loop")
    return {
        "attempted": attempted,
        "mismatches": mismatches,
        "fmpl": fmpl.__version__,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }


def cmd_record(out_dir):
    """Fingerprint every candidate's values, after checking its full sweep passes."""
    import fmpl.cli

    from workloads import WORKLOADS

    fingerprints = {}
    Path(out_dir).mkdir(exist_ok=True)
    report_path = Path(out_dir) / "record-report.json"
    for workload in WORKLOADS.values():
        for seed_values in workload.candidates:
            fmpl.cli.main(workload.argv(seed_values) + ["--out", str(report_path)])
            summary = json.loads(report_path.read_text())["summary"]
            if summary["fail"] or summary["skip"]:
                raise SystemExit(f"{workload.name} {seed_values}: not every prime passes: {summary}")
            if not all(ok for _, ok in _oracle_checks(workload, seed_values)):
                raise SystemExit(f"{workload.name} {seed_values}: an oracle cross-check fails")
            for p in _end_primes(workload):
                for key, value in _values(workload, seed_values, p).items():
                    fingerprints[key] = _digest(value)
    FINGERPRINTS.write_text(json.dumps(fingerprints, indent=1, sort_keys=True) + "\n")
    return {"recorded": len(fingerprints)}


def main(argv):
    mode, rest = argv[0], argv[1:]
    fmpl_argv = rest[rest.index("--") + 1 :] if "--" in rest else []
    if mode == "setup":
        out = cmd_setup(fmpl_argv)
    elif mode == "sweep":
        out = cmd_sweep(fmpl_argv)
    elif mode == "trace":
        out = cmd_trace(rest[0], fmpl_argv)
    elif mode == "peak":
        out = cmd_peak(fmpl_argv)
    elif mode == "memory":
        out = cmd_memory(fmpl_argv)
    elif mode == "check":
        out = cmd_check(rest[0], rest[1])
    elif mode == "record":
        out = cmd_record(rest[0])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    sys.stderr.flush()
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
