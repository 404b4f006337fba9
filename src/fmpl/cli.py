"""Command-line front end: evaluate, multiply symbolically, sweep-verify.

Index arguments use comma-separated positive integers ("2,3"); the empty
index is the literal "-".  Each verify check is one entry of
fmpl.sweep.CHECKS, which declares its flags and validates them.  Verify
commands run over an inclusive prime range "a..b" (default 5..199,
b < 2^31) and can write machine-readable JSON or CSV reports.  Exit
status: 0 all primes pass (skips allowed), 1 any failure, 2 usage error
(an --out path that cannot be written is one, found before any prime
runs, and so is an eval whose tables do not fit in memory), 3 no failure
but a check raised an error at some prime (the report records it, and the
other primes keep their outcomes), 130 interrupted (the partial report is
still written), 141 stdout closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Optional, Sequence

from .identities import shuffle_correction
from .evaluate import eval_fmp, eval_fmp_triple, eval_zeta, eval_zeta_variant
from .modular import MAX_PRIME
from .sweep import CHECKS, SweepInterrupted, SweepReport, run_sweep
from .words import Index, shuffle, stuffle


def _index(text: str) -> Index:
    try:
        return Index.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _prime_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected a range like 5..199, got {text!r}")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a range like 5..199, got {text!r}") from None
    if a < 2 or b < a:
        raise argparse.ArgumentTypeError(f"invalid prime range {text!r}")
    if b >= MAX_PRIME:
        raise argparse.ArgumentTypeError(f"prime range {text!r} exceeds the supported maximum {MAX_PRIME - 1}")
    return a, b


def _positive(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fmpl", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)

    ev = top.add_parser("eval", help="evaluate a sum family at one prime")
    ev_kinds = ev.add_subparsers(dest="kind", required=True)
    for kind in ("fmp", "zeta", "zeta-variant", "fmp3"):
        sub = ev_kinds.add_parser(kind)
        sub.add_argument("-p", type=int, required=True, help="prime modulus")
        if kind == "fmp3":
            sub.add_argument("-L", type=_index, required=True, help="first block index")
            sub.add_argument("-M", type=_index, required=True, help="second block index")
            sub.add_argument("-N", type=_index, required=True, help="third block index")
        else:
            sub.add_argument("-k", type=_index, required=True, help="index, e.g. 2,3 or -")
        if kind == "zeta-variant":
            sub.add_argument("-i", type=_positive, required=True, help="band selector")
        if kind in ("fmp", "fmp3"):
            sub.add_argument("--at", type=int, default=None, help="evaluate the polynomial at T = AT")

    pr = top.add_parser("product", help="symbolic products of two indices")
    pr_kinds = pr.add_subparsers(dest="kind", required=True)
    for kind in ("shuffle", "stuffle", "correction"):
        sub = pr_kinds.add_parser(kind)
        sub.add_argument("-l", type=_index, required=True, help="left index")
        sub.add_argument("-r", type=_index, required=True, help="right index")

    vf = top.add_parser("verify", help="sweep a check over a prime range")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--primes", type=_prime_range, default=(5, 199), help="inclusive range a..b (default 5..199)")
    common.add_argument("--out", default=None, help="write a machine-readable report to this path")
    common.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
    common.add_argument("--jobs", type=_positive, default=None, help="worker count (default: FMP_JOBS or all cores)")
    vf_kinds = vf.add_subparsers(dest="check", required=True)
    for name, check in CHECKS.items():
        sub = vf_kinds.add_parser(name, parents=[common])
        for param, typ in check.params:
            flag = f"-{param}" if len(param) == 1 else f"--{param}"
            sub.add_argument(flag, type=_index if typ is Index else _positive, required=True)
    return parser


def _resolve_jobs(args: argparse.Namespace) -> int:
    if args.jobs is not None:
        return args.jobs
    env = os.environ.get("FMP_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            print(f"fmpl: ignoring malformed FMP_JOBS={env!r}", file=sys.stderr)
    return os.cpu_count() or 1


def _print_report(report: SweepReport) -> None:
    for res in report.results:
        if res.status == "pass" and res.detail:
            print(f"p={res.p}: pass {res.detail}")
        elif res.status != "pass":
            print(f"p={res.p}: {res.status} {res.detail or ''}".rstrip(), file=sys.stderr)
    s = report.summary
    params = " ".join(f"{k}={v}" for k, v in report.params.items())
    print(
        f"check={report.check} {params} primes={report.prime_from}..{report.prime_to}: "
        f"pass={s['pass']} fail={s['fail']} skip={s['skip']} error={s['error']} ({report.duration_ms} ms)"
    )


def _cmd_eval(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        if args.kind == "fmp":
            value = eval_fmp(args.k, args.p)
        elif args.kind == "fmp3":
            value = eval_fmp_triple(args.L, args.M, args.N, args.p)
        elif args.kind == "zeta":
            print(eval_zeta(args.k, args.p))
            return 0
        else:
            print(eval_zeta_variant(args.i, args.k, args.p))
            return 0
    except ValueError as exc:
        parser.error(str(exc))
    except MemoryError:
        parser.error(f"not enough memory for the tables at p = {args.p}")
    if args.at is not None:
        print(value.evaluate(args.at))
    else:
        sys.stdout.writelines(value.text_chunks())  # str(value), one piece at a time
        sys.stdout.write("\n")
    return 0


def _cmd_product(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.kind == "shuffle":
        print(shuffle(args.l, args.r))
    elif args.kind == "stuffle":
        print(stuffle(args.l, args.r))
    else:
        try:
            CHECKS["main"].checked_args({"l": args.l, "r": args.r})
        except ValueError as exc:
            parser.error(str(exc))
        expr = shuffle_correction(args.l, args.r)
        impure = expr.impure_terms()
        print(f"pure: {expr.pure_part()}")
        print(f"impure: {' + '.join(str(t) for t in impure) if impure else '0'}")
    return 0


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    check = CHECKS[args.check]
    params = {name: getattr(args, name) for name, _ in check.params}
    try:
        check.checked_args(params)
    except ValueError as exc:
        parser.error(str(exc))
    lo, hi = args.primes
    jobs = _resolve_jobs(args)
    # opened before any prime runs, so that a path that cannot be written is a usage error
    try:
        out = open(args.out, "w", encoding="utf-8") if args.out is not None else contextlib.nullcontext()
    except OSError as exc:
        parser.error(f"cannot write the report to {args.out}: {exc.strerror}")
    with out as fh:
        try:
            report = run_sweep(args.check, params, lo, hi, jobs=jobs)
            code = report.exit_code
        except SweepInterrupted as exc:
            print("fmpl: interrupted, writing partial report", file=sys.stderr)
            report, code = exc.report, 130
        if fh is not None:
            fh.write(report.to_json() if args.format == "json" else report.to_csv())
    _print_report(report)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"eval": _cmd_eval, "product": _cmd_product, "verify": _cmd_verify}
    try:
        code = commands[args.command](args, parser)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`fmpl ... | head`); as the note on SIGPIPE in
        # the signal module's docs does, point stdout at devnull so that the
        # flush at exit cannot raise again, and exit as SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
