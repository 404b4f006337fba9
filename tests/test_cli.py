import argparse
import dataclasses
import json
import os
import resource
import signal
import subprocess
import sys
import time

import pytest

from fmpl import sweep
from fmpl.cli import build_parser, main
from fmpl.identities import CheckResult
from fmpl.modular import primes_in_range
from fmpl.words import Index
from helpers import subprocess_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_fmp(capsys):
    code, out, _ = run_cli(capsys, "eval", "fmp", "-k", "1", "-p", "3")
    assert code == 0 and out.strip() == "T + 2*T^2"


def test_eval_fmp_writes_the_polynomial_in_pieces(capsys):
    # li_(2,1) at p = 40009 has about 80,000 terms, so it is written in two pieces
    from fmpl.evaluate import eval_fmp, eval_fmp_triple

    value = eval_fmp(Index((2, 1)), 40009)
    assert len(list(value.text_chunks())) == 2
    code, out, _ = run_cli(capsys, "eval", "fmp", "-k", "2,1", "-p", "40009")
    assert code == 0 and out == str(value) + "\n"
    code, out, _ = run_cli(capsys, "eval", "fmp3", "-L", "2", "-M", "1", "-N", "1", "-p", "101")
    assert code == 0 and out == str(eval_fmp_triple(Index((2,)), Index((1,)), Index((1,)), 101)) + "\n"


def test_eval_fmp_empty_index(capsys):
    code, out, _ = run_cli(capsys, "eval", "fmp", "-k", "-", "-p", "7")
    assert code == 0 and out.strip() == "1"


def test_eval_fmp_at(capsys):
    code, out, _ = run_cli(capsys, "eval", "fmp", "-k", "2,1", "-p", "11", "--at", "1")
    assert code == 0 and out.strip() == "0"


def test_eval_zeta(capsys):
    code, out, _ = run_cli(capsys, "eval", "zeta", "-k", "1", "-p", "5")
    assert code == 0 and out.strip() == "0"


def test_eval_zeta_variant(capsys):
    code, out, _ = run_cli(capsys, "eval", "zeta-variant", "-i", "2", "-k", "1,1", "-p", "5")
    assert code == 0 and out.strip() == "0"


def test_eval_fmp3(capsys):
    code, out, _ = run_cli(capsys, "eval", "fmp3", "-L", "1", "-M", "1", "-N", "-", "-p", "3")
    assert code == 0 and out.strip() == "T^2 + T^3 + T^4"


def test_eval_zeta_variant_out_of_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "zeta-variant", "-i", "3", "-k", "1,1", "-p", "5"])
    assert exc.value.code == 2


def test_eval_rejects_composite_prime(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "fmp", "-k", "1", "-p", "6"])
    assert exc.value.code == 2


def test_eval_rejects_a_modulus_that_is_not_an_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "fmp", "-k", "1", "-p", "abc"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "'abc'" in err and "Traceback" not in err


@pytest.mark.parametrize("p", ("3215031751", str(2**64)))
def test_eval_rejects_primes_past_the_supported_range(capsys, p):
    # 3215031751 is a strong pseudoprime to is_prime's small bases; 2^64 is past its domain
    with pytest.raises(SystemExit) as exc:
        main(["eval", "zeta", "-k", "1", "-p", p])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"{p} is not a prime in the supported range" in err and "Traceback" not in err


def test_eval_out_of_memory_is_usage_error():
    # the tables at p = 2^31 - 1 need a 16 GiB array; the child alone may map 3 GiB
    limit = 3 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "fmpl.cli", "eval", "zeta", "-k", "1", "-p", "2147483647"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "p = 2147483647" in proc.stderr


def test_eval_rejects_malformed_index(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "fmp", "-k", "2,x", "-p", "5"])
    assert exc.value.code == 2


def test_product_shuffle(capsys):
    code, out, _ = run_cli(capsys, "product", "shuffle", "-l", "2", "-r", "3")
    assert code == 0 and out.strip() == "(2,3) + 3*(3,2) + 6*(4,1)"


def test_product_stuffle(capsys):
    code, out, _ = run_cli(capsys, "product", "stuffle", "-l", "2", "-r", "3")
    assert code == 0 and out.strip() == "(2,3) + (3,2) + (5)"


def test_product_correction(capsys):
    code, out, _ = run_cli(capsys, "product", "correction", "-l", "1", "-r", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "pure: 2*(1,1)"
    assert lines[1] == "impure: -1*zeta(2)*Tp^1*li()"


def test_verify_main_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "main", "-l", "1", "-r", "1", "--primes", "3..3")
    assert code == 0
    assert "pass=1 fail=0 skip=0" in out


def test_verify_failure_exit_one(capsys, monkeypatch):
    failing = dataclasses.replace(sweep.CHECKS["li-at-1"], run=lambda k, p: CheckResult(False, "li(1) = 1"))
    monkeypatch.setitem(sweep.CHECKS, "li-at-1", failing)
    code, out, err = run_cli(capsys, "verify", "li-at-1", "-k", "1", "--primes", "5..5")
    assert code == 1
    assert "fail=1" in out
    assert "li(1) = 1" in err


def test_verify_error_at_one_prime_exits_three(capsys, monkeypatch, tmp_path):
    def raises_at_seven(k, p):
        if p == 7:
            raise MemoryError("planted at p = 7")
        return CheckResult(True)

    monkeypatch.setitem(sweep.CHECKS, "planted", dataclasses.replace(sweep.CHECKS["reversal"], run=raises_at_seven))
    path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "verify", "planted", "-k", "1", "--primes", "5..13", "--jobs", "1", "--out", str(path))
    assert code == 3
    assert "pass=3 fail=0 skip=0 error=1" in out
    assert "p=7: error MemoryError: planted at p = 7" in err
    doc = json.loads(path.read_text())
    assert doc["summary"] == {"pass": 3, "fail": 0, "skip": 0, "error": 1}
    assert [(e["p"], e["status"]) for e in doc["results"]] == [(5, "pass"), (7, "error"), (11, "pass"), (13, "pass")]


def test_verify_li_at_one_skips_outside_domain(capsys):
    code, out, err = run_cli(capsys, "verify", "li-at-1", "-k", "1", "--primes", "2..7", "--jobs", "1")
    assert code == 0
    assert "pass=3 fail=0 skip=1" in out
    assert "p=2: skip outside the domain p > wt(k) + dep(k) = 2" in err


def test_verify_unknown_check_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense", "-k", "1"])
    assert exc.value.code == 2


def _subcommands(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_verify_subcommands_follow_registry():
    parser = build_parser()
    verify = _subcommands(_subcommands(parser)["verify"])
    assert list(verify) == list(sweep.CHECKS)
    for name, check in sweep.CHECKS.items():
        flags = [f"-{param}" if len(param) == 1 else f"--{param}" for param, _ in check.params]
        required = [opt for a in verify[name]._actions if a.required for opt in a.option_strings]
        assert required == flags, name
        argv = ["verify", name] + [arg for flag in flags for arg in (flag, "2")]
        args = parser.parse_args(argv)
        assert [getattr(args, param) for param, _ in check.params] == [
            Index.of(2) if typ is Index else 2 for _, typ in check.params
        ]


@pytest.mark.parametrize("primes", ["2147483648..2147483700", "5..2147483648"])
def test_verify_range_beyond_max_prime_usage_error(capsys, primes):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["verify", "stuffle", "-l", "2", "-r", "3", "--primes", primes])
    assert exc.value.code == 2
    assert "exceeds the supported maximum 2147483647" in capsys.readouterr().err
    args = build_parser().parse_args(["verify", "stuffle", "-l", "2", "-r", "3", "--primes", "5..2147483647"])
    assert args.primes == (5, 2147483647)


def test_verify_bad_range_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "stuffle", "-l", "2", "-r", "3", "--primes", "10..5"])
    assert exc.value.code == 2


def test_verify_eq7_requires_nonempty_blocks(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "eq7", "-L", "-", "-M", "1", "-N", "1", "--primes", "5..7"])
    assert exc.value.code == 2


def test_product_correction_too_deep_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["product", "correction", "-l", "1,1,1,1,1", "-r", "1,1,1,1,1"])
    assert exc.value.code == 2
    assert "exceeds the supported maximum" in capsys.readouterr().err


def test_verify_main_too_deep_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "main", "-l", "1,1,1,1,1", "-r", "1,1,1,1,1", "--primes", "5..7", "--jobs", "1"])
    assert exc.value.code == 2
    assert "exceeds the supported maximum" in capsys.readouterr().err


def test_verify_prop24_too_deep_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "prop24", "-i", "1", "-k", "1,1,1,1,1,1,1,1,1", "--primes", "5..7", "--jobs", "1"])
    assert exc.value.code == 2
    assert "exceeds the supported maximum" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["prop24", "-i", "1", "-k", str(2**63)],
        ["stuffle", "-l", str(2**62), "-r", str(2**62)],
    ],
)
def test_verify_index_weight_of_2_to_the_63_usage_error(capsys, argv):
    # each part is accepted, but a part or a stuffle merge of 2^63 would not
    # fit the int64 arrays of the evaluators
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv, "--primes", "5..7", "--jobs", "1"])
    assert exc.value.code == 2
    assert "total index weight 9223372036854775808 is not below the supported maximum 2^63" in capsys.readouterr().err


def test_verify_stuffle_just_below_the_weight_bound(capsys):
    code, out, _ = run_cli(capsys, "verify", "stuffle", "-l", str(2**62), "-r", str(2**62 - 1), "--primes", "5..7", "--jobs", "1")
    assert code == 0 and "pass=2 fail=0 skip=0" in out


def test_product_correction_at_the_depth_limit_is_fast():
    # dep(l) + dep(r) = MAX_R + 1 in a fresh interpreter, so nothing is cached
    argv = [sys.executable, "-m", "fmpl.cli", "product", "correction", "-l", "1,1,1,1,1", "-r", "1,1,1,1"]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, env=subprocess_env(), timeout=120)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 5, f"depth-9 correction took {elapsed:.1f}s"


def test_verify_bijection_detail_lines(capsys):
    code, out, _ = run_cli(capsys, "verify", "bijection", "-r", "2", "--primes", "5..13")
    assert code == 0
    assert "p=5: pass |X_2| = 12" in out


def test_verify_writes_json_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "verify", "stuffle", "-l", "2", "-r", "3", "--primes", "5..30", "--out", str(path)
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["check"] == "stuffle"
    assert doc["summary"] == {"pass": 8, "fail": 0, "skip": 0, "error": 0}
    assert [e["p"] for e in doc["results"]] == [5, 7, 11, 13, 17, 19, 23, 29]


def test_verify_writes_csv_report(tmp_path, capsys):
    path = tmp_path / "report.csv"
    code, _, _ = run_cli(
        capsys,
        "verify", "pfd", "--alpha", "1", "--beta", "1",
        "--primes", "5..7", "--out", str(path), "--format", "csv",
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "check,params,p,status,detail"
    assert len(lines) == 3


def test_jobs_env_override(capsys, monkeypatch):
    monkeypatch.setenv("FMP_JOBS", "1")
    code, out, _ = run_cli(capsys, "verify", "reversal", "-k", "2", "--primes", "5..11")
    assert code == 0 and "pass=3" in out


def test_jobs_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("FMP_JOBS", "not-a-number")
    code, out, err = run_cli(capsys, "verify", "reversal", "-k", "2", "--primes", "5..11", "--jobs", "1")
    assert code == 0 and "ignoring malformed" not in err


def test_at_rejected_for_scalar_kinds(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "zeta", "-k", "1", "-p", "5", "--at", "1"])
    assert exc.value.code == 2


def test_index_with_zero_part_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "fmp", "-k", "0", "-p", "5"])
    assert exc.value.code == 2


def test_verify_main_leaves_numpy_ma_unimported():
    # np.unique without return_* flags imports numpy.ma (through
    # np.ma.is_masked in numpy 2.4), which costs a sweep about 3 MiB of RSS;
    # and the symbolic layer's coefficients are ints, so nothing imports fractions
    script = (
        "import contextlib, io, sys\n"
        "from fmpl.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify', 'main', '-l', '2,1,2,1', '-r', '3,1,2', '--primes', '5..50', '--jobs', '1'])\n"
        "print(code, 'numpy.ma' in sys.modules, 'fractions' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=subprocess_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False", "False"]


def test_sweep_at_one_worker_leaves_the_process_pool_unimported():
    # the pool's import loads multiprocessing, about 1.3 MiB of RSS in every process
    script = (
        "import contextlib, io, sys\n"
        "from fmpl.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify', 'eq7', '-L', '1,1', '-M', '2', '-N', '1', '--primes', '2000..2030', '--jobs', '1'])\n"
        "print(code, 'concurrent.futures.process' in sys.modules, 'multiprocessing' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=subprocess_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False", "False"]


# the bijection check visits all (p - 1)^r tuples in Python, about 4 * 10^9 at
# r = 3 and p near 1600, so this sweep runs far longer than any test waits
SLOW_SWEEP = ["verify", "bijection", "-r", "3", "--primes", "1500..1700"]


def test_pfd_sweep_checks_one_row_a_prime():
    # the exhaustive double loop took about a minute here at two workers
    proc = subprocess.run(
        [sys.executable, "-m", "fmpl.cli", "verify", "pfd", "--alpha", "1", "--beta", "1", "--primes", "1500..1700", "--jobs", "2"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"pass={len(primes_in_range(1500, 1700))} fail=0" in proc.stdout


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_verify_unwritable_out_is_a_usage_error_before_the_sweep(tmp_path, where):
    path = tmp_path / "missing" / "r.json" if where == "missing-directory" else tmp_path
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "fmpl.cli", *SLOW_SWEEP, "--jobs", "1", "--out", str(path)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=30,
    )
    assert time.monotonic() - start < 10
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and str(path) in proc.stderr


@pytest.mark.parametrize("target", ["parent", "group"])
def test_interrupted_pooled_sweep_ends_its_workers(tmp_path, target):
    # Ctrl-C reaches the parent alone (kill) or, as from a terminal, the whole group
    report = tmp_path / "r.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "fmpl.cli", *SLOW_SWEEP, "--jobs", "2", "--out", str(report)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=subprocess_env(),
        start_new_session=True,
        # a shell's background job starts with SIGINT ignored, and Python then installs no handler
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        time.sleep(2)
        if target == "parent":
            os.kill(proc.pid, signal.SIGINT)
        else:
            os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=10)
        assert proc.returncode == 130, err
        results = json.loads(report.read_text())["results"]
        assert [r["p"] for r in results] == primes_in_range(1500, 1700)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # no worker is left in the session
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=10)


def _close_stdout_early(argv, read_bytes):
    """Run the CLI, read `read_bytes` of its output, close the pipe; return (exit code, stderr)."""
    env = subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as by default, so the last write is a flush
    proc = subprocess.Popen(
        [sys.executable, "-m", "fmpl.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        proc.stdout.read(read_bytes)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    return proc.returncode, err.decode()


def test_eval_into_a_closed_pipe_exits_141():
    # li_(2,1) at p = 100003 is about 2 MB of text, more than a pipe holds
    code, err = _close_stdout_early(["eval", "fmp", "-k", "2,1", "-p", "100003"], 10)
    assert code == 141, err
    assert "Traceback" not in err


def test_verify_into_a_closed_pipe_exits_141_and_keeps_its_report(tmp_path):
    report = tmp_path / "r.json"
    argv = ["verify", "main", "-l", "1", "-r", "1", "--primes", "5..2000", "--jobs", "1", "--out", str(report)]
    code, err = _close_stdout_early(argv, 0)
    assert code == 141, err
    assert "Traceback" not in err
    assert json.loads(report.read_text())["summary"] == {"pass": len(primes_in_range(5, 2000)), "fail": 0, "skip": 0, "error": 0}
