import argparse
import dataclasses
import json
import os
import subprocess
import sys

import pytest

import fmpl
from fmpl import sweep
from fmpl.cli import build_parser, main
from fmpl.identities import CheckResult
from fmpl.words import Index


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_fmp(capsys):
    code, out, _ = run_cli(capsys, "eval", "fmp", "-k", "1", "-p", "3")
    assert code == 0 and out.strip() == "T + 2*T^2"


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
    assert doc["summary"] == {"pass": 8, "fail": 0, "skip": 0}
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
    # np.ma.is_masked in numpy 2.4), which costs a sweep about 3 MiB of RSS
    script = (
        "import contextlib, io, sys\n"
        "from fmpl.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify', 'main', '-l', '2,1,2,1', '-r', '3,1,2', '--primes', '5..50', '--jobs', '1'])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(fmpl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
