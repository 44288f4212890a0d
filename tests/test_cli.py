import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pellred
from pellred.cli import emit_table, main
from pellred.pell2 import PellProblem, solve
from pellred.pellm import DivisibilityReport
from pellred.polyring import Poly
from pellred.redei import redei_recurrence

FIXTURES = Path(__file__).parent / "fixtures"

TABLES = [
    ("table1.txt", "x^4-1", "x^2", 5),
    ("table2.txt", "x^4+2", "x^2", 6),
    ("table3.txt", "x^2+3", "x", 5),
]


class TestGoldenTables:
    @pytest.mark.parametrize("fixture, alpha, z, n_max", TABLES)
    def test_emit_matches_fixture(self, fixture, alpha, z, n_max):
        expected = (FIXTURES / fixture).read_text()
        assert emit_table(Poly(alpha), Poly(z), n_max) == expected

    @pytest.mark.parametrize("fixture, alpha, z, n_max", TABLES)
    def test_cli_matches_fixture(self, fixture, alpha, z, n_max, capsys):
        code = main(["table", "--alpha", alpha, "--z", z, "--n-max", str(n_max)])
        assert code == 0
        assert capsys.readouterr().out == (FIXTURES / fixture).read_text()

    def test_empty_table(self):
        assert emit_table(Poly("x^2+3"), Poly("x"), 0) == "n\tN\tD\n"
        assert emit_table(Poly("x^2+3"), Poly("x"), 0, as_json=True) == ""


class TestJsonOutput:
    def test_table_roundtrip(self, capsys):
        main(["table", "--alpha", "x^2+3", "--z", "x", "--n-max", "4", "--json"])
        out = capsys.readouterr().out
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["n"] for r in rows] == [1, 2, 3, 4]
        for r in rows:
            pair = redei_recurrence(Poly("x^2+3"), Poly("x"), r["n"])
            assert Poly.from_json(r["N"]) == pair.N
            assert Poly.from_json(r["D"]) == pair.D

    def test_solve_json(self, capsys):
        main(["solve", "-f", "x^2", "-d", "2", "-n", "2", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert Poly.from_json(data["P"]) == Poly("-x^4-1")
        assert data["integral"] is True
        assert data["normalizer"] == "-2"

    def test_rational_solution_roundtrips(self, capsys):
        main(["solve", "-f", "x", "-d", "3", "-n", "2", "--json"])
        data = json.loads(capsys.readouterr().out)
        P = Poly.from_json(data["P"])
        assert not P.is_integral()
        assert data["integral"] is False


class TestCommands:
    def test_redei(self, capsys):
        assert main(["redei", "--alpha", "x^4-1", "--z", "x^2", "-n", "3"]) == 0
        assert capsys.readouterr().out == "N = 4x^6-3x^2\nD = 4x^4-1\n"

    def test_classify(self, capsys):
        assert main(["classify", "-d", "3"]) == 0
        assert capsys.readouterr().out == "NONE\n"
        assert main(["classify", "-d", "-1"]) == 0
        assert capsys.readouterr().out == "ALL_N\n"

    def test_classify_degree_m(self, capsys):
        assert main(["classify", "-r", "3", "-m", "3", "-n", "6"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_solve(self, capsys):
        assert main(["solve", "-f", "x^2", "-d", "2", "-n", "6"]) == 0
        out = capsys.readouterr().out
        assert "P = -4x^12-12x^8-9x^4-1" in out
        assert "integral = true" in out

    def test_solve_m(self, capsys):
        assert main(["solve-m", "-f", "x", "-r", "-3", "-m", "3", "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "R = -x^3-3" in out
        assert "P1 = 1" in out

    def test_verify_with_d(self, capsys):
        assert main(["verify", "--P", "2x^4-1", "--Q", "2x^2", "--D", "x^4-1"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_verify_with_f_d(self, capsys):
        # Polynomials with a leading minus need the --opt=value spelling.
        assert main(["verify", "--P=-x^4-1", "--Q=-x^2", "-f", "x^2", "-d", "2"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_verify_false(self, capsys):
        assert main(["verify", "--P", "2x^4-1", "--Q", "2x^2", "--D", "x^4+1"]) == 0
        assert capsys.readouterr().out == "false\n"

    def test_identify(self, capsys):
        assert main(["identify", "--P", "8x^8-8x^4+1", "--Q", "8x^6-4x^2", "-f", "x^2", "-d", "-1"]) == 0
        assert capsys.readouterr().out == "n = 4\n"

    def test_identify_unmatched(self, capsys):
        assert main(["identify", "--P", "3", "--Q", "2", "-f", "1", "-d", "1"]) == 0
        assert capsys.readouterr().out == "unidentified\n"

    def test_probe(self, capsys):
        assert main(["probe", "-f", "x", "-m", "3", "--n-max", "12"]) == 0
        assert "result = ok" in capsys.readouterr().out


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        assert main(["solve", "-f", "x", "-d", "3", "-n", "3"]) == 1
        assert "OddIndexUndefined" in capsys.readouterr().err

    def test_zero_d_is_one(self, capsys):
        assert main(["classify", "-d", "0"]) == 1
        assert "ZeroD" in capsys.readouterr().err

    def test_not_prime_is_one(self, capsys):
        assert main(["probe", "-f", "x", "-m", "4", "--n-max", "6"]) == 1
        assert "NotPrime" in capsys.readouterr().err

    def test_parse_error_is_two(self, capsys):
        assert main(["redei", "--alpha", "x^^2", "--z", "x", "-n", "2"]) == 2
        assert "ParseError" in capsys.readouterr().err

    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["redei", "--alpha", "x"])
        assert exc.value.code == 2

    def test_unknown_command_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["factorize", "x^2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve-m", "-f", "x", "-r", "1", "-m", "1", "-n", "1"],
            ["solve-m", "-f", "x", "-r", "1", "-m", "0", "-n", "1"],
            ["solve-m", "-f", "x", "-r", "1", "-m", "3", "-n", "-3"],
            ["redei", "--alpha", "x", "--z", "1", "-n", "-3"],
            ["solve", "-f", "x", "-d", "1", "-n", "-2"],
            ["classify", "-r", "1", "-m", "1", "-n", "2"],
            ["probe", "-f", "x", "-m", "3", "--n-max", "-2"],
            ["table", "--alpha", "x", "--z", "1", "--n-max", "-5"],
        ],
    )
    def test_invalid_index_is_one(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("InvalidIndex: ")
        assert captured.out == ""

    def test_verify_needs_a_target(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--P", "1", "--Q", "0"])
        assert exc.value.code == 2

    def test_verify_takes_one_target(self, capsys):
        # --D with -f or -d would leave one of the two targets unchecked.
        for extra in (["-f", "x", "-d", "1"], ["-f", "x"], ["-d", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--P", "2", "--Q", "1", "--D", "3", *extra])
            assert exc.value.code == 2
            assert "verify needs either --D, or -f together with -d" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [["-d", "3", "-r", "1", "-m", "2", "-n", "2"], ["-d", "3", "-n", "2"], ["-d", "5", "-r", "-1"]],
    )
    def test_classify_takes_one_form(self, extra, capsys):
        # -d with any of -r -m -n would answer one form and drop the other.
        with pytest.raises(SystemExit) as exc:
            main(["classify", *extra])
        assert exc.value.code == 2
        assert "classify needs -d, or the tuple -r -m -n" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["+2", "1_0", "\u0663", " 2", "2 ", "-", "--2"])
    def test_integer_flags_take_ascii_digits_only(self, value, capsys):
        # The form decimal_str prints, as in polynomial coefficients; int()
        # would read all but the last two.
        with pytest.raises(SystemExit) as exc:
            main(["solve", "-f", "x", f"-d={value}", "-n", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument -d: invalid decimal_int value: {value!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "line, err",
        [
            ("redei --alpha=-- --z x -n 2", "ParseError: expected a coefficient or 'x' (at position 1)\n"),
            ("verify --P=-- --Q 1 --D 1", "ParseError: expected a coefficient or 'x' (at position 1)\n"),
            ("solve -f=-- -d 1 -n 2", "ParseError: expected a coefficient or 'x' (at position 1)\n"),
            ("solve -f x -d=-- -n 2", "usage: pellred solve [-h] [--json] -f POLY -d D -n N\n"
             "pellred solve: error: argument -d: invalid decimal_int value: '--'\n"),
            ("classify -d=--", "usage: pellred classify [-h] [--json] [-d D] [-r R] [-m M] [-n N]\n"
             "pellred classify: error: argument -d: invalid decimal_int value: '--'\n"),
        ],
        ids=["redei --alpha", "verify --P", "solve -f", "solve -d", "classify -d"],
    )
    def test_attached_double_dash_is_the_value(self, line, err, monkeypatch):
        # Python 3.13's argparse reads "-d=--" as the value "--"; older ones
        # strip the "--" and store [], which the CLI reads the same way.
        monkeypatch.setenv("COLUMNS", "80")
        assert _run_cli(line.split()) == (2, "", err)

    @pytest.mark.parametrize("command", ["verify", "identify"])
    def test_zero_d_with_f_is_one(self, command, capsys):
        # -f with -d means D = f^2 + d, which is defined for d != 0 only.
        assert main([command, "--P", "1", "--Q", "0", "-f", "x", "-d", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("ZeroD: ")
        assert captured.out == ""


# -- every output byte of every subcommand --------------------------------------


def _run_cli(argv):
    """(exit code, stdout, stderr) of one main() call, usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_USAGE = (
    "usage: pellred [-h]\n"
    "               {redei,table,solve,solve-m,verify,identify,classify,probe} ...\n"
)
# 2001 digits: a denominator and a normalizer that print in full.
_BIG_DEN = "5" + "0" * 1999
_BIG_NORM = "1" + "0" * 2000

# (argv, exit code, stdout, stdout with --json, stderr): each argv runs as
# text and with --json, and both runs write the same stderr.
GOLDEN = [
    ("redei --alpha x^4-1 --z x^2 -n 3", 0, "N = 4x^6-3x^2\nD = 4x^4-1\n",
     '{"n": 3, "N": {"coeffs": ["0", "0", "-3", "0", "0", "0", "4"]},'
     ' "D": {"coeffs": ["-1", "0", "0", "0", "4"]}}\n', ""),
    ("redei --alpha=-x --z 2 -n 0", 0, "N = 1\nD = 0\n",
     '{"n": 0, "N": {"coeffs": ["1"]}, "D": {"coeffs": []}}\n', ""),
    ("table --alpha x^2+3 --z x --n-max 3", 0,
     "n\tN\tD\n1\tx\t1\n2\t2x^2+3\t2x\n3\t4x^3+9x\t4x^2+3\n",
     '{"n": 1, "N": {"coeffs": ["0", "1"]}, "D": {"coeffs": ["1"]}}\n'
     '{"n": 2, "N": {"coeffs": ["3", "0", "2"]}, "D": {"coeffs": ["0", "2"]}}\n'
     '{"n": 3, "N": {"coeffs": ["0", "9", "0", "4"]}, "D": {"coeffs": ["3", "0", "4"]}}\n', ""),
    ("table --alpha x --z 1 --n-max 0", 0, "n\tN\tD\n", "", ""),
    ("solve -f x^2 -d 2 -n 4", 0,
     "P = 2x^8+4x^4+1\nQ = 2x^6+2x^2\nintegral = true\nnormalizer = 4\n",
     '{"n": 4, "P": {"coeffs": ["1", "0", "0", "0", "4", "0", "0", "0", "2"]},'
     ' "Q": {"coeffs": ["0", "0", "2", "0", "0", "0", "2"]}, "integral": true, "normalizer": "4"}\n',
     ""),
    ("solve -f x -d 3 -n 2", 0, "P = -2/3x^2-1\nQ = -2/3x\nintegral = false\nnormalizer = -3\n",
     '{"n": 2, "P": {"coeffs": ["-1", "0", "-2"], "den": ["1", "1", "3"]},'
     ' "Q": {"coeffs": ["0", "-2"], "den": ["1", "3"]}, "integral": false, "normalizer": "-3"}\n',
     ""),
    ("solve -f x -d -1 -n 0", 0, "P = 1\nQ = 0\nintegral = true\nnormalizer = 1\n",
     '{"n": 0, "P": {"coeffs": ["1"]}, "Q": {"coeffs": []}, "integral": true, "normalizer": "1"}\n',
     ""),
    ("solve -f x -d=-1" + "0" * 2000 + " -n 2", 0,
     f"P = 1/{_BIG_DEN}x^2-1\nQ = 1/{_BIG_DEN}x\nintegral = false\nnormalizer = {_BIG_NORM}\n",
     f'{{"n": 2, "P": {{"coeffs": ["-1", "0", "1"], "den": ["1", "1", "{_BIG_DEN}"]}},'
     f' "Q": {{"coeffs": ["0", "1"], "den": ["1", "{_BIG_DEN}"]}}, "integral": false,'
     f' "normalizer": "{_BIG_NORM}"}}\n', ""),
    ("solve-m -f x -r -3 -m 3 -n 3", 0,
     "R = -x^3-3\nP1 = 1\nP2 = -x^2\nP3 = -x\nintegral = true\nnormalizer = -3\n",
     '{"m": 3, "n": 3, "R": {"coeffs": ["-3", "0", "0", "-1"]}, "sols": [{"coeffs": ["1"]},'
     ' {"coeffs": ["0", "0", "-1"]}, {"coeffs": ["0", "-1"]}], "integral": true, "normalizer": "-3"}\n',
     ""),
    ("solve-m -f x -r -2 -m 3 -n 3", 0,
     "R = -x^3-2\nP1 = 1\nP2 = -3/2x^2\nP3 = -3/2x\nintegral = false\nnormalizer = -2\n",
     '{"m": 3, "n": 3, "R": {"coeffs": ["-2", "0", "0", "-1"]}, "sols": [{"coeffs": ["1"]},'
     ' {"coeffs": ["0", "0", "-3"], "den": ["1", "1", "2"]}, {"coeffs": ["0", "-3"], "den": ["1", "2"]}],'
     ' "integral": false, "normalizer": "-2"}\n', ""),
    ("verify --P 2x^4-1 --Q 2x^2 --D x^4-1", 0, "true\n", '{"verified": true}\n', ""),
    ("verify --P 2x^4-1 --Q 2x^2 --D x^4+1", 0, "false\n", '{"verified": false}\n', ""),
    ("verify --P=-x^4-1 --Q=-x^2 -f x^2 -d 2", 0, "true\n", '{"verified": true}\n', ""),
    ("identify --P 8x^8-8x^4+1 --Q 8x^6-4x^2 -f x^2 -d -1", 0, "n = 4\n", '{"n": 4}\n', ""),
    ("identify --P 3 --Q 2 -f 1 -d 1", 0, "unidentified\n", '{"n": null}\n', ""),
    ("classify -d 3", 0, "NONE\n", '{"d": 3, "class": "NONE"}\n', ""),
    ("classify -d -1", 0, "ALL_N\n", '{"d": -1, "class": "ALL_N"}\n', ""),
    ("classify -d=-1" + "0" * 2000, 0, "NONE\n", f'{{"d": -{_BIG_NORM}, "class": "NONE"}}\n', ""),
    ("classify -r 3 -m 3 -n 6", 0, "true\n", '{"r": 3, "m": 3, "n": 6, "integral_case": true}\n', ""),
    ("classify -r 2 -m 3 -n 3", 0, "false\n", '{"r": 2, "m": 3, "n": 3, "integral_case": false}\n', ""),
    ("probe -f x -m 3 --n-max 12", 0, "m = 3\nf = x\nn_max = 12\nresult = ok\n",
     '{"m": 3, "f": {"coeffs": ["0", "1"]}, "n_max": 12, "ok": true, "violation": null}\n', ""),
    ("solve -f x -d 3 -n 3", 1, "", "", "OddIndexUndefined: (-d)^(n/2) is irrational for d=3, n=3\n"),
    ("classify -d 0", 1, "", "", "ZeroD: d must be a nonzero integer\n"),
    ("probe -f x -m 4 --n-max 6", 1, "", "", "NotPrime: m=4 is not prime\n"),
    ("identify --P 2 --Q 1 -f x -d 1", 1, "", "", "NotASolution: P^2 - (f^2+d)*Q^2 != 1\n"),
    ("solve-m -f x -r 1 -m 1 -n 1", 1, "", "",
     "InvalidIndex: need 2 <= m <= 64 and n >= 0, got m=1, n=1\n"),
    ("redei --alpha x --z 1 -n 1000000000000", 1, "", "",
     "AnswerTooLarge: the answer at this index may take more than 268435456 bits\n"),
    ("solve -f x -d -4 -n 1000000000000", 1, "", "",
     "AnswerTooLarge: the normalizer at this index takes more than 268435456 bits\n"),
    ("redei --alpha x^^2 --z x -n 2", 2, "", "", "ParseError: expected exponent digits (at position 2)\n"),
    ("redei --alpha x", 2, "", "",
     "usage: pellred redei [-h] [--json] --alpha POLY --z POLY -n N\n"
     "pellred redei: error: the following arguments are required: --z, -n\n"),
    ("solve -f x -d=+2 -n 2", 2, "", "",
     "usage: pellred solve [-h] [--json] -f POLY -d D -n N\n"
     "pellred solve: error: argument -d: invalid decimal_int value: '+2'\n"),
    ("verify --P 1 --Q 0", 2, "", "",
     _USAGE + "pellred: error: verify needs either --D, or -f together with -d\n"),
    ("classify -d 3 -n 2", 2, "", "",
     _USAGE + "pellred: error: classify needs -d, or the tuple -r -m -n\n"),
]

_OPTIONS = "options:\n  -h, --help{}show this help message and exit\n  --json\n"
HELP = {
    "": _USAGE + """
Exact polynomial Pell equation toolkit built on Redei polynomials.

positional arguments:
  {redei,table,solve,solve-m,verify,identify,classify,probe}
    redei               one Redei pair (N_n, D_n)
    table               rows n = 1..n_max of (N_n, D_n)
    solve               normalized solution of P^2-(f^2+d)Q^2=1
    solve-m             normalized degree-m solution for R=(-f)^m+r
    verify              check P^2 - D*Q^2 == 1 exactly
    identify            match an integer solution to its index n
    classify            integrality class of d, or the degree-m case
    probe               divisibility scan for r = +-m, prime m

options:
  -h, --help            show this help message and exit
""",
    "redei": "usage: pellred redei [-h] [--json] --alpha POLY --z POLY -n N\n\n"
    + _OPTIONS.format(" " * 4) + "  --alpha POLY\n  --z POLY\n  -n N\n",
    "table": "usage: pellred table [-h] [--json] --alpha POLY --z POLY --n-max N_MAX\n\n"
    + _OPTIONS.format(" " * 5) + "  --alpha POLY\n  --z POLY\n  --n-max N_MAX\n",
    "solve": "usage: pellred solve [-h] [--json] -f POLY -d D -n N\n\n"
    + _OPTIONS.format("  ") + "  -f POLY\n  -d D\n  -n N\n",
    "solve-m": "usage: pellred solve-m [-h] [--json] -f POLY -r R -m M -n N\n\n"
    + _OPTIONS.format("  ") + "  -f POLY\n  -r R\n  -m M\n  -n N\n",
    "verify": "usage: pellred verify [-h] [--json] --P POLY --Q POLY [--D POLY] [-f POLY]\n"
    + " " * 22 + "[-d D]\n\n"
    + _OPTIONS.format("  ") + "  --P POLY\n  --Q POLY\n  --D POLY\n  -f POLY\n  -d D\n",
    "identify": "usage: pellred identify [-h] [--json] --P POLY --Q POLY -f POLY -d D\n\n"
    + _OPTIONS.format("  ") + "  --P POLY\n  --Q POLY\n  -f POLY\n  -d D\n",
    "classify": "usage: pellred classify [-h] [--json] [-d D] [-r R] [-m M] [-n N]\n\n"
    + _OPTIONS.format("  ") + "  -d D\n  -r R\n  -m M\n  -n N\n",
    "probe": "usage: pellred probe [-h] [--json] -f POLY -m M --n-max N_MAX\n\n"
    + _OPTIONS.format(" " * 5) + "  -f POLY\n  -m M\n  --n-max N_MAX\n",
}


class TestGoldenBytes:
    """Exact stdout, stderr and exit code of every subcommand, text and --json."""

    @pytest.fixture(autouse=True)
    def _width(self, monkeypatch):
        # argparse wraps usage and help text to the terminal width.
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("line, code, text, as_json, err", GOLDEN, ids=[case[0][:48] for case in GOLDEN])
    def test_output(self, line, code, text, as_json, err):
        argv = shlex.split(line)
        assert _run_cli(argv) == (code, text, err)
        assert _run_cli(argv + ["--json"]) == (code, as_json, err)

    @pytest.mark.parametrize("command", sorted(HELP))
    def test_help(self, command):
        argv = [command, "--help"] if command else ["--help"]
        assert _run_cli(argv) == (0, HELP[command], "")

    def test_probe_violation(self, monkeypatch):
        # No integer f fails the scan, so a report with a violation is stubbed in.
        report = DivisibilityReport(3, Poly("x"), 6, False, (-3, 6, 1))
        monkeypatch.setattr("pellred.cli.divisibility_probe", lambda f, m, n_max: report)
        argv = ["probe", "-f", "x", "-m", "3", "--n-max", "6"]
        want = "m = 3\nf = x\nn_max = 6\nresult = violation at r=-3, n=6, component 1\n"
        assert _run_cli(argv) == (0, want, "")
        want = '{"m": 3, "f": {"coeffs": ["0", "1"]}, "n_max": 6, "ok": false, "violation": [-3, 6, 1]}\n'
        assert _run_cli(argv + ["--json"]) == (0, want, "")


class TestArgumentFiles:
    """``@file`` reads the arguments one per line, past the OS limit on one argv string."""

    # Linux's MAX_ARG_STRLEN: no argv string may be longer.
    ARG_MAX_BYTES = 131_072

    @pytest.mark.parametrize("command, want", [("verify", "true\n"), ("identify", "n = 1\n")])
    def test_polynomials_past_the_argv_limit(self, command, want, tmp_path):
        # P = f, Q = 1 solves P^2 - (f^2 - 1) Q^2 = 1 with n = 1.
        big = "1" + "0" * 140_000 + "x"
        lines = [f"--P={big}", "--Q=1", f"-f={big}", "-d=-1"]
        assert len(lines[0]) > self.ARG_MAX_BYTES
        args = tmp_path / "args.txt"
        args.write_text("".join(line + "\n" for line in lines))
        src = str(Path(pellred.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run(
            [sys.executable, "-m", "pellred", command, f"@{args}"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (run.returncode, run.stdout, run.stderr) == (0, want, "")

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", f"@{tmp_path / 'missing.txt'}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: pellred") and "missing.txt" in err
        assert "Traceback" not in err


def _readme_block(heading: str) -> str:
    """The first fenced block under ``heading`` in the README."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    section = text.split(f"\n{heading}\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


class TestReadme:
    def test_examples_run(self, capsys):
        commands = [line for line in _readme_block("## CLI").splitlines() if line.startswith("pellred ")]
        assert commands
        for line in commands:
            assert main(shlex.split(line)[1:]) == 0, line
        exec(_readme_block("## Library"), {})


# -- output past the interpreter's int-to-str digit limit (4300 by default) -----

# Every number is read through Decimal, which has no digit limit.
def _big_int(text: str) -> int:
    return int(Decimal(text))


def _read_poly(text: str) -> Poly:
    """Read canonical polynomial text ("3/2x^2-x+7") back into a Poly."""
    coeffs = {}
    for term in re.findall(r"[+-]?[^+-]+", text):
        sign, num, den, x, expo = re.fullmatch(r"([+-]?)(\d*)(?:/(\d+))?(x(?:\^(\d+))?)?", term).groups()
        value = Fraction(_big_int(num or "1"), _big_int(den or "1"))
        coeffs[int(expo or 1) if x else 0] = -value if sign == "-" else value
    return Poly([coeffs.get(k, 0) for k in range(max(coeffs) + 1)])


def _from_json(data: dict) -> Poly:
    nums = [_big_int(c) for c in data["coeffs"]]
    dens = [_big_int(c) for c in data.get("den", ["1"] * len(nums))]
    return Poly([Fraction(a, b) for a, b in zip(nums, dens)])


def _text_fields(out: str) -> dict:
    return dict(line.split(" = ") for line in out.splitlines())


BIG_D = -(10**2200)


class TestBigIntegers:
    @pytest.fixture(scope="class")
    def big_pair(self):
        return redei_recurrence(Poly("x+1"), Poly(99999999999999999999), 600)

    @pytest.fixture(scope="class")
    def big_solution(self):
        return solve(PellProblem(Poly("x"), BIG_D), 4)

    REDEI = ["redei", "--alpha", "x+1", "--z", "99999999999999999999", "-n", "600"]
    SOLVE = ["solve", "-f", "x", "-d=-1" + "0" * 2200, "-n", "4"]
    DIGITS = "1" * 5000

    def test_fixtures_exceed_the_limit(self, big_pair, big_solution):
        assert max(abs(c) for c in big_pair.N.coeffs) > 10**4300
        assert big_solution.normalizer > 10**4300
        assert not big_solution.P.is_integral()

    def test_redei_text(self, big_pair, capsys):
        assert main(self.REDEI) == 0
        fields = _text_fields(capsys.readouterr().out)
        assert _read_poly(fields["N"]) == big_pair.N
        assert _read_poly(fields["D"]) == big_pair.D

    def test_redei_json(self, big_pair, capsys):
        assert main(self.REDEI + ["--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert _from_json(data["N"]) == big_pair.N
        assert _from_json(data["D"]) == big_pair.D

    def test_solve_text(self, big_solution, capsys):
        assert main(self.SOLVE) == 0
        fields = _text_fields(capsys.readouterr().out)
        assert _read_poly(fields["P"]) == big_solution.P
        assert _read_poly(fields["Q"]) == big_solution.Q
        assert _big_int(fields["normalizer"]) == big_solution.normalizer

    def test_solve_json(self, big_solution, capsys):
        assert main(self.SOLVE + ["--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert _from_json(data["P"]) == big_solution.P
        assert _from_json(data["Q"]) == big_solution.Q
        assert _big_int(data["normalizer"]) == big_solution.normalizer

    def test_integer_flag_past_the_limit(self, capsys):
        # -d is read as polynomial coefficients are, past int()'s digit limit.
        d = -_big_int(self.DIGITS)
        assert main(["solve", "-f", "x", f"-d=-{self.DIGITS}", "-n", "2"]) == 0
        fields = _text_fields(capsys.readouterr().out)
        want = solve(PellProblem(Poly("x"), d), 2)
        assert _read_poly(fields["P"]) == want.P
        assert _read_poly(fields["Q"]) == want.Q
        assert _big_int(fields["normalizer"]) == want.normalizer == -d

    def test_classify_json_echoes_any_size(self, capsys):
        big = self.DIGITS
        assert main(["classify", f"-d={big}", "--json"]) == 0
        assert capsys.readouterr().out == f'{{"d": {big}, "class": "NONE"}}\n'
        assert main(["classify", f"-r={big}", "-m=3", f"-n={big}", "--json"]) == 0
        want = f'{{"r": {big}, "m": 3, "n": {big}, "integral_case": false}}\n'
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["solve", "-f", "x", "-d={}", "-n", "1"], "OddIndexUndefined"),
            (["solve", "-f", "x", "-d", "2", "-n={}"], "OddIndexUndefined"),
            (["solve-m", "-f", "x", "-r={}", "-m", "3", "-n", "1"], "IrrationalNormalizer"),
            (["solve-m", "-f", "x", "-r", "1", "-m={}", "-n", "3"], "InvalidIndex"),
            (["redei", "--alpha", "x", "--z", "1", "-n=-{}"], "InvalidIndex"),
            (["classify", "-r", "1", "-m", "3", "-n=-{}"], "InvalidIndex"),
            (["probe", "-f", "x", "-m={}", "--n-max", "2"], "InvalidIndex"),
        ],
    )
    def test_domain_errors_name_values_of_any_size(self, argv, name, capsys):
        assert main([a.format(self.DIGITS) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{name}: ") and self.DIGITS in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["redei", "--alpha", "x", "--z", "1", "-n", "1000000000000"],
            ["redei", "--alpha", "x", "--z", "1", "-n", DIGITS],
            ["table", "--alpha", "x", "--z", "1", "--n-max", DIGITS],
            ["solve-m", "-f", "x", "-r", "1", "-m", "3", "-n", DIGITS],
            ["probe", "-f", "x", "-m", "3", "--n-max", DIGITS],
            ["solve", "-f", "x", "-d", "-4", "-n", DIGITS[:-1] + "2"],
        ],
        ids=["redei-1e12", "redei", "table", "solve-m", "probe", "solve"],
    )
    def test_huge_index_is_refused_up_front(self, argv):
        run = run_in_bounded_memory(["-m", "pellred", *argv], 512)
        assert (run.returncode, run.stdout) == (1, "")
        assert run.stderr.startswith("AnswerTooLarge: ")

    def test_probe_holds_one_vector_at_a_time(self):
        # Every vector up to n = 1000 at once takes about 90 MB; the probe
        # checks each as it is made and stays near 20 MB.
        run = run_in_bounded_memory(["-m", "pellred", "probe", "-f", "x", "-m", "3", "--n-max", "1000"], 64)
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout.endswith("result = ok\n")

    def test_descend_refuses_a_huge_level_before_the_power(self):
        code = (
            "from pellred import Poly, PreconditionViolated, descend\n"
            "try:\n"
            "    descend(Poly(2), Poly(0), Poly('x'), 2, 10**10)\n"
            "except PreconditionViolated as e:\n"
            "    print(e)\n"
        )
        run = run_in_bounded_memory(["-c", code], 512, timeout=10)
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout == "pair is not at norm level (-d)^10000000000\n"


def run_in_bounded_memory(args, mib, timeout=60):
    """Run the interpreter on args with its address space limited to mib MiB.

    Only the child runs under the limit: a run that set out to build more
    than that fails there fast, with a MemoryError, and does not fill the
    machine.
    """
    resource = pytest.importorskip("resource")
    limit = mib * 2**20
    src = str(Path(pellred.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


# -- fuzzing main() with random argv --------------------------------------------

OPTIONS_OF = {
    "redei": ["--alpha", "--z", "-n"],
    "table": ["--alpha", "--z", "--n-max"],
    "solve": ["-f", "-d", "-n"],
    "solve-m": ["-f", "-r", "-m", "-n"],
    "verify": ["--P", "--Q", "--D", "-f", "-d"],
    "identify": ["--P", "--Q", "-f", "-d"],
    "classify": ["-d", "-r", "-m", "-n"],
    "probe": ["-f", "-m", "--n-max"],
}
POLY_OPTIONS = ["--alpha", "--z", "-f", "--P", "--Q", "--D"]
INT_OPTIONS = ["-d", "-n", "-r", "-m", "--n-max"]

# Indices and degrees stay small so that no example starts heavy work.
small_int_text = st.integers(min_value=-3, max_value=7).map(str)
valid_poly_text = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4).map(
    lambda cs: str(Poly(cs))
)
# Weighted 3:1 towards well-formed text so that most examples reach the solvers.
poly_text = st.one_of(
    valid_poly_text,
    valid_poly_text,
    valid_poly_text,
    st.text(alphabet="x^+-0123456789 ²*y", max_size=3),
)


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(OPTIONS_OF) + ["factorize", "--json"]))
    own = OPTIONS_OF.get(command, INT_OPTIONS)
    names = [n for n in own if draw(st.integers(0, 7))]
    names += draw(st.lists(st.sampled_from(own + ["--json", "--help"]), max_size=1))
    argv = [command]
    for name in names:
        if name in POLY_OPTIONS + INT_OPTIONS and not draw(st.integers(0, 9)):
            argv.append(f"{name}=--")  # the attached "--", which argparse before 3.13 strips
        elif name in POLY_OPTIONS:
            value = draw(poly_text)
            # The attached spelling lets a value start with a minus sign.
            argv.append(f"{name}={value}" if name.startswith("--") else name + value)
        elif name in INT_OPTIONS:
            argv += [name, draw(small_int_text)]
        else:
            argv.append(name)
    return argv


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(cli_argv())
    def test_exit_code_and_no_traceback(self, argv):
        code, _, err = _run_cli(argv)
        assert code in (0, 1, 2), (argv, code, err)
        if code == 1:
            assert err.split(":")[0].isidentifier(), (argv, err)
