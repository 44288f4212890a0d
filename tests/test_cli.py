import contextlib
import io
import json
import re
import shlex
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pellred.cli import emit_table, main
from pellred.pell2 import PellProblem, solve
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

    @pytest.mark.parametrize("command", ["verify", "identify"])
    def test_zero_d_with_f_is_one(self, command, capsys):
        # -f with -d means D = f^2 + d, which is defined for d != 0 only.
        assert main([command, "--P", "1", "--Q", "0", "-f", "x", "-d", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("ZeroD: ")
        assert captured.out == ""


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
    SOLVE = ["solve", "-f", "x", f"-d={BIG_D}", "-n", "4"]

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
        if name in POLY_OPTIONS:
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
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
        assert code in (0, 1, 2), (argv, code, err.getvalue())
        if code == 1:
            assert err.getvalue().split(":")[0].isidentifier(), (argv, err.getvalue())
