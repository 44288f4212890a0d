import ast
import copy
import dataclasses
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import pellred
from pellred import DivisibilityReport, IntegralityClass, ONE, PellProblem, Poly, X
from pellred.cli import entry, main
from pellred.redei import GenRedeiVec

ROOT = Path(__file__).resolve().parents[1]


class TestPublicNames:
    def test_all_resolves_to_non_modules(self):
        assert len(pellred.__all__) == len(set(pellred.__all__))
        for name in pellred.__all__:
            assert not isinstance(getattr(pellred, name), ModuleType), name

    def test_all_covers_the_api(self):
        for name in ("Poly", "solve", "solve_m", "gen_redei", "RedeiPair", "DomainError", "ZERO"):
            assert name in pellred.__all__
        for name in ("polyring", "redei", "cli", "__version__"):
            assert name not in pellred.__all__


class TestEntryPoint:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["solve", "-f", "x^2", "-d", "2", "-n", "4"], 0),
            (["solve", "-f", "x", "-d", "2", "-n", "3", "--json"], 1),
            (["solve", "-f", "x^^2", "-d", "2", "-n", "1"], 2),
        ],
    )
    def test_module_run_matches_main(self, argv, code, capsys):
        assert main(argv) == code
        want = capsys.readouterr()
        src = str(Path(pellred.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run(
            [sys.executable, "-m", "pellred", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (run.returncode, run.stdout, run.stderr) == (code, want.out, want.err)

    def test_console_script_is_cli_entry(self):
        tomllib = pytest.importorskip("tomllib")
        scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
        module, _, func = scripts["pellred"].partition(":")
        assert getattr(importlib.import_module(module), func) is entry


class TestKernelBoundary:
    def test_only_kernels_reads_its_private_names(self):
        # The rest of the package reaches pellred.kernels through its public
        # calls, so the kernel rule and the batch's pack memo stay inside it.
        for path in sorted((ROOT / "src" / "pellred").glob("*.py")):
            if path.name == "kernels.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("kernels"):
                    private = [alias.name for alias in node.names if alias.name.startswith("_")]
                    assert not private, (path.name, private)

    def test_each_module_imports_its_kernel_calls(self):
        # polyring multiplies through the product and batch calls and takes
        # square roots through the root call, pell2.verify asks the point
        # test, and no other module reaches pellred.kernels: packing, radix
        # and route stay inside it.
        imported = {}
        for path in sorted((ROOT / "src" / "pellred").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ImportFrom) and node.module == "kernels" and node.level == 1:
                    imported.setdefault(path.name, set()).update(alias.name for alias in node.names)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
                    assert not any(name.endswith("kernels") for name in names), (path.name, names)
        assert imported == {
            "polyring.py": {"product", "square_root", "sums_of_products"},
            "pell2.py": {"point_test"},
        }

    def test_only_verify_reads_num_and_den_outside_polyring(self):
        # Poly's parts are read by its own module and by pell2.verify, which
        # hands them to kernels.point_test; other modules use Poly's operations.
        readers = set()
        for path in sorted((ROOT / "src" / "pellred").glob("*.py")):
            if path.name == "polyring.py":
                continue
            for top in ast.parse(path.read_text(), str(path)).body:
                for node in ast.walk(top):
                    if isinstance(node, ast.Attribute) and node.attr in ("num", "den"):
                        readers.add((path.name, getattr(top, "name", None)))
        assert readers == {("pell2.py", "verify")}


# Run in a fresh interpreter: import pellred, then run cli.main on each argv
# in turn, and write to stderr, as its last line, the modules new after each
# step against the interpreter's own start-up set (so site hooks do not count).
_CENSUS = """
import sys
base = set(sys.modules)
def new():
    return sorted(set(sys.modules) - base)
import pellred
steps = [new()]
from pellred.cli import main
for argv in ARGVS:
    assert main(argv) == 0, argv
    steps.append(new())
print(repr(steps), file=sys.stderr)
"""


def _new_modules(*argvs) -> list:
    """Modules new after ``import pellred`` and after each ``cli.main(argv)``."""
    src = str(Path(pellred.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = _CENSUS.replace("ARGVS", repr(list(argvs)))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    return [set(step) for step in ast.literal_eval(run.stderr.splitlines()[-1])]


class TestStartUpModules:
    # What a pellred invocation imports, pinned by name rather than by time:
    # no command loads dataclasses (and inspect with it) until it builds a
    # solution record, and none loads json for a text answer.
    TEXT_COMMANDS = [
        ["classify", "-d", "2"],
        ["verify", "--P", "2x^4-1", "--Q", "2x^2", "--D", "x^4-1"],
        ["identify", "--P", "8x^8-8x^4+1", "--Q", "8x^6-4x^2", "-f", "x^2", "-d", "-1"],
        ["redei", "--alpha", "x^4-1", "--z", "x^2", "-n", "3"],
        ["table", "--alpha", "x^2+3", "--z", "x", "--n-max", "5"],
        ["probe", "-f", "x", "-m", "3", "--n-max", "12"],
    ]

    def test_import_and_text_answers_load_no_dataclasses_or_json(self):
        steps = _new_modules(*self.TEXT_COMMANDS, ["classify", "-d", "2", "--json"])
        assert "pellred.cli" in steps[1]
        for step in steps[:-1]:
            assert not step & {"dataclasses", "inspect", "json"}, sorted(step)
        assert "json" in steps[-1] and "dataclasses" not in steps[-1]

    @pytest.mark.parametrize(
        "argv",
        [["solve", "-f", "x^2", "-d", "2", "-n", "4"], ["solve-m", "-f", "x", "-r", "-3", "-m", "3", "-n", "3"]],
    )
    def test_a_solution_loads_dataclasses(self, argv):
        loaded, solved = _new_modules(argv)
        assert "dataclasses" not in loaded
        assert {"dataclasses", "pellred.solutions"} <= solved


# Each record with its field names and its repr, byte-equal to the frozen
# dataclass it replaced.
RECORDS = [
    (
        GenRedeiVec(2, 1, X, Poly("x^2+1"), (X, ONE)),
        ("m", "n", "z", "alpha", "A"),
        "GenRedeiVec(m=2, n=1, z=Poly('x'), alpha=Poly('x^2+1'), A=(Poly('x'), Poly('1')))",
    ),
    (PellProblem(Poly("x^2"), -1), ("f", "d"), "PellProblem(f=Poly('x^2'), d=-1)"),
    (IntegralityClass("EVEN_N", 2), ("tag", "d"), "IntegralityClass(tag='EVEN_N', d=2)"),
    (
        DivisibilityReport(3, X, 6, False, (-3, 6, 1)),
        ("m", "f", "n_max", "ok", "violation"),
        "DivisibilityReport(m=3, f=Poly('x'), n_max=6, ok=False, violation=(-3, 6, 1))",
    ),
]


class TestRecords:
    @pytest.mark.parametrize("record, names, text", RECORDS)
    def test_value_semantics_and_repr(self, record, names, text):
        cls = type(record)
        fields = tuple(getattr(record, name) for name in names)
        twin = cls(*fields)
        assert twin == record and hash(twin) == hash(record) == hash(fields)
        assert len({twin, record}) == 1
        assert record != fields

        class Other(cls):
            __slots__ = ()

        assert Other(*fields) != record and record != Other(*fields)
        assert Other(*fields) == Other(*fields) and repr(Other(*fields)).endswith(text[len(cls.__name__):])
        assert cls(*fields[:-1], "other") != record
        assert repr(record) == text
        assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))

    @pytest.mark.parametrize("record, names, text", RECORDS)
    def test_frozen(self, record, names, text):
        for name in names + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
            with pytest.raises(AttributeError):
                delattr(record, name)

    @pytest.mark.parametrize("record, names, text", RECORDS)
    def test_fields_by_position_only(self, record, names, text):
        fields = tuple(getattr(record, name) for name in names)
        for wrong in (fields[:-1], fields + (1,)):
            with pytest.raises(TypeError):
                type(record)(*wrong)
        with pytest.raises(TypeError):
            type(record)(**dict(zip(names, fields)))

    def test_pell_problem_coerces_f_and_refuses_zero_d(self):
        assert PellProblem("x^2", 2).f == Poly("x^2")
        with pytest.raises(pellred.ZeroD):
            PellProblem(X, 0)


class TestSolutionRecords:
    def test_one_class_through_every_name(self):
        sol = pellred.solve(PellProblem(X, 2), 4)
        assert pellred.PellSolution is pellred.pell2.PellSolution is type(sol)
        msol = pellred.solve_m(X, -3, 3, 3)
        assert pellred.PellMSolution is pellred.pellm.PellMSolution is type(msol)

    def test_dataclass_replace(self):
        sol = pellred.solve(PellProblem(X, 2), 4)
        assert dataclasses.replace(sol, n=5) == pellred.PellSolution(sol.P, sol.Q, 5, True, sol.normalizer)
        msol = pellred.solve_m(X, -3, 3, 3)
        assert dataclasses.replace(msol, integral=False).integral is False
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.n = 5

    def test_star_import_exports_both(self):
        namespace = {}
        exec("from pellred import *", namespace)
        assert namespace["PellSolution"] is pellred.PellSolution
        assert namespace["PellMSolution"] is pellred.PellMSolution

    @pytest.mark.parametrize("module", [pellred, pellred.pell2, pellred.pellm])
    def test_unknown_name_raises(self, module):
        with pytest.raises(AttributeError, match="NoSuchName"):
            module.NoSuchName
