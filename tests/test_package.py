import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import pellred
from pellred.cli import entry, main

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
