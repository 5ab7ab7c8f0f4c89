"""The seven modules form a strict stack: each imports only from modules
below it, and only public names.  The package root sits under all seven;
it holds metadata such as ``__version__`` and pins OpenBLAS to one thread
before any module imports numpy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ORDER = ["numerics", "finitegrp", "chars", "models", "padic", "support", "cli"]
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "siegelvec"


def relative_imports(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0]


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_order_names_every_module():
    found = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert found == set(ORDER)
    assert relative_imports("__init__") == []


@pytest.mark.parametrize("name", ORDER)
def test_imports_go_down_the_stack(name):
    below = [None] + ORDER[:ORDER.index(name)]
    for node in relative_imports(name):
        assert node.module in below, (
            f"{name} line {node.lineno} imports from {node.module!r}")


@pytest.mark.parametrize("name", ORDER)
def test_no_private_name_is_imported(name):
    for node in relative_imports(name):
        private = [a.name for a in node.names if is_private(a.name)]
        assert not private, f"{name} line {node.lineno} imports {private}"


def _blas_child(value):
    """OPENBLAS_NUM_THREADS and the thread count seen by a fresh child that
    imports the package and then numpy, started with the variable unset
    (value None) or set to value."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(PACKAGE.parent)
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    code = ("import os, siegelvec, numpy; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], "
            "len(os.listdir('/proc/self/task')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    return out[0], int(out[1])


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc to count threads")
def test_package_root_pins_blas_to_one_thread():
    assert _blas_child(None) == ("1", 1)


def test_package_root_leaves_an_explicit_blas_setting_in_place():
    assert _blas_child("2")[0] == "2"
