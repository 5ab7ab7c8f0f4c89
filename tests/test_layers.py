"""The seven modules form a strict stack: each imports only from modules
below it, and only public names.  The package root sits under all seven;
it holds only metadata such as ``__version__``."""

import ast
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
