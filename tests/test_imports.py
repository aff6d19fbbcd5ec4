"""The package imports only the standard library and its runtime
dependencies: scipy, mpmath and hypothesis may be installed for the tests,
but `textlime` must not reach for them."""

import ast
import re
import sys
from pathlib import Path

import pytest

import textlime

PACKAGE = Path(textlime.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# The [project] dependencies of pyproject.toml.
RUNTIME = {"numpy", "click"}


def test_runtime_dependencies_are_the_projects():
    tomllib = pytest.importorskip("tomllib")
    dependencies = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    assert {re.split(r"[<>=!~;\[ ]", spec)[0] for spec in dependencies} == RUNTIME


def test_package_imports_only_the_standard_library_and_its_dependencies():
    foreign = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in RUNTIME:
                    foreign.add((path.stem, top))
    assert foreign == set()
