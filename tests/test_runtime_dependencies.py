"""The package runs on numpy alone: no module of it imports scipy, and the
runtime dependencies in pyproject.toml name numpy only.  scipy stays in the
``test`` extra: the benchmark in ``perfbench/`` checks its reference roots with it."""

import ast
import re
from pathlib import Path

import pytest

import equicontrol

_PACKAGE = Path(equicontrol.__file__).resolve().parent
_ROOT = _PACKAGE.parents[1]


def imported_modules(path):
    """Every module an ``import`` or ``from ... import`` in the file names, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import(path):
    scipy = [name for name in imported_modules(path) if name.split(".")[0] == "scipy"]
    assert not scipy, f"{path.name} imports {scipy}"


def test_walk_finds_nested_imports(tmp_path):
    """The walk sees an import inside a function body, where a lazy one would sit."""
    path = tmp_path / "lazy.py"
    path.write_text("import numpy\n\ndef f():\n    from scipy.interpolate import CubicSpline\n")
    assert list(imported_modules(path)) == ["numpy", "scipy.interpolate"]


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((_ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])
