"""The package runs on numpy alone: no module of it imports scipy, and the
runtime dependencies in pyproject.toml name numpy only.  scipy stays in the
``test`` extra: the benchmark in ``perfbench/`` checks its reference roots with it.
No module names ``numpy.polynomial`` either, imported or as an attribute: its
Horner and antiderivative are ``coeffs.HornerPolynomial``'s, bit for bit."""

import ast
import re
import token
import tokenize
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


def numpy_polynomial_uses(path):
    """(line, text) of every ``np.polynomial`` or ``numpy.polynomial`` in the file's
    code, as an import or an attribute; strings and comments do not count."""
    with path.open("rb") as fh:
        names = [tok for tok in tokenize.tokenize(fh.readline) if tok.type in (token.NAME, token.OP)]
    for first, dot, attr in zip(names, names[1:], names[2:]):
        if first.string in ("np", "numpy") and dot.string == "." and attr.string == "polynomial":
            yield first.start[0], f"{first.string}.polynomial"


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy_polynomial(path):
    uses = list(numpy_polynomial_uses(path))
    assert not uses, f"{path.name} uses {uses}"


def test_scan_finds_attribute_uses(tmp_path):
    """The scan sees an attribute chain, which no import statement names."""
    path = tmp_path / "attr.py"
    path.write_text(
        '"""Equal to numpy.polynomial\'s values."""\nimport numpy as np\n\n'
        "def f(c):  # not np.polynomial\n    return np.polynomial.Polynomial(c)\n"
    )
    assert list(imported_modules(path)) == ["numpy"]
    assert list(numpy_polynomial_uses(path)) == [(5, "np.polynomial")]


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((_ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])
