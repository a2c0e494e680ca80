"""The package imports only the standard library, numpy and scipy.

Those are the dependencies `pyproject.toml` declares; sympy and mpmath serve
the tests as oracles and must not reach `src/`.
"""

import ast
import glob
import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "twistorbf")
ALLOWED = {"numpy", "scipy", "twistorbf"}


def _imported_roots(path):
    """Top-level module names a source file imports; relative imports are
    the package itself."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield "twistorbf" if node.level else node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "*.py"))),
                         ids=os.path.basename)
def test_module_imports_only_declared_dependencies(path):
    roots = set(_imported_roots(path))
    outside = sorted(r for r in roots
                     if r not in ALLOWED and r not in sys.stdlib_module_names)
    assert not outside, "%s imports %s" % (os.path.basename(path), outside)


def test_every_module_is_checked():
    assert len(glob.glob(os.path.join(SRC, "*.py"))) >= 10
