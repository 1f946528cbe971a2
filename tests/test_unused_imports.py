"""No module of the package imports a name it never uses.

A standard-library stand-in for a linter's F401 check: each module under
``src/geomerge`` is parsed with ``ast``, and every name an ``import`` binds
must be read somewhere in that module, in code, in a string annotation or,
for the package ``__init__``, in ``__all__``.  An import kept on purpose
says so with ``# noqa: F401`` on its line.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "geomerge"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its alias."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = alias.lineno
    return names


def _annotations(tree: ast.Module) -> list[ast.expr]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            found.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
    return [a for a in found if a is not None]


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, string annotations included."""
    trees = [tree]
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    used = {
        node.id
        for t in trees
        for node in ast.walk(t)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:  # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path: Path) -> list[tuple[str, int]]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = _used(tree)
    return sorted(
        (name, line)
        for name, line in _imported(tree).items()
        if name not in used and "# noqa: F401" not in lines[line - 1]
    )


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_the_check_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Sequence\n"
        "from .errors import AntipodalError, NonFiniteError\n"
        "import numpy as np  # noqa: F401\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    raise AntipodalError(sys.argv)\n"
    )
    assert unused_imports(module) == [("NonFiniteError", 4), ("os", 2)]
