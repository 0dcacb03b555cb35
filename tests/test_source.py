"""Source guards over src/nlbd: no assert statements, no unused imports.

Checks that carry weight are typed errors, which `python -O` keeps; an
assert would vanish under it. An import that nothing reads is dead code.
The package's __init__ re-exports what it imports, so it is exempt from the
import check, as are `from __future__` imports.
"""

import ast
from pathlib import Path

import pytest

import nlbd

SOURCES = sorted(Path(nlbd.__file__).parent.glob("*.py"))


def _imported(tree: ast.Module) -> dict:
    """Each name an import binds, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree: ast.Module) -> set:
    """Every name the module reads, also inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= _read(ast.parse(note.value, mode="eval"))
    return names


def test_sources_are_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "boxes.py", "cli.py", "search.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}"


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda path: path.name
)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _read(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in read}
    assert unused == {}, f"{path.name}: imported but never read: {unused}"
