"""The package's export list stays in step with what it imports."""

import ast
from pathlib import Path

import nlbd


def _imported_names() -> set:
    """Every name that nlbd/__init__.py binds by a from-import."""
    tree = ast.parse(Path(nlbd.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_all_is_sorted_resolves_and_equals_the_imported_names():
    assert nlbd.__all__ == sorted(nlbd.__all__)
    assert [name for name in nlbd.__all__ if not hasattr(nlbd, name)] == []
    assert set(nlbd.__all__) == _imported_names()
