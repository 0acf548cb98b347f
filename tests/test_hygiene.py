"""Source hygiene that a deletion can leave behind: an import nothing
uses, or a package export that no longer resolves."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import geowsn

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "geowsn").glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_sources_are_found():
    assert any(path.name == "energy.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_every_export_resolves_once():
    counts = Counter(geowsn.__all__)
    assert [name for name, n in counts.items() if n > 1] == []
    assert [name for name in geowsn.__all__
            if not hasattr(geowsn, name)] == []
