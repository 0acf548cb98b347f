"""Source hygiene that a deletion can leave behind: an import nothing
uses, a private name or a stored attribute nothing reads, or a package
export that no longer resolves; and a text file opened without naming
its encoding, which would make the locale an input; and an enum member
read by attribute inside a function, which on Python 3.11 costs several
module-global reads at each call."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import geowsn
from geowsn.alp import Opcode
from geowsn.node import SensorKind, UplinkKind

REPO = Path(__file__).resolve().parent.parent
SOURCES = sorted((REPO / "src" / "geowsn").glob("*.py"))
#: every tree whose code may read what the package stores
READERS = ("src", "tests", "demos", "perfbench")


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


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each ``_``-prefixed module-level name, method and class attribute
    (dunders aside) -> its line."""
    defined = {}
    scopes = [tree.body] + [node.body for node in tree.body
                            if isinstance(node, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = node.lineno
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defined[target.id] = node.lineno
    return {name: line for name, line in defined.items()
            if name.startswith("_") and not name.startswith("__")}


def _stored_attributes(tree: ast.Module) -> dict[str, int]:
    """Each attribute stored by ``self.X = ...``, ``....X += ...`` or an
    annotated class field -> its first line."""
    stored = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    stored.setdefault(item.target.id, item.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    stored.setdefault(target.attr, node.lineno)
        elif (isinstance(node, ast.AugAssign)
              and isinstance(node.target, ast.Attribute)):
            stored.setdefault(node.target.attr, node.lineno)
    return stored


def test_sources_are_found():
    assert any(path.name == "energy.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_private_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = {name: line for name, line in _private_definitions(tree).items()
              if name not in read}
    assert not unread, f"{path.name}: defined but never read: {unread}"


def test_every_stored_attribute_is_read():
    read = {node.attr
            for tree in READERS for path in (REPO / tree).rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = {f"{path.name}:{line}": name for path in SOURCES
              for name, line in _stored_attributes(ast.parse(path.read_text(encoding="utf-8"))).items()
              if name not in read}
    assert not unread, f"stored but never read: {unread}"


def _text_access_without_encoding(tree: ast.Module) -> list[int]:
    """Lines of each ``open()``, ``.read_text()`` or ``.write_text()``
    call in text mode that names no ``encoding``."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if isinstance(mode, ast.Constant) and "b" in mode.value:
                continue
        elif not (isinstance(func, ast.Attribute)
                  and func.attr in ("read_text", "write_text")):
            continue
        if not any(k.arg == "encoding" for k in node.keywords):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_text_file_access_names_its_encoding(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _text_access_without_encoding(tree) == [], (
        f"{path.name}: text-mode file access without an encoding")


def test_the_encoding_check_sees_each_form():
    tree = ast.parse(
        "open(p)\n"
        "open(p, 'w', newline='')\n"
        "open(p, mode='r')\n"
        "p.read_text()\n"
        "p.write_text(t)\n"
        "open(p, 'rb')\n"
        "open(p, mode='wb')\n"
        "open(p, encoding='utf-8')\n"
        "p.read_text(encoding='utf-8')\n"
        "p.read_bytes()\n")
    assert _text_access_without_encoding(tree) == [1, 2, 3, 4, 5]


#: enums whose members a function reads through a module constant
BOUND_ENUMS = {enum.__name__: enum for enum in (Opcode, UplinkKind, SensorKind)}


def _member_reads_in_functions(tree: ast.Module) -> list[int]:
    """Lines where a function body reads a member of a ``BOUND_ENUMS``
    enum by attribute; module-level tables, class bodies, default
    arguments and decorators are not function bodies."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in (sub for statement in node.body
                      for sub in ast.walk(statement)):
            if (isinstance(inner, ast.Attribute)
                    and isinstance(inner.ctx, ast.Load)
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id in BOUND_ENUMS
                    and inner.attr in BOUND_ENUMS[inner.value.id].__members__):
                lines.add(inner.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_function_reads_an_enum_member_by_attribute(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _member_reads_in_functions(tree) == [], (
        f"{path.name}: bind the member to a module constant instead")


def test_the_member_check_sees_function_bodies_only():
    tree = ast.parse(
        "TABLE = {Opcode.STATUS: 1}\n"
        "def f(kind=UplinkKind.STATUS):\n"
        "    return Opcode.READ_FILE_DATA\n"
        "class C:\n"
        "    field = UplinkKind.FLUSH\n"
        "    def g(self):\n"
        "        return [SensorKind.WEATHER_STATION for _ in ()]\n"
        "    async def h(self):\n"
        "        def inner():\n"
        "            return UplinkKind.READING\n"
        "        return Opcode.__members__, Opcode(1), kind.STATUS\n")
    assert _member_reads_in_functions(tree) == [3, 7, 10]
