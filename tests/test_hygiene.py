"""Source hygiene that a deletion can leave behind: an import nothing
uses, a private name or a stored attribute nothing reads, or a package
export that no longer resolves; and a text file opened without naming
its encoding, which would make the locale an input; an enum member read
by attribute inside a function, which on Python 3.11 costs several
module-global reads at each call; a typed array outside the one
record store; a second time unit between the simulator and a node; and
a csv record read outside the one trace row grammar."""

import ast
import re
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


#: the modules that may import ``array``: the one record store, and the
#: trace loader, whose arrays are column buffers handed to numpy
ARRAY_MODULES = ("store.py", "feasibility.py")


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_store_imports_array(path):
    # the record layout of the run log and the sink stays behind one module
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert ("array" in modules) == (path.name in ARRAY_MODULES)


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


#: the module of the trace row grammar, the one reader of trace text
CSV_READER_MODULES = ("feasibility.py",)


def _csv_reader_calls(tree: ast.Module) -> list[int]:
    """Lines of each ``csv.reader`` call, by attribute or by a name
    imported from ``csv``."""
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "csv"
             for alias in node.names if alias.name == "reader"}
    return sorted(
        node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
        and (isinstance(node.func, ast.Name) and node.func.id in names
             or isinstance(node.func, ast.Attribute)
             and node.func.attr == "reader"
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id == "csv"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_trace_grammar_reads_csv_records(path):
    # a second reader would state the rules of a trace row a second time
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert bool(_csv_reader_calls(tree)) == (path.name in CSV_READER_MODULES)


def test_the_csv_reader_check_sees_each_form():
    tree = ast.parse(
        "import csv\n"
        "from csv import reader as read\n"
        "csv.reader(f)\n"
        "read(f)\n"
        "csv.writer(f)\n"
        "reader(f)\n"
        "other.reader(f)\n")
    assert _csv_reader_calls(tree) == [3, 4]


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


def _event_path_conversions(tree: ast.Module) -> list[str]:
    """``method:line`` of each ``MS_PER_S`` named and each ``round``
    called on ``Simulator``'s event path: its ``_handle_*`` methods,
    ``_settle``, ``_deliver`` and ``start``."""
    found = []
    for cls in tree.body:
        if not (isinstance(cls, ast.ClassDef) and cls.name == "Simulator"):
            continue
        for method in cls.body:
            if not (isinstance(method, ast.FunctionDef)
                    and (method.name.startswith("_handle_")
                         or method.name in ("_settle", "_deliver", "start"))):
                continue
            for node in ast.walk(method):
                if ((isinstance(node, ast.Name) and node.id == "MS_PER_S")
                        or (isinstance(node, ast.Attribute)
                            and node.attr == "MS_PER_S")
                        or (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Name)
                            and node.func.id == "round")):
                    found.append(f"{method.name}:{node.lineno}")
    return found


#: a parameter name that reads as a time
_TIME_NAME = re.compile(r"(^|_)(now|at|time|when)(_|$)|_m?s$")
#: the ``SensorNode`` entry points that take the time
TIMED_ENTRY_POINTS = ("boot", "reset", "notify_activity", "clock",
                      "on_sample_timer", "on_downlink")


def _time_parameters(tree: ast.Module) -> dict[str, list[str]]:
    """Each public ``SensorNode`` method that takes a time -> each such
    parameter, with its annotation if it has one."""
    found = {}
    for cls in tree.body:
        if not (isinstance(cls, ast.ClassDef) and cls.name == "SensorNode"):
            continue
        for method in cls.body:
            if (not isinstance(method, ast.FunctionDef)
                    or method.name.startswith("_")):
                continue
            params = [ast.unparse(arg) for arg in
                      method.args.posonlyargs + method.args.args
                      + method.args.kwonlyargs if _TIME_NAME.search(arg.arg)]
            if params:
                found[method.name] = params
    return found


def test_the_simulator_hands_a_node_its_ms_as_is():
    tree = ast.parse((REPO / "src" / "geowsn" / "netsim.py").read_text(
        encoding="utf-8"))
    assert _event_path_conversions(tree) == []


def test_every_time_a_node_takes_is_whole_ms():
    tree = ast.parse((REPO / "src" / "geowsn" / "node.py").read_text(
        encoding="utf-8"))
    assert _time_parameters(tree) == {
        name: ["now_ms: int"] for name in TIMED_ENTRY_POINTS}


def test_the_unit_checks_see_each_form():
    tree = ast.parse(
        "class Simulator:\n"
        "    def start(self):\n"
        "        node.boot(0 * MS_PER_S)\n"
        "    def _handle_x(self, at):\n"
        "        node.clock(at / netsim.MS_PER_S)\n"
        "    def _settle(self, at):\n"
        "        return round(node.next_sample)\n"
        "    def step(self):\n"
        "        return round(MS_PER_S)\n"
        "class SensorNode:\n"
        "    def boot(self, now_s: float): ...\n"
        "    def on_uplink_result(self, uplink, delivered, now_ms: int): ...\n"
        "    def on_downlink(self, data: bytes, at): ...\n"
        "    def inject_hang(self, *, time=None): ...\n"
        "    def _sample(self, now_s): ...\n"
        "    def drain_outbox(self): ...\n")
    assert _event_path_conversions(tree) == [
        "start:3", "_handle_x:5", "_settle:7"]
    assert _time_parameters(tree) == {
        "boot": ["now_s: float"], "on_uplink_result": ["now_ms: int"],
        "on_downlink": ["at"], "inject_hang": ["time"]}
