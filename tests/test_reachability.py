"""Everything under ``src/repro`` is reached by something other than a test.

A path survives only if something other than its own test runs it.  The
contract has three parts:

* **Exports, by name.**  For each ``repro`` package, every name in its
  ``__init__``'s ``__all__`` is used by some file under ``src/``,
  ``benchmarks/``, ``tools/`` or ``examples/`` other than that ``__init__``
  (its re-export is not a use).  A subpackage listed in ``__all__`` is
  reached when some file imports from it.
* **Classes, by name.**  Every class in ``src/repro`` (module level or
  nested in a class) is used in one of those files other than inside its
  own body.  A use is an AST ``Name``, an ``Attribute``, an import alias
  outside a package ``__init__``, or the last part of a
  ``"module:Qual.name"`` path in ``benchmarks/perf/trace.py`` (the harness
  wraps those by name).
* **Functions and methods, by execution.**  ``tools/reachability_scan.py``
  (its own CI job: it runs every entry point, minutes) records what each
  process enters and fails on a function or method nothing enters, unless
  its ``KEPT`` table names it with a reason and a witness test.  Here,
  tier-1 checks that table's shape and the scan's hook and matcher on a
  small package.
"""

from __future__ import annotations

import ast
import importlib.util
import re
import sys
import textwrap
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SCOPES = ("src", "benchmarks", "tools", "examples")
#: The harness file whose ``"module:Qual.name"`` strings count as uses.
SPAN_PATHS = ROOT / "benchmarks" / "perf" / "trace.py"
_SPAN_PATH = re.compile(r"^[\w.]+:[\w.]+$")

#: Exported names kept without a non-test caller, each with its reason.
ALLOWED_UNREACHED = {
    "repro.switch.crc32_reference": "the per-byte CRC the columnar hash is tested against",
}

#: Cap on the scan's kept table: it may shrink, not grow.
KEPT_CAP = 31


@cache
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def _scan():
    spec = importlib.util.spec_from_file_location(
        "reachability_scan", ROOT / "tools" / "reachability_scan.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _uses(path: Path) -> list[tuple[str, int]]:
    """``(name, line)`` of every use in one file (see the module docstring)."""
    spans = path == SPAN_PATHS
    uses = []
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Name):
            uses.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias) and path.name != "__init__.py":
            uses.append((node.name.rpartition(".")[2], node.lineno))
        elif (
            spans
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _SPAN_PATH.match(node.value)
        ):
            uses.append((re.split(r"[.:]", node.value)[-1], node.lineno))
    return uses


def _classes(path: Path):
    """``(qualified name, name, first line, last line)`` of each class."""

    def walk(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield prefix + node.name, node.name, node.lineno, node.end_lineno
                yield from walk(node.body, f"{prefix}{node.name}.")

    yield from walk(_parse(path).body, "")


def _unreached_classes() -> set[str]:
    """``module:Qual.name`` of every class in ``src/repro`` nothing else uses."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    for scope in SCOPES:
        for path in (ROOT / scope).rglob("*.py"):
            for name, line in _uses(path):
                uses.setdefault(name, []).append((path, line))
    unreached = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        for qualified, name, first, last in _classes(path):
            if not any(
                where != path or not first <= line <= last
                for where, line in uses.get(name, ())
            ):
                unreached.add(f"{module}:{qualified}")
    return unreached


def _references(path: Path) -> tuple[set[str], set[str]]:
    """The names a source file references, and the modules it imports."""
    names, modules = set(), set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
            if node.module:
                modules.add(node.module)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    return names, modules


def _exports(init: Path) -> list[str]:
    for node in _parse(init).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _unreached() -> set[str]:
    """Dotted names (``package.name``) in some ``__all__`` that nothing outside the tests reaches."""
    references = {
        path: _references(path) for scope in SCOPES for path in (ROOT / scope).rglob("*.py")
    }
    unreached = set()
    for init in sorted(PACKAGE.rglob("__init__.py")):
        package = ".".join(init.parent.relative_to(PACKAGE.parent).parts)
        for name in _exports(init):
            dotted = f"{package}.{name}"
            reached = any(
                name in names
                or any(module == dotted or module.startswith(dotted + ".") for module in modules)
                for path, (names, modules) in references.items()
                if path != init
            )
            if not reached:
                unreached.add(dotted)
    return unreached


def _test_exists(node_id: str) -> bool:
    file, *owners, name = node_id.split("::")
    path = ROOT / file
    if not path.is_file():
        return False
    body = _parse(path).body
    for owner in owners:
        found = [n.body for n in body if isinstance(n, ast.ClassDef) and n.name == owner]
        if not found:
            return False
        (body,) = found
    name = name.partition("[")[0]
    return any(isinstance(node, ast.FunctionDef) and node.name == name for node in body)


def test_every_export_is_reached_outside_the_tests():
    stray = sorted(_unreached() - set(ALLOWED_UNREACHED))
    assert not stray, f"exported but reached only by tests: {stray}"


def test_the_allowlist_is_short_and_still_needed():
    assert len(ALLOWED_UNREACHED) <= 5
    assert set(ALLOWED_UNREACHED) <= _unreached(), "a kept name gained a caller: drop it here"


def test_every_class_is_reached_outside_the_tests():
    stray = sorted(_unreached_classes())
    assert not stray, f"a class reached only by tests (delete it): {stray}"


def test_every_kept_entry_resolves_and_names_a_test():
    scan = _scan()
    assert len(scan.KEPT) <= KEPT_CAP
    defined = set(scan.definitions().values())
    for name, (reason, witness) in scan.KEPT.items():
        assert name in defined, f"{name}: no such function or method under src/repro"
        assert reason in scan.REASONS, f"{name}: unknown reason {reason!r}"
        if reason == "abstract":
            assert witness is None, f"{name}: an abstract entry's witness is its subclasses"
        else:
            assert witness and _test_exists(witness), f"{name}: no test {witness}"


_MODULE = '''
import functools


def traced(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)
    return wrapper


@traced
def decorated(x):
    return x + 1


class Box:
    @property
    def value(self):
        return 2


def spawn_only():
    return 3


def never_called():
    return 4
'''

_ENTRY = '''
import multiprocessing

from reachpkg import mod

if __name__ == "__main__":
    mod.decorated(1)
    mod.Box().value
    child = multiprocessing.get_context("spawn").Process(target=mod.spawn_only)
    child.start()
    child.join(timeout=60)
    raise SystemExit(0 if child.exitcode == 0 else 1)
'''


def test_the_hook_sees_decorators_properties_and_spawned_children(tmp_path):
    scan = _scan()
    package = tmp_path / "reachpkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(_MODULE))
    (tmp_path / "entry.py").write_text(textwrap.dedent(_ENTRY))
    out = tmp_path / "records"
    failed = scan.run_hooked([(sys.executable, "entry.py")], out, package=package, cwd=tmp_path)
    assert failed == []
    assert scan.never_entered(scan.entered(out), package=package) == ["reachpkg.mod:never_called"]


def test_an_entry_point_that_exits_non_zero_fails_the_scan(tmp_path):
    scan = _scan()
    command = (sys.executable, "-c", "raise SystemExit(3)")
    assert scan.run_hooked([command], tmp_path / "records", cwd=tmp_path) == [(command, 3)]
