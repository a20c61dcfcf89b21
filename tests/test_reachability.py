"""Every definition under ``src/repro`` is reached by something other than a test.

A path survives only if something other than its own test runs it.  The
contract has two levels:

* **Exports.**  For each ``repro`` package, every name in its ``__init__``'s
  ``__all__`` is used by some file under ``src/``, ``benchmarks/``,
  ``tools/`` or ``examples/`` other than that ``__init__`` (its re-export is
  not a use).  A subpackage listed in ``__all__`` is reached when some file
  imports from it.
* **Definitions.**  Every module-level ``def`` / ``class`` and every method
  (at any class depth) in ``src/repro`` is reached: its name is used in one
  of those files other than inside its own ``def`` (recursion is not a
  caller).  Dunder methods are exempt; Python calls them.

A use is an AST ``Name``, an ``Attribute``, an import alias outside a
package ``__init__``, or the last part of a ``"module:Qual.name"`` path in
``benchmarks/perf/trace.py`` (the harness wraps those by name).  Docstrings
and doc examples are strings, so they are not uses.  Names are matched, not
resolved: a method is reached by any attribute of its name anywhere.

A definition nothing reaches is deleted.  The one exception is a reference
implementation that a test compares live code against: it stays on
:data:`REFERENCES`, which names that test.
"""

from __future__ import annotations

import ast
import re
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

#: Definitions kept without a non-test caller: each is the reference the
#: named test compares live code against.
REFERENCES = {
    "repro.features.flowmeter:FlowMeter.extract_windows":
        "tests/test_features_flowmeter.py::TestBatchedKernelMatchesReference::test_random_flows",
    "repro.features.flowmeter:FlowMeter.extract_flow":
        "tests/test_features_flowmeter.py::TestBatchedKernelMatchesReference::test_random_flows",
    "repro.features.flowmeter:FlowMeter.extract_per_packet":
        "tests/test_features_flowmeter.py::TestBatchedKernelMatchesReference::test_random_flows",
    "repro.ml._tree:Tree.add_node":
        "tests/test_ml_splitter.py::TestTreeGrowth::test_trees_grow_node_for_node_like_the_oracle",
    "repro.ml._tree:Tree.set_children":
        "tests/test_ml_splitter.py::TestTreeGrowth::test_trees_grow_node_for_node_like_the_oracle",
    "repro.ml._tree:Tree._apply_row":
        "tests/test_ml_tree.py::TestClassifierStructure::test_apply_equals_the_per_row_descent",
    "repro.ml._tree:Tree.decision_path":
        "tests/test_ml_tree.py::TestClassifierStructure::test_apply_equals_the_per_row_descent",
    "repro.core.partitioned_tree:PartitionedDecisionTree._predict_single":
        "tests/test_core_range_marking.py::TestRuleGeneration"
        "::test_classify_agrees_with_tree_on_training_data",
    "repro.dataplane.vectorized:_WindowAggregator.compute":
        "tests/test_window_kernels.py::TestRoundFill::test_fill_equals_compute_feature_by_feature",
    "repro.switch.tcam:range_to_ternary":
        "tests/test_core_range_marking.py::TestMarkTable"
        "::test_prefix_cover_size_is_the_expansion_length",
    "repro.switch.hashing:crc32_reference":
        "tests/test_switch_hashing.py::TestCrc32::test_matches_reference_implementation",
}


@cache
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


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


def _definitions(path: Path):
    """``(qualified name, name, first line, last line)`` of each checked definition."""

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield prefix + node.name, node.name, node.lineno, node.end_lineno
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, f"{prefix}{node.name}.")

    yield from walk(_parse(path).body, "")


def _module(path: Path) -> str:
    return ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)


def _unreached_definitions() -> set[str]:
    """``module:Qual.name`` of every definition in ``src/repro`` nothing else uses."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    for scope in SCOPES:
        for path in (ROOT / scope).rglob("*.py"):
            for name, line in _uses(path):
                uses.setdefault(name, []).append((path, line))
    unreached = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for qualified, name, first, last in _definitions(path):
            if not any(
                where != path or not first <= line <= last
                for where, line in uses.get(name, ())
            ):
                unreached.add(f"{_module(path)}:{qualified}")
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


def test_every_export_is_reached_outside_the_tests():
    stray = sorted(_unreached() - set(ALLOWED_UNREACHED))
    assert not stray, f"exported but reached only by tests: {stray}"


def test_the_allowlist_is_short_and_still_needed():
    assert len(ALLOWED_UNREACHED) <= 5
    assert set(ALLOWED_UNREACHED) <= _unreached(), "a kept name gained a caller: drop it here"


def test_every_definition_is_reached_outside_the_tests():
    stray = sorted(_unreached_definitions() - set(REFERENCES))
    assert not stray, f"defined but reached only by tests (delete them): {stray}"


def test_every_kept_reference_is_unreached_and_names_its_test():
    assert len(REFERENCES) <= 12
    assert set(REFERENCES) <= _unreached_definitions(), "a reference gained a caller: drop it here"
    for definition, test in REFERENCES.items():
        file, *owners, test_name = test.split("::")
        test_file = ROOT / file
        body = _parse(test_file).body
        for owner in owners:
            (body,) = [n.body for n in body if isinstance(n, ast.ClassDef) and n.name == owner]
        assert any(
            isinstance(node, ast.FunctionDef) and node.name == test_name for node in body
        ), f"{definition}: no test {test}"
        # The test's file, or a helper module of tests/ it imports, uses it.
        used = {name for name, _ in _uses(test_file)}
        for helper in _references(test_file)[1]:
            if (test_file.parent / f"{helper}.py").is_file():
                used |= {name for name, _ in _uses(test_file.parent / f"{helper}.py")}
        assert re.split(r"[.:]", definition)[-1] in used, f"{test} does not use {definition}"
