"""Every name a ``repro`` package exports is reached by something other than a test.

A path survives only if something other than its own test runs it. For each
``repro`` package, every name in its ``__init__``'s ``__all__`` must be
referenced -- as an AST ``Name``, an ``Attribute`` or a ``from ... import``
alias -- by some file under ``src/``, ``benchmarks/``, ``tools/`` or
``examples/``. The package ``__init__`` itself does not count (its re-export
is not a use), and neither do docstrings or doc examples: they are strings.
The ``def`` / ``class`` statement is not a reference either, so a name used
only where it is defined counts only if that module calls it. A subpackage
listed in ``__all__`` is reached when some file imports from it.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SCOPES = ("src", "benchmarks", "tools", "examples")

#: Exported names kept without a non-test caller, each with its reason.
ALLOWED_UNREACHED = {
    "repro.core.hypervolume_2d": "ROADMAP item 3 (A-lite) reruns the hypervolume table with it",
    "repro.bayesopt.RealParameter": "ROADMAP item 3 (A-lite) decides the fate of bayesopt/",
    "repro.bayesopt.OrdinalParameter": "ROADMAP item 3 (A-lite) decides the fate of bayesopt/",
    "repro.bayesopt.CategoricalParameter": "ROADMAP item 3 (A-lite) decides the fate of bayesopt/",
    "repro.switch.crc32_reference": "the per-byte CRC the columnar hash is tested against",
}


def _references(path: Path) -> tuple[set[str], set[str]]:
    """The names a source file references, and the modules it imports."""
    names, modules = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
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
    for node in ast.parse(init.read_text()).body:
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
