"""Docs hygiene inside tier-1: links resolve, smoke markers exist.

The heavyweight half — actually executing the marked snippets — runs in
CI's pipeline-smoke job (``tools/check_docs.py --snippets``); here we keep the cheap
invariants in the default suite so a broken link or a silently deleted
docs-smoke marker fails close to the edit that caused it.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs", module)
    spec.loader.exec_module(module)
    return module


def test_relative_links_resolve():
    check_docs = _load_check_docs()
    assert check_docs.check_links() == []


def test_docs_index_covers_every_doc():
    index = (REPO_ROOT / "docs" / "README.md").read_text()
    for doc in sorted((REPO_ROOT / "docs").glob("*.md")):
        if doc.name == "README.md":
            continue
        assert doc.name in index, f"docs/README.md does not link {doc.name}"


def test_smoke_snippets_present():
    check_docs = _load_check_docs()
    for entry in check_docs.SNIPPET_FILES:
        snippets = check_docs._smoke_snippets(REPO_ROOT / entry)
        assert snippets, f"{entry} lost its {check_docs.SMOKE_MARKER} snippets"
        assert all(commands for _language, commands in snippets)


def test_pipeline_python_snippets_run():
    # The spec codec snippet is cheap: run it here, not only in CI.
    check_docs = _load_check_docs()
    sources = [
        commands[0]
        for language, commands in check_docs._smoke_snippets(REPO_ROOT / "docs" / "pipeline.md")
        if language == "python"
    ]
    assert sources
    for source in sources:
        exec(compile(source, "docs/pipeline.md", "exec"), {})


def test_readme_links_docs_index():
    assert "docs/README.md" in (REPO_ROOT / "README.md").read_text()
