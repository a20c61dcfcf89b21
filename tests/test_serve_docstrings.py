"""Docstring enforcement for the serving layer's public surface.

The serving engines are the repository's operations surface: every exported
name and every public method must say what it does — and the lifecycle
methods must state their blocking/ordering/backpressure contract (a
pydocstyle-lite check, kept in-tree so the bar cannot rot).
"""

from __future__ import annotations

import inspect

import pytest

import repro.serve as serve
from repro.serve import (
    InferenceEngine,
    MicroBatchEngine,
    ProcessShardedEngine,
    StreamingEngine,
)

ENGINE_CLASSES = (
    InferenceEngine,
    StreamingEngine,
    MicroBatchEngine,
    ProcessShardedEngine,
)

#: Lifecycle methods whose docstrings must spell out the behavioural
#: contract (blocking, ordering, backpressure) — not just exist.
CONTRACT_WORDS = {
    "ingest": ("block", "order"),
    "drain": ("block",),
    "close": ("block", "idempotent"),
}


def _public_methods(cls):
    for name, member in inspect.getmembers(cls):
        if name.startswith("_"):
            continue
        if callable(member) or isinstance(inspect.getattr_static(cls, name, None), property):
            yield name, member


def test_every_exported_name_has_a_docstring():
    for name in serve.__all__:
        obj = getattr(serve, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert (obj.__doc__ or "").strip(), f"repro.serve.{name} has no docstring"


def test_serve_modules_have_docstrings():
    import repro.serve.engine
    import repro.serve.microbatch
    import repro.serve.process_sharded
    import repro.serve.streaming

    for module in (serve, serve.engine, serve.streaming, serve.microbatch,
                   serve.process_sharded):
        assert (module.__doc__ or "").strip(), f"{module.__name__} has no docstring"
        for removed in ('"queue"', "eager=False", '"fused"', "SPLIDT_",
                        '"sharded"', "shards=", "affinity=", "thread-sharded"):
            assert removed not in module.__doc__, (
                f"{module.__name__} docstring mentions the removed {removed}"
            )


@pytest.mark.parametrize("cls", ENGINE_CLASSES, ids=lambda c: c.__name__)
def test_every_public_method_documented(cls):
    missing = []
    for name, member in _public_methods(cls):
        static = inspect.getattr_static(cls, name, None)
        doc = getattr(member, "__doc__", None)
        if isinstance(static, property):
            doc = static.__doc__
        if not (doc or "").strip():
            missing.append(name)
    assert not missing, f"{cls.__name__} methods without docstrings: {missing}"


@pytest.mark.parametrize("method,required", sorted(CONTRACT_WORDS.items()))
def test_lifecycle_docstrings_state_their_contract(method, required):
    doc = (getattr(InferenceEngine, method).__doc__ or "").lower()
    for word in required:
        assert word in doc, (
            f"InferenceEngine.{method} docstring must document its "
            f"{word!r} behaviour (blocking/ordering/backpressure contract)"
        )
