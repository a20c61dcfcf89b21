"""Streaming inference engines: sessions, micro-batches, worker processes.

This package is the serving surface of a deployed model — the counterpart,
for live traffic, of the one-shot :func:`repro.dataplane.replay_dataset`.
See :mod:`repro.serve.engine` for the protocol and ``docs/serving.md`` for
the full contract; ``docs/performance.md`` explains when to pick which
engine.  :class:`StreamingEngine` is a session over the per-packet oracle,
the reference the engines are tested against, not an engine to serve with.

Example::

    from repro.datasets.streams import iter_packet_chunks
    from repro.serve import create_engine

    engine = create_engine(lambda: build_program(), engine="microbatch")
    with engine:
        for chunk in iter_packet_chunks(dataset, chunk_size=256):
            engine.ingest(chunk)
            print(engine.stats().flows_decided)
    print(engine.result().report.f1_score)
"""

from __future__ import annotations

from repro.serve.engine import (
    DEFAULT_BACKPRESSURE,
    DEFAULT_FLUSH_FLOWS,
    SERVE_ENGINES,
    BackpressureError,
    EngineStats,
    InferenceEngine,
    ServeError,
    SwapEvent,
)
from repro.serve.microbatch import MicroBatchEngine
from repro.serve.process_sharded import ProcessShardedEngine
from repro.serve.streaming import StreamingEngine


def create_engine(
    program_factory,
    *,
    engine: str = "microbatch",
    workers: int = 4,
    spawn_method: str | None = None,
    ring_slots: int = 64,
    chunk_size: int = 256,
    backpressure: int = DEFAULT_BACKPRESSURE,
    flush_flows: int = DEFAULT_FLUSH_FLOWS,
) -> InferenceEngine:
    """Build a (not yet opened) engine from declarative serving settings.

    This is what ``ExperimentSpec.serve`` resolves through: ``engine`` picks
    the implementation, ``workers`` sizes the process-sharded engine, and
    ``backpressure`` bounds the buffered work (``"sharded-mp"`` is bounded by
    ``ring_slots`` as well).

    Args:
        program_factory: Zero-argument callable building a fresh data-plane
            program; called once for ``"microbatch"`` and once per worker
            for ``"sharded-mp"``.  For ``"sharded-mp"`` the
            factory must be picklable under every start method (use
            :class:`repro.pipeline.systems.ProgramFactory`, not a lambda).
        engine: One of :data:`SERVE_ENGINES`.
        workers: Worker-process count (``"sharded-mp"`` only).
        spawn_method: Process start method for ``"sharded-mp"``
            (``None`` = the platform default).
        ring_slots: Slots per worker ring of ``"sharded-mp"`` (its
            backpressure bound: a full ring blocks ``ingest``).
        chunk_size: Ignored.  It sized the queues of a removed engine; the
            keyword stays only because the frozen
            ``benchmarks/perf`` harness passes it (ROADMAP item 1(b) removes it).
        backpressure: Buffered-packet limit.
        flush_flows: Eager-flush threshold of the micro-batch engine(s).

    Example::

        >>> engine = create_engine(factory, engine="microbatch")
        >>> engine.name
        'microbatch'
    """
    if engine == "microbatch":
        return MicroBatchEngine(
            program_factory(), flush_flows=flush_flows, backpressure=backpressure
        )
    if engine == "sharded-mp":
        return ProcessShardedEngine(
            program_factory,
            workers=workers,
            start_method=spawn_method,
            ring_slots=ring_slots,
            flush_flows=flush_flows,
            backpressure=backpressure,
        )
    raise ServeError(f"unknown serve engine {engine!r}; expected one of {SERVE_ENGINES}")


__all__ = [
    "BackpressureError",
    "DEFAULT_BACKPRESSURE",
    "DEFAULT_FLUSH_FLOWS",
    "EngineStats",
    "InferenceEngine",
    "MicroBatchEngine",
    "ProcessShardedEngine",
    "SERVE_ENGINES",
    "ServeError",
    "StreamingEngine",
    "SwapEvent",
    "create_engine",
]
