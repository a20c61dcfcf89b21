"""Streaming inference engines: sessions, micro-batches, shards, processes.

This package is the serving surface of a deployed model — the counterpart,
for live traffic, of the one-shot :func:`repro.dataplane.replay_dataset`
(whose ``"reference"`` engine is an ingest-everything-then-drain session of
:class:`StreamingEngine`).  See :mod:`repro.serve.engine` for the protocol and
``docs/serving.md`` for the full contract; ``docs/performance.md`` explains
when to pick which engine.

Example::

    from repro.datasets.streams import iter_packet_chunks
    from repro.serve import create_engine

    engine = create_engine(lambda: build_program(), engine="sharded", shards=4)
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
    channel_aggregate,
    merge_channel_aggregates,
    merged_recirculation_stats,
)
from repro.serve.microbatch import MicroBatchEngine
from repro.serve.process_sharded import ProcessShardedEngine
from repro.serve.sharded import ShardedEngine
from repro.serve.streaming import StreamingEngine


def create_engine(
    program_factory,
    *,
    engine: str = "microbatch",
    shards: int = 2,
    workers: int = 4,
    spawn_method: str | None = None,
    ring_slots: int = 64,
    chunk_size: int = 256,
    backpressure: int = DEFAULT_BACKPRESSURE,
    flush_flows: int = DEFAULT_FLUSH_FLOWS,
) -> InferenceEngine:
    """Build a (not yet opened) engine from declarative serving settings.

    This is what ``ExperimentSpec.serve`` resolves through: ``engine`` picks
    the implementation, ``shards``/``workers`` size the thread-/process-
    sharded engines, and ``backpressure``/``chunk_size`` bound the buffered
    work (the thread-sharded engine's per-shard queue depth is
    ``backpressure // chunk_size`` chunks; ``"sharded-mp"`` is bounded by
    ``ring_slots``).

    Args:
        program_factory: Zero-argument callable building a fresh data-plane
            program; called once for the single-program engines and once per
            shard/worker for the sharded engines.  For ``"sharded-mp"`` the
            factory must be picklable under every start method (use
            :class:`repro.pipeline.systems.ProgramFactory`, not a lambda).
        engine: One of :data:`SERVE_ENGINES`.
        shards: Thread-shard count (``"sharded"`` only).
        workers: Worker-process count (``"sharded-mp"`` only).
        spawn_method: Process start method for ``"sharded-mp"``
            (``None`` = the platform default).
        ring_slots: Slots per worker ring of ``"sharded-mp"`` (its
            backpressure bound: a full ring blocks ``ingest``).
        chunk_size: Expected ingest chunk size (used to size shard queues).
        backpressure: Buffered-packet limit.
        flush_flows: Eager-flush threshold of the micro-batch engine(s).

    Example::

        >>> engine = create_engine(factory, engine="microbatch")
        >>> engine.name
        'microbatch'
    """
    if engine == "streaming":
        return StreamingEngine(program_factory())
    if engine == "microbatch":
        return MicroBatchEngine(
            program_factory(), flush_flows=flush_flows, backpressure=backpressure
        )
    if engine == "sharded":
        return ShardedEngine(
            program_factory,
            n_shards=shards,
            queue_depth=max(1, backpressure // max(chunk_size, 1)),
            flush_flows=flush_flows,
            backpressure=backpressure,
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
    "ShardedEngine",
    "StreamingEngine",
    "SwapEvent",
    "channel_aggregate",
    "create_engine",
    "merge_channel_aggregates",
    "merged_recirculation_stats",
]
