"""Sharded engine: disjoint-slot flows advance on parallel worker shards.

All cross-packet state a data-plane program keeps is indexed by the CRC32
register slot of the flow's 5-tuple, so flows whose slots differ never
interact — the same structural fact the vectorized engine exploits.  The
sharded engine turns it into parallelism: flows are partitioned by
``slot % n_shards``, each shard owns a *fresh program instance* (its own
register file and recirculation channel) plus a child engine, and a worker
thread per shard consumes a bounded queue of sub-chunks.  Flows that share a
slot — the hash collisions that corrupt state on real hardware — land on the
same shard by construction, so the corruption is reproduced bit-exactly.

Merging is exact: verdicts are keyed by globally unique flow ids, and the
recirculation counters are order-insensitive aggregates combined by
:func:`repro.serve.engine.merged_recirculation_stats`.

Backpressure is real flow control here: each shard queue holds at most
``queue_depth`` chunks and ``ingest`` blocks once a shard falls behind.

GIL caveat: shards are *threads*, so only the NumPy kernels inside the
child engines overlap — the Python control flow serialises on the GIL and
aggregate throughput tops out near one core regardless of ``n_shards``.
For multi-core scaling use
:class:`~repro.serve.process_sharded.ProcessShardedEngine`, which runs the
identical partitioning across worker processes.
"""

from __future__ import annotations

import queue
import threading

import numpy as np

from repro.dataplane import vectorized as vz
from repro.datasets.streams import PacketChunk
from repro.serve.engine import (
    InferenceEngine,
    ServeError,
    merged_recirculation_stats,
    sum_counters,
)
from repro.serve.microbatch import MicroBatchEngine
from repro.serve.streaming import StreamingEngine

#: Queue sentinel: end of stream — drain the child engine.
_DRAIN = object()
#: Queue sentinel: shut the worker down.
_STOP = object()


class _Shard:
    """One worker: a child engine over its own program, fed by a queue."""

    def __init__(self, index: int, engine: InferenceEngine, queue_depth: int) -> None:
        self.index = index
        self.engine = engine
        self.queue: queue.Queue = queue.Queue(maxsize=queue_depth)
        self.error: BaseException | None = None
        self.thread = threading.Thread(
            target=self._run, name=f"serve-shard-{index}", daemon=True
        )

    def _run(self) -> None:
        while True:
            item = self.queue.get()
            try:
                if item is _STOP:
                    return
                if self.error is None:
                    if item is _DRAIN:
                        self.engine.drain()
                    else:
                        self.engine.ingest(item)
            except BaseException as exc:  # surfaced on the caller's next call
                self.error = exc
            finally:
                self.queue.task_done()


class ShardedEngine(InferenceEngine):
    """Partitions flows by CRC32 register slot across parallel worker shards.

    Worker shards are **threads**: sharding hides the latency of the NumPy
    kernels but the Python control flow still serialises on the GIL (see the
    module docstring; :class:`~repro.serve.process_sharded.ProcessShardedEngine`
    is the multi-core variant).

    Args:
        program_factory: Zero-argument callable building a *fresh* program;
            called once per shard (register state must not be shared).
        n_shards: Worker shard count (>= 1).
        child_engine: Engine each shard runs (``"microbatch"`` or
            ``"streaming"``).
        queue_depth: Chunks a shard may buffer before ``ingest`` blocks.
        flush_flows: Eager-flush threshold of micro-batch children.
        backpressure: Buffered-packet limit of micro-batch children.

    Example::

        >>> from repro.serve import ShardedEngine
        >>> engine = ShardedEngine(lambda: build_program(), n_shards=4).open()
        >>> for chunk in iter_packet_chunks(dataset, 512):
        ...     engine.ingest(chunk)
        >>> result = engine.close()
    """

    name = "sharded"

    def __init__(
        self,
        program_factory,
        *,
        n_shards: int = 2,
        child_engine: str = "microbatch",
        queue_depth: int = 64,
        flush_flows: int | None = None,
        backpressure: int | None = None,
    ) -> None:
        super().__init__()
        if n_shards < 1:
            raise ServeError(f"n_shards must be >= 1, got {n_shards}")
        if child_engine not in ("microbatch", "streaming"):
            raise ServeError(
                f"unknown child engine {child_engine!r}; "
                "expected 'microbatch' or 'streaming'"
            )
        if queue_depth < 1:
            raise ServeError(f"queue_depth must be >= 1, got {queue_depth}")
        self.program_factory = program_factory
        self.n_shards = n_shards
        self.child_engine = child_engine
        self.queue_depth = queue_depth
        self.flush_flows = flush_flows
        self.child_backpressure = backpressure
        self._shards: list[_Shard] = []
        self._shard_of_flow: np.ndarray | None = None
        self._table_size: int | None = None

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def _on_open(self) -> None:
        for index in range(self.n_shards):
            program = self.program_factory()
            if program is None:
                raise ServeError("program_factory returned None")
            table_size = program.indexer.table_size
            if self._table_size is None:
                self._table_size = table_size
            elif table_size != self._table_size:
                raise ServeError(
                    "all shard programs must share one register table size "
                    f"({self._table_size} != {table_size})"
                )
            if self.child_engine == "streaming":
                child: InferenceEngine = StreamingEngine(program)
            else:
                kwargs = {}
                if self.flush_flows is not None:
                    kwargs["flush_flows"] = self.flush_flows
                if self.child_backpressure is not None:
                    kwargs["backpressure"] = self.child_backpressure
                child = MicroBatchEngine(program, **kwargs)
            child.open()
            shard = _Shard(index, child, self.queue_depth)
            shard.thread.start()
            self._shards.append(shard)

    def _ingest(self, chunk: PacketChunk) -> None:
        self._raise_shard_errors()
        if self._shard_of_flow is None:
            # Cached on the source the shards' engines share, so no shard
            # (and no later session) hashes the flow table again.
            slots = vz.cached_flow_slots(self._soa, self._flows, self._table_size)
            self._shard_of_flow = (slots % self.n_shards).astype(np.intp)
        positions = chunk.positions
        if positions.size == 0:
            return
        shard_of_packet = self._shard_of_flow[self._soa.packet_flow[positions]]
        for shard in self._shards:
            sub = positions[shard_of_packet == shard.index]
            if sub.size:
                shard.queue.put(PacketChunk(chunk.soa, chunk.flows, sub))

    def _drain(self) -> None:
        for shard in self._shards:
            shard.queue.put(_DRAIN)
        for shard in self._shards:
            shard.queue.join()
        self._raise_shard_errors()

    def _on_close(self) -> None:
        for shard in self._shards:
            shard.queue.put(_STOP)
        for shard in self._shards:
            shard.thread.join(timeout=30.0)

    def _raise_shard_errors(self) -> None:
        for shard in self._shards:
            if shard.error is not None:
                raise ServeError(
                    f"shard {shard.index} failed: {shard.error}"
                ) from shard.error

    # ------------------------------------------------------------------
    # Observation (merged over shards)
    # ------------------------------------------------------------------
    def _engine_verdicts(self) -> dict:
        """Union of the shard engines' verdicts (flow ids are globally unique).

        Non-blocking: reads each shard's live verdict dict without waiting
        for queued chunks, so a verdict appears as soon as its shard records
        it.
        """
        merged: dict = {}
        for shard in self._shards:
            merged.update(shard.engine.verdicts())
        return merged

    def _engine_recirculation_stats(self) -> dict[str, float]:
        """Shard programs' recirculation counters, merged bit-exactly."""
        return merged_recirculation_stats(
            [shard.engine.program for shard in self._shards]
        )

    def _engine_channel_aggregates(self) -> list:
        from repro.serve.engine import channel_aggregate

        return [channel_aggregate(shard.engine.program) for shard in self._shards]

    def _successor_engine(self, program_factory) -> "ShardedEngine":
        return ShardedEngine(
            program_factory,
            n_shards=self.n_shards,
            child_engine=self.child_engine,
            queue_depth=self.queue_depth,
            flush_flows=self.flush_flows,
            backpressure=self.child_backpressure,
        )

    def _swap_table_size(self) -> int | None:
        return self._table_size

    def _buffered_packet_count(self) -> int:
        return sum(shard.engine._buffered_packet_count() for shard in self._shards)

    def _batching_stats(self) -> dict[str, int]:
        return sum_counters(shard.engine._batching_stats() for shard in self._shards)
