"""Micro-batch engine: arbitrary-size packet chunks, vectorized execution.

The engine buffers the incoming stream in columnar form (per-flow prefix
counts over the shared :class:`~repro.datasets.flows.PacketArrays`) and
pushes flows through the vectorized window machinery
(:mod:`repro.dataplane.vectorized`) in *flushes*.  A flow is eligible for an
eager flush once three conditions hold:

1. **complete** — all ``flow_size`` packets (the Homa/NDP header field) are
   buffered, so every window segment of the flow can be reduced;
2. **watermark passed** — a packet with a strictly greater timestamp has
   been ingested.  Because the stream is time-ordered, every flow that could
   still collide with it (share its CRC32 register slot while it is live)
   has by then shown at least one packet; anything arriving later starts
   after the flow's reference-engine verdict, i.e. after the slot has been
   reclaimed;
3. **unblocked** — no *other* live (seen, unflushed, non-eligible) flow
   occupies the same register slot.

Flows flushed together that share a slot, flows whose stream ended mid-flow
(prefixes) and flows too short to be sure of a verdict go through the
slot-stream plane (:mod:`repro.dataplane.slot_stream`), which replays each
shared slot's packets in arrival order with the reference engine's
corruption, eviction and reclaim semantics — exactly the collision
discipline of ``replay_dataset(engine="vectorized")`` — so the results after
``drain`` are bit-identical to the reference loop for **any** chunking of
the stream.

Each engine owns one :class:`~repro.dataplane.vectorized.ReplayWorkspace`
shared by all its flushes, so the per-round buffers of the fused window
plane are allocated once per session, not once per flush.
"""

from __future__ import annotations

import numpy as np

from repro.dataplane import vectorized as vz
from repro.dataplane.verdicts import Verdicts
from repro.datasets.streams import PacketChunk
from repro.serve.engine import (
    DEFAULT_BACKPRESSURE,
    DEFAULT_FLUSH_FLOWS,
    BackpressureError,
    InferenceEngine,
    ServeError,
)


class MicroBatchEngine(InferenceEngine):
    """Feeds arbitrary-size packet chunks through the vectorized machinery.

    Args:
        program: The ``SpliDTDataPlane`` every system deploys (a top-k
            baseline's is a one-partition model).
        flush_flows: Eager-flush threshold: buffer at least this many
            eligible flows before a flush (amortises the per-flush vectorized
            setup).
        backpressure: Maximum buffered (unprocessed) packets before
            :class:`~repro.serve.engine.BackpressureError` is raised.

    Example::

        >>> from repro.serve import MicroBatchEngine
        >>> engine = MicroBatchEngine(program).open()
        >>> for chunk in iter_packet_chunks(dataset, 256):
        ...     engine.ingest(chunk)
        >>> result = engine.close()
    """

    name = "microbatch"

    def __init__(
        self,
        program,
        *,
        flush_flows: int = DEFAULT_FLUSH_FLOWS,
        backpressure: int = DEFAULT_BACKPRESSURE,
    ) -> None:
        super().__init__()
        if program is None:
            raise ServeError("MicroBatchEngine requires a data-plane program")
        if flush_flows < 1:
            raise ServeError(f"flush_flows must be >= 1, got {flush_flows}")
        if backpressure < 1:
            raise ServeError(f"backpressure must be >= 1, got {backpressure}")
        self.program = program
        self.flush_flows = flush_flows
        self.backpressure = backpressure
        self._slots: np.ndarray | None = None
        self._buffered: np.ndarray | None = None
        self._flushed: np.ndarray | None = None
        self._last_ts: np.ndarray | None = None
        self._dirty_slots: np.ndarray | None = None
        self._forced_scalar: np.ndarray | None = None
        #: Live (buffered, unflushed) flows per register slot.
        self._live_in_slot: np.ndarray | None = None
        #: Complete, unflushed flows — the only candidates of an eager flush.
        self._ready = np.empty(0, dtype=np.intp)
        self._pending = 0
        self._workspace = vz.ReplayWorkspace()
        self._counters = {"flushes": 0, "flushed_flows": 0, "eligible_scans": 0}

    def _engine_verdicts(self) -> Verdicts:
        """The program's verdict snapshot (non-blocking).

        A flow's verdict appears when the flush containing its boundary
        packet runs — eagerly mid-stream, or at ``drain`` for the rest.
        """
        return self.program.verdicts

    def _engine_recirculation_stats(self) -> dict[str, float]:
        """The program's recirculation counters."""
        return self.program.recirculation_stats()

    def _engine_channel_aggregates(self) -> list:
        from repro.serve.engine import channel_aggregate

        return [channel_aggregate(self.program)]

    def _successor_engine(self, program_factory) -> "MicroBatchEngine":
        child = MicroBatchEngine(
            program_factory(),
            flush_flows=self.flush_flows,
            backpressure=self.backpressure,
        )
        if (
            self._slots is not None
            and child.program.indexer.table_size != self.program.indexer.table_size
        ):
            raise ServeError(
                "swapped-in program must keep the register table size "
                f"({self.program.indexer.table_size} != "
                f"{child.program.indexer.table_size})"
            )
        return child

    def _swap_table_size(self) -> int:
        return self.program.indexer.table_size

    def _buffered_packet_count(self) -> int:
        return self._pending

    def _batching_stats(self) -> dict[str, int]:
        return dict(self._counters)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _init_source(self) -> None:
        soa = self._soa
        table_size = self.program.indexer.table_size
        # Hashed once per source: a sharded parent has already filled the cache.
        self._slots = vz.cached_flow_slots(soa, table_size)
        self._buffered = np.zeros(soa.n_flows, dtype=np.int64)
        self._flushed = np.zeros(soa.n_flows, dtype=bool)
        self._dirty_slots = np.zeros(table_size, dtype=bool)
        self._live_in_slot = np.zeros(table_size, dtype=np.int32)
        self._last_ts = vz._last_timestamps(soa)
        # Same-tuple flows can straddle flushes: the reference engine folds a
        # retransmitted five-tuple into the earlier flow's (possibly decided)
        # slot state.  The flow-lockstep plane keeps no slot state behind, so
        # slots with a repeated tuple are pinned up front to the path that
        # does (the slot-stream plane).
        self._forced_scalar = np.zeros(soa.n_flows, dtype=bool)
        populated = np.flatnonzero(soa.n_packets_per_flow > 0)
        tuple_ids = vz.cached_tuple_ids(soa, table_size)[populated]
        repeated = np.bincount(tuple_ids)[tuple_ids] > 1
        if repeated.any():
            # Equal tuples hash to one slot, so the repeats' slots are the set.
            hit = np.isin(self._slots[populated], self._slots[populated[repeated]])
            self._forced_scalar[populated[hit]] = True

    def _ingest(self, chunk: PacketChunk) -> None:
        if self._slots is None:
            self._init_source()
        if chunk.positions.size:
            touched, counts = chunk.flow_counts()
            if np.any(self._flushed[touched]):
                raise ServeError(
                    "packet arrived for a flow that was already flushed "
                    "(stream delivered packets out of order)"
                )
            before = self._buffered[touched]
            after = before + counts
            totals = self._soa.n_packets_per_flow[touched]
            if np.any(after > totals):
                raise ServeError("stream delivered more packets than the flow holds")
            self._buffered[touched] = after
            self._pending += int(chunk.positions.size)
            np.add.at(self._live_in_slot, self._slots[touched[before == 0]], 1)
            self._ready = np.concatenate([self._ready, touched[after == totals]])
        # Eligibility is only worth computing once enough flows have
        # completed to possibly trigger a flush.
        if (self._ready.size >= self.flush_flows
                or self._pending > self.backpressure):
            eligible = self._eligible()
            if eligible.size and (
                eligible.size >= self.flush_flows or self._pending > self.backpressure
            ):
                self._flush(eligible)
        if self._pending > self.backpressure:
            raise BackpressureError(
                f"{self._pending} buffered packets exceed the backpressure "
                f"limit of {self.backpressure}; drain() or raise the limit"
            )

    def _drain(self) -> None:
        if self._buffered is None:
            return
        remaining = np.flatnonzero((self._buffered > 0) & ~self._flushed)
        if remaining.size:
            self._flush(remaining)

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    def _eligible(self) -> np.ndarray:
        """Indices of flows that can be flushed now without changing semantics.

        Touches the complete-unflushed flows only: a candidate is blocked
        iff its slot holds more live flows than candidates.
        """
        self._counters["eligible_scans"] += 1
        ready = self._ready
        candidates = ready[self._last_ts[ready] < self._watermark]
        if candidates.size == 0:
            return candidates
        slots, slot_of, in_slot = np.unique(
            self._slots[candidates], return_inverse=True, return_counts=True
        )
        unblocked = self._live_in_slot[slots] == in_slot
        return np.sort(candidates[unblocked[slot_of]])

    def _flush(self, indices: np.ndarray) -> None:
        """Push the selected flows through the program (contended first, then batched).

        Mirrors :func:`repro.dataplane.vectorized.replay_arrays`.  A flow
        goes to the flow-lockstep window rounds only when,
        *within this flush*, it overlaps no other flow of its register slot,
        it is complete and long enough to decide, and its slot is neither
        *dirty* (an earlier flush left an undecided resident there, which a
        later flow inherits on hardware) nor pinned for a repeated
        five-tuple (:func:`repro.dataplane.vectorized._split_scalar_fast`
        documents the rule); every other flow goes through
        :func:`repro.dataplane.vectorized._replay_scalar` to the slot-stream
        plane, which replays the buffered prefix of an incomplete flow and
        resumes a dirty slot from the state the earlier flush left there.
        """
        soa, flows, program = self._soa, self._flows, self.program
        complete = self._buffered[indices] == soa.n_packets_per_flow[indices]
        forced = (
            ~complete | self._dirty_slots[self._slots[indices]] | self._forced_scalar[indices]
        )
        scalar = vz._split_scalar_fast(
            soa, self._slots, indices, forced=forced,
            min_packets=int(program.model.config.n_partitions),
        )
        scalar_indices = indices[scalar]
        fast_indices = indices[~scalar]

        if scalar_indices.size:
            mask = np.zeros(soa.n_flows, dtype=bool)
            mask[scalar_indices] = True
            outcome = vz._replay_scalar(
                program, flows, soa, mask, prefix_counts=self._buffered, slots=self._slots
            )
            # The slot-stream plane reports exactly which slots still hold
            # an undecided resident; only those stay off the batched plane.
            self._dirty_slots[self._slots[scalar_indices]] = False
            self._dirty_slots[outcome["open_slots"]] = True
        if fast_indices.size:
            vz._replay_splidt_batched(
                program, soa, fast_indices, self._slots, workspace=self._workspace
            )

        self._pending -= int(self._buffered[indices].sum())
        self._flushed[indices] = True
        np.subtract.at(self._live_in_slot, self._slots[indices], 1)
        self._ready = self._ready[~self._flushed[self._ready]]
        self._counters["flushes"] += 1
        self._counters["flushed_flows"] += int(indices.size)
