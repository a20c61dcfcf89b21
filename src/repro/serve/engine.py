"""The streaming inference-engine protocol.

An :class:`InferenceEngine` is the serving surface of a deployed data-plane
program.  Where :func:`repro.dataplane.replay_dataset` demands a fully
materialised dataset and returns one report at the end, an engine consumes a
*stream* of :class:`~repro.datasets.streams.PacketChunk` slices and exposes
verdicts and statistics while the traffic is still flowing::

    engine.open()
    for chunk in iter_packet_chunks(dataset, chunk_size=256):
        engine.ingest(chunk)           # any chunk size, any number of calls
        print(engine.stats())          # TTD / accuracy / recirculation so far
    engine.drain()                     # end of stream: flush buffered work
    result = engine.close()           # full ReplayResult

Lifecycle: ``created → open → (ingest*) → drained → closed``.  ``drain``
marks the end of the stream (buffered windows of still-incomplete flows are
replayed as prefixes, exactly as the reference loop would have processed
them); ingesting after ``drain`` is an error.  ``close`` drains implicitly
when needed and assembles the final :class:`~repro.dataplane.ReplayResult`.

Semantics contract (asserted by ``tests/test_serve_engines.py``): for a
stream in ``(timestamp, flow_id)`` order, the verdicts, time-to-detection
values and recirculation statistics after ``drain`` are **bit-identical** to
the per-packet oracle (:mod:`repro.dataplane.oracle`) over the same packets — for any
chunk sizes, including hash-collision flows and the IAT accumulation-order
guarantee, and regardless of how many shards the work is spread over.

Concrete engines:

* :class:`~repro.serve.microbatch.MicroBatchEngine` — batches windows through
  the vectorized planes; a flow's window is flushed eagerly once its last
  packet is in, with other flows' ready windows.
* :class:`~repro.serve.process_sharded.ProcessShardedEngine` — partitions
  flows by their CRC32 register slot across worker *processes* over a
  shared-memory packet source, so disjoint-slot flows advance in parallel;
  collision flows stay co-sharded, preserving hardware semantics (see
  ``docs/performance.md``).

:class:`~repro.serve.streaming.StreamingEngine` implements the same protocol
over the per-packet oracle: the reference the engines are tested against,
not one :data:`SERVE_ENGINES` names.
"""

from __future__ import annotations

import abc
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.analysis.ttd import summarize_ttd
from repro.dataplane import vectorized as vz
from repro.dataplane.runtime import ReplayResult, build_replay_result, score_verdicts
from repro.dataplane.verdicts import Verdicts
from repro.datasets.streams import PacketChunk
from repro.obs import Counters
from repro.switch.recirculation import channel_stats

#: Engine names accepted by :func:`repro.serve.create_engine` (and by
#: ``ServeConfig.engine`` / ``python -m repro serve --serve-engine``).
SERVE_ENGINES = ("microbatch", "sharded-mp")

#: Default eager-flush threshold of the micro-batch engine (flows).
DEFAULT_FLUSH_FLOWS = 8

#: Default backpressure limit (buffered, not-yet-processed packets).
DEFAULT_BACKPRESSURE = 1_000_000


class ServeError(RuntimeError):
    """Raised on protocol violations (lifecycle, stream order, bad config)."""


class BackpressureError(ServeError):
    """Raised when an engine's buffered work exceeds its backpressure limit."""


@dataclass
class EngineStats:
    """Statistics of one serving session, scored from its verdict snapshot.

    Attributes:
        engine: Engine name (one of :data:`SERVE_ENGINES`).
        packets: Packets ingested so far.
        chunks: Chunks ingested so far.
        flows_seen: Distinct flows with at least one ingested packet.
        flows_decided: Flows with a recorded verdict.
        buffered_packets: Ingested packets not yet pushed through the program
            (0 for the per-packet oracle session).
        accuracy: Accuracy of the decided flows against ground truth, scored
            from the verdict snapshot as ``close()`` scores its report.
        ttd: Time-to-detection summary of the decided flows
            (median/mean/p90/p99/max, s), ``summarize_ttd`` of the snapshot.
        recirculation: Recirculation counters so far (empty for a
            process-sharded session no worker has reported to yet).
        batching: Micro-batch flush counters, summed over shards, workers
            and model epochs (empty for the per-packet oracle session):
            ``flushes``, ``flushed_flows`` (flows with a ready window per
            flush, summed: their ratio is the mean flush size the vectorized
            machinery amortises its fixed cost over) and ``eligible_scans``
            (eligibility computations, flushing or not).
        transport: IPC-transport health counters (empty for the in-process
            engines).  The process-sharded engine's rings report ``ring_slots``, live ``ring_occupancy`` and
            producer/consumer stall episodes — see
            ``ProcessShardedEngine._transport_stats``.
        counters: The session's :class:`~repro.obs.Counters` snapshot: the
            programs' records merged over workers and model epochs.
            ``recirculation`` and ``batching`` are views of it.
    """

    engine: str
    packets: int
    chunks: int
    flows_seen: int
    flows_decided: int
    buffered_packets: int
    accuracy: float
    ttd: dict[str, float] = field(default_factory=dict)
    recirculation: dict[str, float] = field(default_factory=dict)
    batching: dict[str, int] = field(default_factory=dict)
    transport: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class SwapEvent:
    """Record of one :meth:`InferenceEngine.swap_model` call.

    Attributes:
        epoch: Model epoch installed by this swap (the pre-swap model is
            epoch 0; the first swap installs epoch 1).
        latency_s: Wall-clock seconds the caller was blocked building and
            opening the successor engine — program construction plus eager
            LUT compilation (and, for ``sharded-mp``, starting the workers).
        buffered_packets: Packets ingested but not yet pushed through a
            program at the moment of the swap (the in-flight backlog).
        pinned_slots: Register slots kept on their pre-swap model because a
            flow there was still in flight (or collision/duplicate-tuple
            state made the slot unsafe to rebind).
        pinned_flows: Flows with delivered packets that had not yet seen
            their last packet at the swap — these finish on the old model.
        watermark: Stream watermark (last ingested timestamp) at the swap;
            ``-inf`` when the swap preceded the first packet.
        flows_started: Flows with at least one delivered packet at the swap.
        started_flow_ids: Ids of those flows — the set whose verdicts must be
            bit-identical to a no-swap replay of the old model.
    """

    epoch: int
    latency_s: float
    buffered_packets: int
    pinned_slots: int
    pinned_flows: int
    watermark: float
    flows_started: int
    started_flow_ids: frozenset = frozenset()


class _Arrival(NamedTuple):
    """What one chunk delivered, per flow it touched (ascending flow index).

    Worked out once per chunk, by the stream-order check, and read by the
    engine that takes the chunk: ``counts`` of each flow's packets are in
    the chunk, ``before`` / ``after`` of them were delivered before / after it.
    """

    flows: np.ndarray
    counts: np.ndarray
    before: np.ndarray
    after: np.ndarray


def _batching(counters: Mapping[str, float]) -> dict[str, int]:
    """The micro-batch flush counters of a record (empty if no micro-batch engine wrote it)."""
    if "serve.flushes" not in counters:
        return {}
    names = ("flushes", "flushed_flows", "eligible_scans")
    return {name: counters[f"serve.{name}"] for name in names}


def _flows_in_time_order(soa) -> bool:
    """Whether every flow's packets are in time order in the source (soa-cached)."""
    ordered = soa.derived.get("flows_in_time_order")
    if ordered is None:
        backwards = np.flatnonzero(np.diff(soa.timestamps) < 0) + 1
        # A step back is allowed only where a new flow starts.
        starts = soa.flow_starts[:-1][soa.n_packets_per_flow > 0]
        ordered = bool(np.isin(backwards, starts).all())
        soa.derived["flows_in_time_order"] = ordered
    return ordered


class InferenceEngine(abc.ABC):
    """Base class implementing the serving lifecycle and session statistics.

    Subclasses implement ``_ingest`` (consume one validated chunk) and may
    override ``_drain`` / ``_on_open`` / ``_on_close``; the base class
    enforces the lifecycle, the single-source and time-order stream
    contracts, tracks counters, and assembles the final
    :class:`~repro.dataplane.ReplayResult`.
    """

    name: str = ""

    def __init__(self) -> None:
        self._state = "created"
        self._soa = None
        self._flows: list | None = None
        self._watermark = float("-inf")
        #: Position of the last packet ingested: ties at the watermark must
        #: follow it in ``(flow id, position)`` order.
        self._last_position = -1
        self._packets = 0
        #: The :class:`_Arrival` of the chunk being ingested.
        self._arrival: _Arrival | None = None
        self._chunks = 0
        self._flows_seen = 0
        self._result: ReplayResult | None = None
        #: ``(snapshot, accuracy, ttd)`` of the last snapshot :meth:`stats` scored.
        self._scored: tuple | None = None
        # --- model hot-swap state (see swap_model) ---
        self._delivered: np.ndarray | None = None
        self._epoch_children: list["InferenceEngine"] = []
        self._slot_epoch: np.ndarray | None = None
        self._flow_epoch: np.ndarray | None = None
        self._swap_slots: np.ndarray | None = None
        self._default_slot_epoch = 0
        #: Recirculation path capacity of this engine's program(s), in bit/s.
        self._capacity_bps: float | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open(self) -> "InferenceEngine":
        """Start a serving session; must precede the first ``ingest``.

        The process-sharded engine pre-binds here: ``open()`` blocks until
        every worker has built its program, so the serving window that
        follows contains no warm-up (source-dependent setup still waits for
        the first ``ingest``, when the packet arrays are known).  An engine
        opens exactly once; re-opening raises :class:`ServeError`.
        """
        if self._state != "created":
            raise ServeError(f"cannot open() an engine in state {self._state!r}")
        self._state = "open"
        self._on_open()
        return self

    def ingest(self, chunk: PacketChunk) -> None:
        """Consume one time-ordered chunk of the packet stream.

        Ordering contract: chunks of one session must reference a single
        :class:`~repro.datasets.flows.PacketArrays` source and their
        concatenated positions must be in ``(timestamp, flow_id)`` order,
        each flow's packets in order from its first — both are validated
        here and violations raise :class:`ServeError`.

        Blocking/backpressure contract: the single-program engines return
        as soon as the chunk is buffered/processed and raise
        :class:`BackpressureError` past their buffered-packet limit; the
        process-sharded engine instead *blocks* while a worker's bounded
        ring is full (real flow control).  See each engine's class docstring.
        """
        if self._state != "open":
            raise ServeError(f"cannot ingest() in state {self._state!r}; call open() first")
        self._register_chunk(chunk)
        if not self._epoch_children:
            self._ingest(chunk)
        else:
            self._route_chunk(chunk)

    def drain(self) -> None:
        """End of stream: flush all buffered work through the program.

        Blocks until every buffered packet has been pushed through the
        program (and, for the process-sharded engine, until every worker
        has acknowledged the flush).  Idempotent; ingesting afterwards raises
        :class:`ServeError`.
        """
        if self._state == "drained":
            return
        if self._state != "open":
            raise ServeError(f"cannot drain() in state {self._state!r}")
        self._drain()
        for child in self._epoch_children:
            child.drain()
        self._state = "drained"

    def close(self) -> ReplayResult:
        """Drain if needed, finalise, and return the full replay result.

        Blocks for the implicit drain, releases every engine resource
        (worker processes, queues, shared-memory segments), and is
        idempotent — a second ``close()`` returns the same
        :class:`~repro.dataplane.ReplayResult` object without touching the
        shards again.
        """
        if self._state == "closed":
            return self._result
        if self._state == "created":
            raise ServeError("cannot close() an engine that was never opened")
        if self._state == "open":
            self.drain()
        self._result = build_replay_result(
            self.verdicts(), *self._ground_truth(), self.recirculation_stats()
        )
        self._state = "closed"
        for child in self._epoch_children:
            child.close()
        self._on_close()
        return self._result

    def result(self) -> ReplayResult:
        """The final result (only available after :meth:`close`)."""
        if self._result is None:
            raise ServeError("result() is only available after close()")
        return self._result

    def __enter__(self) -> "InferenceEngine":
        return self.open()

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def verdicts(self) -> Verdicts:
        """Snapshot of the verdicts recorded so far, keyed by flow id.

        An immutable :class:`~repro.dataplane.verdicts.Verdicts` mapping.
        Safe to call at any point of the lifecycle; monotone (a verdict
        never disappears between calls).  After :meth:`swap_model` this is
        the union over every model epoch (flow ids are globally unique, and
        each flow is processed by exactly one epoch).  The process-sharded
        engine pays a synchronous per-worker round-trip while the stream is
        open — see its ``_engine_verdicts``.
        """
        if not self._epoch_children:
            return self._engine_verdicts()
        return Verdicts.merged(
            [self._engine_verdicts(), *(child.verdicts() for child in self._epoch_children)]
        )

    @abc.abstractmethod
    def _engine_verdicts(self) -> Verdicts:
        """This engine's own verdicts (excluding swapped-in epoch children)."""

    def recirculation_stats(self) -> dict[str, float]:
        """Recirculation counters so far.

        After :meth:`swap_model` the epochs' records are merged (totals are
        additive; the submission interval is the min/max over epochs), so a
        swap to an identical model leaves these numbers untouched.
        """
        return channel_stats(self._session_counters(), self._capacity_bps)

    def _session_counters(self) -> Counters:
        """This engine's record merged with every model epoch's."""
        return Counters.merged(
            [self._engine_counters(), *(c._session_counters() for c in self._epoch_children)]
        )

    def _engine_counters(self) -> Mapping[str, float]:
        """This engine's own record (excluding epoch children): its program's."""
        return self.program.counters

    def _transport_stats(self) -> dict[str, float]:
        """IPC-transport health counters (empty for in-process engines)."""
        return {}

    def stats(self) -> EngineStats:
        """Statistics of the session so far.

        ``accuracy`` and ``ttd`` score the current :meth:`verdicts` snapshot
        with the replay scorer (:func:`~repro.dataplane.runtime.score_verdicts`,
        :func:`~repro.analysis.ttd.summarize_ttd`), from its columns: after
        ``drain`` they equal ``close().report.accuracy`` and the summary of
        ``close().time_to_detection()``.  Cheap for the in-process engines;
        for the process-sharded engine it costs one snapshot round-trip per
        worker while the stream is open, so call it per progress interval,
        not per packet.
        """
        verdicts = self.verdicts()
        counters = self._session_counters()
        # A snapshot is immutable, and a session's source is fixed once its
        # first chunk arrives: an unchanged snapshot is not scored again.
        if self._scored is None or self._scored[0] is not verdicts:
            # The source itself, so its sort order is kept (truth_index).
            source = self._soa if self._soa is not None else ()
            self._scored = (
                verdicts,
                score_verdicts(verdicts, source, self._ground_truth()[1]).accuracy,
                summarize_ttd(verdicts.time_to_detection()),
            )
        _, accuracy, ttd = self._scored
        return EngineStats(
            engine=self.name,
            packets=self._packets,
            chunks=self._chunks,
            flows_seen=self._flows_seen,
            flows_decided=len(verdicts),
            buffered_packets=self._total_buffered(),
            accuracy=accuracy,
            ttd=ttd,
            recirculation=channel_stats(counters, self._capacity_bps),
            batching=_batching(counters),
            transport=self._transport_stats(),
            counters=counters.snapshot(),
        )

    # ------------------------------------------------------------------
    # Model hot swap
    # ------------------------------------------------------------------
    def swap_model(self, program_factory) -> SwapEvent:
        """Atomically install a new model without dropping in-flight flows.

        A successor engine of the same class is built from
        ``program_factory`` and opened — program construction and eager LUT
        compilation (``rules.compiled_lookup()``), on the calling thread: the
        session ingests nothing meanwhile — and becomes the next *model
        epoch*.  Flows are then routed by their CRC32 register slot:

        * a slot whose current-epoch flows are all **complete and
          temporally disjoint with distinct five-tuples** is rebound to the
          new epoch — the next flow hashed there starts on fresh state,
          exactly the slot-reclaim semantics of the static data plane;
        * every other slot is **pinned**: its undecided/in-flight flows (and
          any flow later hashed into the slot while it stays pinned) finish
          on the old program, so their verdicts are bit-identical to a
          no-swap replay of the old model.

        The pin decision is a pure function of the delivered stream prefix,
        the flow table and the register table size — never of verdict
        timing — so every engine (micro-batch, process-sharded, the oracle session)
        partitions flows identically and the cross-engine parity contract
        survives the swap.  Swapping to an identical model
        is fully invisible: verdicts, TTD and merged recirculation counters
        all match the no-swap session bit-for-bit.

        Returns the :class:`SwapEvent` describing the swap (build latency,
        in-flight backlog, pinned slots/flows).  Only valid while the
        session is ``open``.
        """
        if self._state != "open":
            raise ServeError(f"cannot swap_model() in state {self._state!r}")
        start = time.perf_counter()
        child = self._successor_engine(program_factory).open()
        latency = time.perf_counter() - start

        buffered = self._total_buffered()
        new_epoch = len(self._epoch_children) + 1
        pinned_slots = 0
        pinned_flows = 0
        started: frozenset = frozenset()
        if self._soa is not None and self._delivered is not None and np.any(self._delivered > 0):
            self._ensure_epoch_arrays()
            pinned = self._pinned_slots()
            rebind = np.ones(self._slot_epoch.size, dtype=bool)
            rebind[pinned] = False
            self._slot_epoch[rebind] = new_epoch
            pinned_slots = int(pinned.size)
            delivered_idx = np.flatnonzero(self._delivered > 0)
            pinned_flows = int(np.count_nonzero(
                self._delivered[delivered_idx]
                < self._soa.n_packets_per_flow[delivered_idx]
            ))
            started = frozenset(self._soa.flow_ids[delivered_idx].tolist())
        else:
            # No packet delivered yet: every slot (current and future)
            # belongs wholesale to the new epoch.
            self._default_slot_epoch = new_epoch
            if self._slot_epoch is not None:
                self._slot_epoch[:] = new_epoch
        self._epoch_children.append(child)
        event = SwapEvent(
            epoch=new_epoch,
            latency_s=latency,
            buffered_packets=buffered,
            pinned_slots=pinned_slots,
            pinned_flows=pinned_flows,
            watermark=self._watermark,
            flows_started=len(started),
            started_flow_ids=started,
        )
        return event

    @abc.abstractmethod
    def _successor_engine(self, program_factory) -> "InferenceEngine":
        """Build (but do not open) a successor engine of this class."""

    @abc.abstractmethod
    def _swap_table_size(self) -> int | None:
        """This engine's register table size, if already known."""

    def _resolve_table_size(self) -> int | None:
        size = self._swap_table_size()
        if size is not None:
            return size
        for child in self._epoch_children:
            size = child._resolve_table_size()
            if size is not None:
                return size
        return None

    def _ensure_epoch_arrays(self) -> None:
        """Lazily build the slot→epoch and flow→epoch routing tables."""
        if self._slot_epoch is not None:
            return
        table_size = self._resolve_table_size()
        if table_size is None:
            raise ServeError(
                "cannot determine the register table size for swap routing "
                "(no epoch has processed traffic yet)"
            )
        # Hashed once per source: the first ingest has already filled the cache.
        self._swap_slots = vz.cached_flow_slots(self._soa, table_size)
        self._slot_epoch = np.full(table_size, self._default_slot_epoch, dtype=np.int32)
        self._flow_epoch = np.full(self._soa.n_flows, -1, dtype=np.int32)
        delivered_idx = np.flatnonzero(self._delivered > 0)
        self._flow_epoch[delivered_idx] = self._slot_epoch[self._swap_slots[delivered_idx]]

    def _pinned_slots(self) -> np.ndarray:
        """Slots that must stay on their current epoch across this swap.

        A slot is pinned when, among the flows of its *current* epoch with
        delivered packets, any is incomplete (in flight), any two overlap in
        time, or any two share a five-tuple — the cases where register state
        (possibly corrupted/undecided) must survive for later packets.  That
        is the rule replay routes by (:func:`vz._split_scalar_fast`): a
        complete flow's delivered span is its whole span.  Pure function of
        the stream prefix, so all engines agree.
        """
        soa = self._soa
        slots = self._swap_slots
        current = np.flatnonzero(
            (self._delivered > 0) & (self._flow_epoch == self._slot_epoch[slots])
        )
        incomplete = self._delivered[current] < soa.n_packets_per_flow[current]
        # Equal tuples hash to one slot, so forcing the repeats forces their slot.
        tuple_ids = vz.cached_tuple_ids(soa, self._slot_epoch.size)[current]
        repeated = np.bincount(tuple_ids)[tuple_ids] > 1
        unsafe = vz._split_scalar_fast(soa, slots, current, forced=incomplete | repeated)
        return np.unique(slots[current[unsafe]])

    def _route_chunk(self, chunk: PacketChunk) -> None:
        """Split one chunk by flow epoch and dispatch the sub-chunks."""
        positions = np.asarray(chunk.positions)
        if positions.size == 0:
            self._ingest(chunk)
            return
        if self._slot_epoch is None:
            # Every swap so far preceded the first delivered packet, so the
            # whole stream belongs to the newest epoch — no per-slot routing.
            self._dispatch(self._default_slot_epoch, chunk, positions)
            return
        flow_of_packet = self._soa.packet_flow[positions]
        unseen = self._flow_epoch[flow_of_packet] < 0
        if np.any(unseen):
            fresh = np.unique(flow_of_packet[unseen])
            self._flow_epoch[fresh] = self._slot_epoch[self._swap_slots[fresh]]
        packet_epoch = self._flow_epoch[flow_of_packet]
        for epoch in np.unique(packet_epoch).tolist():
            self._dispatch(int(epoch), chunk, positions[packet_epoch == epoch])

    def _dispatch(self, epoch: int, chunk: PacketChunk, positions: np.ndarray) -> None:
        sub = PacketChunk(soa=chunk.soa, flows=chunk.flows, positions=positions)
        if epoch == 0:
            # Its flows' packets are already counted as delivered.
            flows, counts = sub.flow_counts()
            after = self._delivered[flows]
            self._arrival = _Arrival(flows, counts, after - counts, after)
            self._ingest(sub)
        else:
            self._epoch_children[epoch - 1].ingest(sub)

    def _ground_truth(self) -> tuple:
        """The source's ``(flow_ids, labels)`` columns (empty before the first chunk)."""
        return (self._soa.flow_ids, self._soa.labels) if self._soa is not None else ((), ())

    def _total_buffered(self) -> int:
        return self._buffered_packet_count() + sum(
            child._total_buffered() for child in self._epoch_children
        )

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _on_open(self) -> None:
        pass

    @abc.abstractmethod
    def _ingest(self, chunk: PacketChunk) -> None:
        """Consume one chunk (stream contracts already validated)."""

    @abc.abstractmethod
    def _drain(self) -> None:
        """Process everything buffered (``drain()``'s work)."""

    def _on_close(self) -> None:
        pass

    def _buffered_packet_count(self) -> int:
        return 0

    # ------------------------------------------------------------------
    # Stream-contract validation
    # ------------------------------------------------------------------
    def _register_chunk(self, chunk: PacketChunk) -> None:
        if self._soa is None:
            self._soa = chunk.soa
            self._flows = chunk.flows
            self._delivered = np.zeros(chunk.soa.n_flows, dtype=np.int64)
        elif chunk.soa is not self._soa:
            raise ServeError(
                "engine sessions are single-source: every chunk must reference "
                "the PacketArrays the session started with"
            )
        if chunk.positions.size:
            self._arrival = arrival = self._deliver(chunk)
            self._packets += int(chunk.positions.size)
            # A flow none of whose packets came before this chunk is new.
            self._flows_seen += arrival.flows.size - int(np.count_nonzero(arrival.before))
        self._chunks += 1

    def _deliver(self, chunk: PacketChunk) -> _Arrival:
        """Count the chunk's packets as delivered, or reject it for breaking the stream order.

        The stream is ordered by ``(timestamp, flow_id)`` — equal timestamps
        in flow-id order, across chunks too, which is the order every batched
        plane replays ties in — and each flow's packets arrive in order, from
        its first, none twice.  Checked in that order, once per chunk: a
        fixed number of NumPy calls over the chunk's packets and flows, and
        the tie rule only where a timestamp does not rise.  A rejected chunk
        changes nothing.  Returns the chunk's :class:`_Arrival`.
        """
        soa = self._soa
        if not _flows_in_time_order(soa):
            raise ServeError("every flow's packets must be in time order in the source")
        positions = chunk.positions
        timestamps = soa.timestamps[positions]
        if timestamps[0] <= self._watermark or np.count_nonzero(timestamps[1:] <= timestamps[:-1]):
            self._check_ties(positions, timestamps)
        # Time and tie order hold, so each flow's packets arrive in position
        # order, none twice: they are its next undelivered ones iff its run
        # of positions starts there and ends as many positions on as it has
        # packets.
        touched, counts = chunk.flow_counts()
        runs = chunk.by_position()
        before = self._delivered[touched]
        after = before + counts
        ends = counts.cumsum()
        head = soa.flow_starts[touched] + before
        if np.count_nonzero(runs[ends - counts] != head) or np.count_nonzero(
            runs[ends - 1] - head != counts - 1
        ):
            raise ServeError(
                "each flow's packets must arrive in order, from its first packet, "
                "none twice or past the flow's end"
            )
        self._delivered[touched] = after
        self._watermark = float(timestamps[-1])
        self._last_position = int(positions[-1])
        return _Arrival(touched, counts, before, after)

    def _check_ties(self, positions: np.ndarray, timestamps: np.ndarray) -> None:
        """Reject a chunk whose timestamps fall, or whose ties break ``(flow id, position)`` order.

        Run only for a chunk with a timestamp that does not rise (counting
        from the previous chunk's last packet).
        """
        soa = self._soa
        # Each packet's step from the one before it; ``back`` counts from the
        # previous chunk's last packet.
        step = np.diff(timestamps)
        back = np.flatnonzero(step <= 0) + 1
        if timestamps[0] <= self._watermark:
            back = np.append(0, back)
        if timestamps[0] < self._watermark or np.any(step[back[back > 0] - 1] < 0):
            raise ServeError(
                "stream must be time-ordered (non-decreasing timestamps "
                "across and within chunks)"
            )
        # Ties: (flow id, position) ascending, the order a stable sort of
        # flow-major positions by (timestamp, flow id) leaves them in.
        ahead, at = positions[back - 1], positions[back]
        ahead_ids, ids = soa.flow_ids[soa.packet_flow[ahead]], soa.flow_ids[soa.packet_flow[at]]
        if back[0] == 0:
            ahead[0] = self._last_position
            ahead_ids[0] = soa.flow_ids[soa.packet_flow[ahead[0]]]
        if np.any((ids < ahead_ids) | ((ids == ahead_ids) & (at <= ahead))):
            raise ServeError(
                "stream must deliver equal timestamps in flow-id order, each "
                "flow's packets in order (across and within chunks)"
            )
