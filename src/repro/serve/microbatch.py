"""Micro-batch engine: arbitrary-size packet chunks, vectorized execution.

The engine buffers the incoming stream as per-flow packet counts over the
shared :class:`~repro.datasets.flows.PacketArrays` and advances every flow
*window by window*: a window is ready once its last packet has been
ingested (window bounds follow from the flow-size header, the Homa/NDP
field), and the next flush closes it.  What a flush runs a flow on depends
on its register slot:

* **solo** — the flow is alone in its slot.  Its ready windows close on the
  flow-lockstep plane replay uses (:func:`~repro.dataplane.vectorized.close_ready_windows`,
  one window index per row), from the flow's own packets.  A new flow
  claims a slot solo when the slot is free, or when its previous resident
  has received its last packet, has decided, and had a different five-tuple
  (the per-packet oracle then reclaims the slot on fresh state).
* **contended** — another flow's packet reached the slot while its resident
  was live, or a new flow repeated the resident's five-tuple.  At that
  packet the resident's state goes to the program as one
  :class:`~repro.dataplane.splidt_program.SlotHandover` row (decided, or
  undecided with its open window's packets), and from then on every packet
  of the slot is replayed by the slot-stream plane
  (:mod:`repro.dataplane.slot_stream`) in arrival order, resuming from the
  state the program holds — corruption, eviction and reclaim exactly as in
  the per-packet oracle.  One call replays every contended slot; it runs
  once ``flush_flows`` of their flows have had a ready window since the
  last one (and at ``drain``), because its cost is mostly per call.

Every rule reads only the packets delivered so far and each delivered
flow's flow-size header, never a flow that has not arrived, and the
verdicts after ``drain`` are bit-identical to the reference loop for **any**
chunking of the stream.  A slot stays contended for the rest
of the session: that is always correct.
"""

from __future__ import annotations

import numpy as np

from repro.dataplane import vectorized as vz
from repro.dataplane.slot_stream import _PACKET_FIELDS, build_slot_stream
from repro.dataplane.splidt_program import OpenWindows, SlotHandover
from repro.dataplane.verdicts import Verdicts
from repro.datasets.streams import PacketChunk
from repro.serve.engine import (
    DEFAULT_BACKPRESSURE,
    DEFAULT_FLUSH_FLOWS,
    BackpressureError,
    InferenceEngine,
    ServeError,
)

#: Flow phase: no packet yet, alone in its slot (deciding, or decided and
#: forwarding its packets), in a contended slot.
_UNSEEN, _SOLO, _FORWARDING, _CONTENDED = 0, 1, 2, 3

_NO_FLOWS = np.empty(0, dtype=np.intp)


class MicroBatchEngine(InferenceEngine):
    """Feeds arbitrary-size packet chunks through the vectorized machinery.

    Args:
        program: The ``SpliDTDataPlane`` every system deploys (a top-k
            baseline's is a one-partition model).
        flush_flows: Eager-flush floor: flush once at least this many flows
            have a ready window (amortises the per-flush vectorized setup).
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
        self._capacity_bps = program.recirculation.capacity_bps
        for name in ("flushes", "flushed_flows", "eligible_scans"):
            program.counters.add(f"serve.{name}", 0)
        self._slots: np.ndarray | None = None
        self._tuple_ids: np.ndarray | None = None
        #: Window ends, per window and flow (``vz.window_ends``).
        self._ends: np.ndarray | None = None
        #: Every solo window's features, built at the first flush that closes
        #: one; the session's own, never kept on the source.  Over the flows
        #: ``_table_flows`` (every flow of the source when ``None``; a
        #: ``sharded-mp`` worker sets its shard's).
        self._table: vz.WindowTable | None = None
        self._table_flows: np.ndarray | None = None
        #: Per flow: the first window end its delivered packets have not reached.
        self._next_end: np.ndarray | None = None
        #: Per flow: packets the program has taken (closed windows, forwarded
        #: after a verdict, handed over, replayed) of those delivered
        #: (``self._delivered``).
        self._done: np.ndarray | None = None
        self._phase: np.ndarray | None = None
        #: Per solo flow: decided, next window, active subtree.
        self._decided: np.ndarray | None = None
        self._window: np.ndarray | None = None
        self._sid: np.ndarray | None = None
        #: Per slot: its solo resident (flow index, -1 for none), and whether
        #: it is contended.
        self._resident: np.ndarray | None = None
        self._contended: np.ndarray | None = None
        #: Whether any slot is contended yet (until then no flow is).
        self._contention = False
        #: Flows with a ready window since the last flush (may repeat).
        self._due: list[np.ndarray] = []
        #: Residents of slots contended since the last flush, and how many of
        #: their packets arrived before the contending one.
        self._handing: list[tuple[np.ndarray, np.ndarray]] = []
        #: Flows of contended slots with packets not replayed yet, and how many
        #: times one had a ready window since the last replay.
        self._streamed: list[np.ndarray] = []
        self._streamed_due = 0
        self._pending = 0

    def _engine_verdicts(self) -> Verdicts:
        """The program's verdict snapshot (non-blocking).

        A flow's verdict appears when the flush after its deciding packet
        runs — eagerly mid-stream, or at ``drain`` for the rest.
        """
        return self.program.verdicts

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

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _init_source(self) -> None:
        soa = self._soa
        table_size = self.program.indexer.table_size
        # Hashed once per source: a sharded parent has already filled the cache.
        self._slots = vz.cached_flow_slots(soa, table_size)
        self._tuple_ids = vz.cached_tuple_ids(soa, table_size)
        self._ends = vz.window_ends(soa, int(self.program.model.config.n_partitions))
        self._next_end = self._ends[0].copy()
        n_flows = soa.n_flows
        self._done = np.zeros(n_flows, dtype=np.int64)
        self._phase = np.zeros(n_flows, dtype=np.int8)
        self._decided = np.zeros(n_flows, dtype=bool)
        self._window = np.zeros(n_flows, dtype=np.int64)
        self._sid = np.full(n_flows, self.program.model.root_sid, dtype=np.int64)
        self._resident = np.full(table_size, -1, dtype=np.int32)
        self._contended = np.zeros(table_size, dtype=bool)

    def _ingest(self, chunk: PacketChunk) -> None:
        if self._slots is None:
            self._init_source()
        if chunk.positions.size:
            self._admit(chunk)
        # Eligibility is only worth computing once enough flows may have a
        # ready window to trigger a flush.
        over = self._pending > self.backpressure
        if over or sum(due.size for due in self._due) >= self.flush_flows:
            eligible = self._eligible()
            if over or eligible.size >= self.flush_flows:
                self._flush(eligible)
            if over:
                self._replay_contended()
        if self._pending > self.backpressure:
            raise BackpressureError(
                f"{self._pending} buffered packets exceed the backpressure "
                f"limit of {self.backpressure}; drain() or raise the limit"
            )

    def _admit(self, chunk: PacketChunk) -> None:
        """Place the chunk's flows in their slots and note their ready windows.

        Reads the chunk's flows, their packet counts and delivered counts
        from its :class:`~repro.serve.engine._Arrival`, worked out once by
        the stream-order check.  A flow seen before is its slot's resident
        or in a contended slot, where it stays: only new flows are placed.
        """
        touched, counts, before, after = self._arrival
        phase = self._phase[touched]
        arriving = (phase == _UNSEEN).nonzero()[0]
        if arriving.size:
            self._arrive(chunk, touched, before, arriving)
            phase = self._phase[touched]
        # A decided solo flow's packets are forwarded without inference.
        forwarded = (phase == _FORWARDING).nonzero()[0]
        n_forwarded = 0
        if forwarded.size:
            self._done[touched[forwarded]] = after[forwarded]
            n_forwarded = int(counts[forwarded].sum())
            self.program.counters.add("dataplane.lockstep.packets", n_forwarded)
        self._pending += int(chunk.positions.size) - n_forwarded
        if self._contention:
            streamed = phase == _CONTENDED
            if np.count_nonzero(streamed):
                self._streamed.append(touched[streamed])
        # A window is ready once its last packet is in (a contended flow's
        # own window bounds stand in for the slot's).
        crossed = (after >= self._next_end[touched]).nonzero()[0]
        if crossed.size:
            flows, reached = touched[crossed], after[crossed]
            ends = self._ends.take(flows, axis=1)
            self._next_end[flows] = np.minimum.reduce(
                np.where(ends > reached, ends, vz.NO_WINDOW), axis=0
            )
            self._due.append(flows[phase[crossed] != _FORWARDING])

    def _arrive(self, chunk, touched, before, arriving) -> None:
        """Settle the slots of the chunk's new flows (``touched[arriving]``).

        A new flow in a contended slot stays there.  It claims its slot
        when the slot is free or reclaimable and no other flow reaches it in
        this chunk; every other slot is walked in packet order.
        """
        slots = self._slots[touched]
        arriving_slots = slots[arriving]
        contended = self._contended[arriving_slots]
        fresh, fresh_slots = arriving, arriving_slots
        if np.count_nonzero(contended):
            self._phase[touched[arriving[contended]]] = _CONTENDED
            fresh, fresh_slots = arriving[~contended], arriving_slots[~contended]
            if fresh.size == 0:
                return
        # Alone: no other new flow in the slot, and the resident (if any)
        # untouched and reclaimable.
        claims = before[fresh] == 0
        by_slot = np.sort(fresh_slots)
        shared = by_slot[1:][by_slot[1:] == by_slot[:-1]]
        if shared.size:
            claims &= ~np.isin(fresh_slots, shared)
        resident = self._resident[fresh_slots]
        if np.count_nonzero(resident >= 0):
            at = np.minimum(np.searchsorted(touched, resident), touched.size - 1)
            received = self._delivered[np.maximum(resident, 0)]
            claims &= (touched[at] != resident) & self._reclaimable(
                resident, touched[fresh], received
            )
        self._claim(touched[fresh[claims]], fresh_slots[claims])
        if np.count_nonzero(claims) < claims.size:
            walked = np.unique(fresh_slots[~claims])
            self._walk(chunk, touched, before, slots, walked)

    def _reclaimable(
        self, resident: np.ndarray, flows: np.ndarray, received: np.ndarray
    ) -> np.ndarray:
        """Whether each new flow may claim a slot whose resident is ``resident`` (-1: free).

        The resident must have received its last packet (it had ``received``
        of them before the new flow's first), have decided, and carry another
        five-tuple; an undecided or same-tuple resident is state the newcomer
        meets, which only the slot-stream plane replays.
        """
        held = np.maximum(resident, 0)
        return (resident < 0) | (
            (self._phase[held] == _FORWARDING)
            & (received == self._soa.n_packets_per_flow[held])
            & (self._tuple_ids[held] != self._tuple_ids[flows])
        )

    def _claim(self, flows: np.ndarray, slots: np.ndarray) -> None:
        if flows.size:
            self._resident[slots] = flows
            self._phase[flows] = _SOLO
            self.program.begin_flows(slots)

    def _walk(self, chunk, touched, before, slots, walked) -> None:
        """Settle ``walked`` slots in packet order: at most one claim, then a contention.

        A slot's new flows meet it in first-packet order.  The first claims
        it if its resident allows (:meth:`_reclaimable`); a claimer is
        undecided, so a second new flow contends with it.  A first that may
        not claim contends with the resident.  At a contention the slot's
        resident hands over its state as it stood just before the contending
        packet, and it and the flows from the contending one on turn
        contended.  A decided resident a claimer took the slot from keeps
        forwarding its last packets.
        """
        n = chunk.positions.size
        # One key per packet, (flow, arrival index): sorted, each flow's
        # packets are a run in arrival order.
        keys = np.sort(
            self._soa.packet_flow[chunk.positions].astype(np.int64) * (n + 1) + np.arange(n)
        )

        def received(flows: np.ndarray, at: np.ndarray) -> np.ndarray:
            """Packets of ``flows`` delivered before this chunk's packet ``at``."""
            base = flows.astype(np.int64) * (n + 1)
            later = np.searchsorted(keys, base + n) - np.searchsorted(keys, base + at)
            return self._delivered[np.maximum(flows, 0)] - later

        members = np.flatnonzero(np.isin(slots, walked))
        members = members[touched[members] != self._resident[slots[members]]]
        base = touched[members].astype(np.int64) * (n + 1)
        first = keys[np.searchsorted(keys, base)] - base
        order = np.lexsort((first, slots[members]))
        members, first = members[order], first[order]
        flows, member_slots = touched[members], slots[members]
        lead = np.flatnonzero(np.append(True, member_slots[1:] != member_slots[:-1]))
        group_end = np.append(lead[1:], members.size)
        slot, newcomer = member_slots[lead], flows[lead]
        resident = self._resident[slot]
        claims = (before[members[lead]] == 0) & self._reclaimable(
            resident, newcomer, received(resident, first[lead])
        )
        self._claim(newcomer[claims], slot[claims])
        # The contending flow: the first newcomer, or the second after a claim.
        at = lead + claims
        contended = at < group_end
        at, slot = at[contended], slot[contended]
        handing = np.where(claims, newcomer, resident)[contended]
        cuts = received(handing, first[at])
        held = handing >= 0
        handing, cuts = handing[held], cuts[held]
        if handing.size:
            self._handing.append((handing, cuts))
        self._phase[handing] = _CONTENDED
        positions, _ = vz._segment_positions(at, group_end[contended] - at)
        self._phase[flows[positions]] = _CONTENDED
        self._contended[slot] = True
        self._contention |= bool(slot.size)
        self._resident[slot] = -1

    def _drain(self) -> None:
        if self._slots is None:
            return
        due = self._due_flows()
        if due.size or self._handing:
            self._flush(due)
        self._replay_contended()
        # What the solo slots hold goes to the program, as the reference
        # engine would hold it: the session leaves nothing buffered.
        phase = self._phase
        solo = np.flatnonzero((phase == _SOLO) | (phase == _FORWARDING))
        residents = solo[self._resident[self._slots[solo]] == solo]
        if residents.size:
            self._hand_over(residents, self._delivered[residents])

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    def _due_flows(self) -> np.ndarray:
        if len(self._due) > 1:
            self._due = [np.unique(np.concatenate(self._due))]
        return self._due[0] if self._due else _NO_FLOWS

    def _eligible(self) -> np.ndarray:
        """Flows with a ready window: the last packet of one of their windows is in."""
        self.program.counters.add("serve.eligible_scans")
        return self._due_flows()

    def _flush(self, indices: np.ndarray) -> None:
        """Advance the program by every ready window of a solo flow.

        ``indices`` are the flows with a ready window.  The solo ones close
        their ready windows on the flow-lockstep plane, and so do the
        residents of newly contended slots, up to the contending packet;
        those residents are then handed to the program.  Once the contended
        flows among the ``indices`` of the flushes since the last replay
        reach ``flush_flows``, the contended slots replay too
        (:meth:`_replay_contended`).
        """
        phase = self._phase[indices]
        solo = indices[phase == _SOLO]
        rows, limits = solo, self._delivered[solo]
        if self._handing:
            handing = np.concatenate([flows for flows, _ in self._handing])
            cuts = np.concatenate([cut for _, cut in self._handing])
            rows, limits = np.concatenate([rows, handing]), np.concatenate([limits, cuts])
            # A decided resident hands over without closing a window.
            undecided = ~self._decided[rows]
            rows, limits = rows[undecided], limits[undecided]
        if rows.size:
            if self._table is None:
                self._table = vz.WindowTable(
                    self.program, self._soa, self._ends, self._table_flows
                )
            window, done, sid = self._window[rows], self._done[rows], self._sid[rows]
            counters = self.program.counters
            taken = counters.get("dataplane.lockstep.packets", 0)
            decided = vz.close_ready_windows(
                self.program, self._soa, rows, limits, window, done, sid, table=self._table
            )
            self._window[rows], self._done[rows], self._sid[rows] = window, done, sid
            stopped = rows[decided]
            self._decided[stopped] = True
            if self._handing:
                # A resident handing its slot over stays contended.
                stopped = stopped[self._phase[stopped] == _SOLO]
            self._phase[stopped] = _FORWARDING
            self._pending -= counters["dataplane.lockstep.packets"] - taken
        if self._handing:
            self._hand_over(handing, cuts)
        # Closing windows turns no flow contended: the phases read above hold.
        if self._contention:
            self._streamed_due += int(np.count_nonzero(phase == _CONTENDED))
            if self._streamed_due >= self.flush_flows:
                self._replay_contended()
        self._due, self._handing = [], []
        self.program.counters.add("serve.flushes")
        self.program.counters.add("serve.flushed_flows", int(indices.size))

    def _replay_contended(self) -> None:
        """Replay every contended slot's buffered packets on the slot-stream plane.

        One call serves all contended slots, resuming each from the state the
        program holds.  Its cost is mostly per call, so the slots wait for
        ``flush_flows`` of their flows to have a ready window (or for the
        drain, or the backpressure limit).
        """
        if not self._streamed:
            return
        soa = self._soa
        streamed = np.unique(np.concatenate(self._streamed))
        streamed = streamed[self._done[streamed] < self._delivered[streamed]]
        if streamed.size:
            mask = np.zeros(soa.n_flows, dtype=bool)
            mask[streamed] = True
            stream = build_slot_stream(soa, self._slots, mask, self._delivered, self._done)
            vz._replay_scalar(
                self.program, self._flows, soa, mask, self._delivered,
                slots=self._slots, stream=stream,
            )
            self._pending -= int(self._delivered[streamed].sum() - self._done[streamed].sum())
            self._done[streamed] = self._delivered[streamed]
        self._streamed, self._streamed_due = [], 0

    def _hand_over(self, flows: np.ndarray, cuts: np.ndarray) -> None:
        """Give the program solo flows' slot state as of their first ``cuts`` packets.

        Their closed windows are already applied; an undecided flow goes over
        at the start of its open window, with that window's packets.
        """
        soa = self._soa
        undecided = np.flatnonzero(~self._decided[flows])
        live = flows[undecided]
        seen = self._done[live]
        lengths = cuts[undecided] - seen
        starts = soa.flow_starts[live]
        packets, _ = vz._segment_positions(starts + seen, lengths)
        windows = OpenWindows(
            rows=undecided,
            sids=self._sid[live],
            windows=self._window[live],
            seen=seen,
            last_ts=soa.timestamps[starts + cuts[undecided] - 1],
            first_sizes=soa.first_sizes[live],
            starts=np.append(0, np.cumsum(lengths)),
            packets=tuple(getattr(soa, name)[packets] for name in _PACKET_FIELDS),
        )
        self.program.hand_over(
            SlotHandover.of_flows(
                soa, flows, self._slots[flows], soa.first_timestamps[flows], windows
            )
        )
        # Their packets in the open windows were taken here, on the lockstep plane.
        taken = int(cuts.sum() - self._done[flows].sum())
        self.program.counters.add("dataplane.lockstep.packets", taken)
        self._pending -= taken
        self._done[flows] = cuts

