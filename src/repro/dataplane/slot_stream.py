"""Slot-stream window plane: contended register slots in batched event rounds.

The flow-lockstep plane of :mod:`repro.dataplane.vectorized` advances *flows*
in window rounds, which is only sound while every flow has its register slot
to itself.  Under table pressure most slots are shared: packets of several
flows interleave in one slot, corrupt the resident's windows, get it evicted,
reclaim the slot after a verdict.  All of that is still sequential *per slot*
and independent *across* slots, so this plane takes the slot as its unit:

1. The contended packets are ordered once by ``(slot, timestamp, flow_id)``
   (:func:`build_slot_stream`) — each slot's packets form one contiguous run,
   in exactly the order ``process_packet`` would meet them.
2. Every slot is a row of a few state arrays (resident five-tuple id, the
   resident's first packet, subtree id, window index, packets seen, a cursor
   into its run).  All rows advance together in *event rounds*; in one round
   each live row handles its next event, found with one vectorised "first
   position at or after the cursor where ..." primitive (:func:`_first_hit`)
   used three ways:

   * **reclaim** — after a verdict the first packet of a *different*
     five-tuple starts a new epoch (same-tuple packets are forwarded
     without inference);
   * **window boundary** — the first packet at which the packets seen reach
     the window boundary derived from the *incoming* packet's flow-size
     header (a colliding flow's header can close the resident's window);
   * **eviction** — the first packet of a different five-tuple, up to the
     boundary packet, for which the program's policy evicts given the
     previous packet's timestamp (an undecided resident was last seen at the
     slot's previous packet, so the policy input is a per-packet column).

3. The windows closed in a round are gathered into one round-local packet
   view and aggregated by the same :class:`~repro.dataplane.vectorized._WindowAggregator`
   the flow-lockstep plane uses, then classified through
   ``SpliDTDataPlane.step_windows`` with one window index per row.  Verdicts
   are credited as ``process_packet`` credits them: to the deciding packet's
   flow id, with the epoch's first timestamp and the epoch creator's header
   fields; rounds are finalised in order, so a flow id decided twice keeps
   its later verdict.

``process_packet`` is reached only for slots that already hold a live
undecided flow when the call starts (their whole run is replayed per packet).
What a call leaves in its slots is recorded, and settled on first read: every
slot's final resident goes to the program as one row of a
:class:`~repro.dataplane.splidt_program.SlotHandover` — an undecided one with
its registers at the start of its open window and that window's packets —
and becomes slot state only when something looks at slot state again (a later
call on the same program, which therefore continues correctly).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.range_marking import group_by_sid
from repro.dataplane import vectorized as vz
from repro.dataplane.splidt_program import OpenWindows, SlotHandover
from repro.datasets.flows import Flow, PacketArrays
from repro.features.definitions import N_FEATURES, STATELESS_HEADER_INDICES

_SRC_PORT, _DST_PORT, _PROTOCOL, _PKT_LEN_FIRST = STATELESS_HEADER_INDICES

#: Row status: no resident yet, an undecided resident, a decided resident.
_FRESH, _LIVE, _DECIDED = 0, 1, 2

#: Tuple id of a decided resident whose five-tuple no flow of the run carries:
#: every packet differs from it, so the first one reclaims the slot.
_FOREIGN_TUPLE = -2

#: Packets examined per row in the first pass of a search; doubles per pass.
_FIRST_BLOCK = 16

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class SlotStream:
    """Packets of a set of flows, grouped by register slot in arrival order.

    Row ``r`` (one per slot) owns stream positions ``starts[r]:starts[r + 1]``.
    Only integer columns, so a stream may be kept on ``PacketArrays.derived``.
    """

    #: Flow-major packet position of every stream packet.
    order: np.ndarray
    #: Flow index of every stream packet.
    flow: np.ndarray
    starts: np.ndarray
    #: Register slot of every row.
    slots: np.ndarray
    n_flows: int

    @property
    def n_packets(self) -> int:
        return int(self.order.size)


def build_slot_stream(
    soa: PacketArrays,
    slots: np.ndarray,
    flow_mask: np.ndarray,
    prefix_counts: np.ndarray | None = None,
) -> SlotStream:
    """Order the packets of the flows in ``flow_mask`` by ``(slot, arrival)``.

    Arrival order is the global ``(timestamp, flow_id)`` interleave; a stable
    sort by slot on top of it keeps it within every slot.  ``prefix_counts``
    restricts each flow to its first packets, as in
    :func:`~repro.dataplane.vectorized._replay_scalar`.
    """
    order = vz._arrival_order(soa, flow_mask, prefix_counts)
    flow = np.asarray(soa.packet_flow[order])
    packet_slots = slots[flow]
    by_slot = np.argsort(packet_slots, kind="stable")
    packet_slots = packet_slots[by_slot]
    first = np.ones(packet_slots.size, dtype=bool)
    first[1:] = packet_slots[1:] != packet_slots[:-1]
    starts = np.append(np.flatnonzero(first), packet_slots.size)
    return SlotStream(
        order=order[by_slot],
        flow=flow[by_slot],
        starts=starts,
        slots=packet_slots[starts[:-1]],
        n_flows=int(np.count_nonzero(flow_mask)),
    )


def _first_hit(lo: np.ndarray, hi: np.ndarray, test) -> np.ndarray:
    """Per row, the first position in ``[lo, hi)`` where ``test`` holds, else ``hi``.

    ``test(rows, positions)`` evaluates a batch of candidates (``rows`` index
    ``lo``/``hi``).  Rows are scanned in blocks that double per pass, so a
    row costs at most twice the distance to its hit however far that is.
    """
    found = hi.copy()
    rows = np.flatnonzero(lo < hi)
    lo = lo[rows]
    block = _FIRST_BLOCK
    while rows.size:
        stop = np.minimum(lo + block, hi[rows])
        lengths = stop - lo
        offsets = np.cumsum(lengths) - lengths
        owner = np.repeat(np.arange(rows.size), lengths)
        positions = np.arange(owner.size) + (lo - offsets)[owner]
        hits = np.flatnonzero(test(rows[owner], positions))
        unresolved = stop < hi[rows]
        if hits.size:
            hit_owner = owner[hits]
            leading = np.ones(hits.size, dtype=bool)
            leading[1:] = hit_owner[1:] != hit_owner[:-1]
            winners = hit_owner[leading]
            found[rows[winners]] = positions[hits[leading]]
            unresolved[winners] = False
        rows = rows[unresolved]
        lo = stop[unresolved]
        block *= 2
    return found


def _eviction_mask(policy, timestamps: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Whether each stream packet would evict an undecided resident of another tuple.

    An undecided resident was last seen at the slot's previous packet, so the
    policy is evaluated once per packet on ``(ts[j - 1], ts[j])``.
    """
    previous, incoming = timestamps[:-1], timestamps[1:]
    try:
        verdicts = np.asarray(
            policy.should_evict(resident_last_seen=previous, incoming_ts=incoming), dtype=bool
        )
    except (TypeError, ValueError):
        verdicts = None
    if verdicts is None or verdicts.shape != incoming.shape:
        # A policy written for scalars only (``if`` on its arguments).
        verdicts = np.fromiter(
            (
                policy.should_evict(resident_last_seen=a, incoming_ts=b)
                for a, b in zip(previous.tolist(), incoming.tolist())
            ),
            dtype=bool,
            count=incoming.size,
        )
    mask = np.zeros(timestamps.size, dtype=bool)
    mask[1:] = verdicts
    mask[starts[:-1]] = False  # a run's first packet has no predecessor in its slot
    return mask


def _packet_view(soa: PacketArrays, packets: np.ndarray) -> PacketArrays:
    """The per-packet columns of ``packets`` as a stand-alone source for the aggregator."""
    view = PacketArrays(
        timestamps=soa.timestamps[packets],
        sizes=soa.sizes[packets],
        flags=soa.flags[packets],
        directions=soa.directions[packets],
        payloads=soa.payloads[packets],
        packet_flow=_EMPTY,
        flow_starts=np.array([0, packets.size], dtype=np.intp),
        flow_ids=_EMPTY,
        labels=_EMPTY,
        n_packets_per_flow=_EMPTY,
        src_ips=_EMPTY,
        dst_ips=_EMPTY,
        src_ports=_EMPTY,
        dst_ports=_EMPTY,
        protocols=_EMPTY,
        first_sizes=_EMPTY,
        first_timestamps=_EMPTY,
        interleave_order=_EMPTY,
    )
    # Integer-valuedness is decided once, on the source's column.
    for name in ("sizes", "payloads"):
        view.derived["whole", name] = vz.whole_valued(soa, name)
    return view


class _SlotRows:
    """Per-row (per-slot) register state of one slot-stream replay."""

    def __init__(self, stream: SlotStream, root_sid: int) -> None:
        n_rows = stream.slots.size
        #: Next packet to look at — for a live row, the start of its open window.
        self.cursor = stream.starts[:-1].copy()
        self.end = stream.starts[1:]
        self.status = np.full(n_rows, _FRESH, dtype=np.int8)
        #: Five-tuple id of the resident (meaningful unless ``_FRESH``).
        self.resident = np.full(n_rows, _FOREIGN_TUPLE, dtype=np.int64)
        #: Stream position of the resident's first packet; -1 until this
        #: replay admits one (the slot's state is then not ours to rewrite).
        self.epoch = np.full(n_rows, -1, dtype=np.int64)
        self.sid = np.full(n_rows, root_sid, dtype=np.int64)
        self.window = np.zeros(n_rows, dtype=np.int64)
        #: Packets the resident had seen at ``cursor``.
        self.seen = np.zeros(n_rows, dtype=np.int64)
        #: Rows replayed per packet because the slot held a live flow at entry.
        self.fallback = np.zeros(n_rows, dtype=bool)


def replay_slot_stream(
    program,
    flows: list[Flow],
    soa: PacketArrays,
    flow_mask: np.ndarray,
    prefix_counts: np.ndarray | None = None,
    *,
    slots: np.ndarray | None = None,
    stream: SlotStream | None = None,
) -> dict:
    """Replay the flows in ``flow_mask`` slot by slot, in batched event rounds.

    Drop-in for :func:`~repro.dataplane.vectorized._replay_scalar` on a
    SpliDT program (same leading arguments, same effect on the program).
    ``slots`` are the flows' register slots when the caller already holds
    them, ``stream`` a prebuilt (cached) :func:`build_slot_stream` result.

    Returns the call's accounting: ``flows`` / ``packets`` advanced by the
    plane, ``rounds``, ``per_packet`` — ``reason -> {flows, packets}`` for
    what went through ``process_packet`` instead (``live_state``) —,
    ``deferred`` — what the next reader of slot state will settle: ``slots``
    handed over, of which ``open_windows`` hold ``packets`` still to be fed
    to their operators — and ``open_slots``, the slots left with an
    undecided resident.
    """
    table_size = program.indexer.table_size
    if stream is None:
        if slots is None:
            slots = vz.cached_flow_slots(soa, table_size)
        stream = build_slot_stream(soa, slots, flow_mask, prefix_counts)
    stats = {
        "flows": stream.n_flows,
        "packets": stream.n_packets,
        "rounds": 0,
        "per_packet": {},
        "deferred": {"slots": 0, "open_windows": 0, "packets": 0},
        "open_slots": _EMPTY,
    }
    if stream.n_packets == 0:
        return stats

    order, flow, row_slots = stream.order, stream.flow, stream.slots
    timestamps = soa.timestamps[order]
    tuple_of = vz.cached_tuple_ids(soa, table_size)
    rows = _SlotRows(stream, program.model.root_sid)
    _resume_held_slots(program, flows, stream, tuple_of, rows)
    if rows.fallback.any():
        positions = np.concatenate(
            [np.arange(stream.starts[r], stream.starts[r + 1])
             for r in np.flatnonzero(rows.fallback)]
        )
        vz._replay_positions(program, flows, soa, order[positions])
        fell_back = {"flows": int(np.unique(flow[positions]).size), "packets": int(positions.size)}
        stats["per_packet"]["live_state"] = fell_back
        stats["flows"] -= fell_back["flows"]
        stats["packets"] -= fell_back["packets"]

    # bounds[w * stride + n]: packets seen at which a header of flow size n
    # closes window w; sized by the stream's largest flow, not by the source.
    n_partitions = program.model.config.n_partitions
    header_size = soa.n_packets_per_flow[flow]
    sizes = np.arange(int(header_size.max()) + 1)
    stride = sizes.size
    base, remainder = sizes // n_partitions, sizes % n_partitions
    bounds = np.concatenate(
        [(w + 1) * base + np.minimum(w + 1, remainder) for w in range(n_partitions)]
    )
    evicting = (
        _eviction_mask(program.eviction, timestamps, stream.starts)
        if program.eviction is not None
        else None
    )
    cursor, end, status, resident = rows.cursor, rows.end, rows.status, rows.resident

    def admit(members: np.ndarray, positions: np.ndarray) -> None:
        """Start a new epoch on rows ``members`` with the packets at ``positions``."""
        status[members] = _LIVE
        resident[members] = tuple_of[flow[positions]]
        rows.epoch[members] = positions
        cursor[members] = positions
        rows.sid[members] = program.model.root_sid
        rows.window[members] = 0
        rows.seen[members] = 0
        program.begin_flows(row_slots[members])

    staging: list = []
    # A live row stays at the start of its open window once its run holds no
    # further event, so the rows still to advance are tracked explicitly.
    active = np.flatnonzero(~rows.fallback)
    while active.size:
        stats["rounds"] += 1

        # -- reclaim after a verdict / first admission ---------------------
        idle = active[status[active] != _LIVE]
        if idle.size:
            at = cursor[idle]
            after_verdict = np.flatnonzero(status[idle] == _DECIDED)
            if after_verdict.size:
                members = idle[after_verdict]
                owner = resident[members]
                at[after_verdict] = _first_hit(
                    cursor[members], end[members], lambda r, p: tuple_of[flow[p]] != owner[r]
                )
            admitted = at < end[idle]
            admit(idle[admitted], at[admitted])
            cursor[idle[~admitted]] = end[idle[~admitted]]
            active = active[cursor[active] < end[active]]
            if active.size == 0:
                break

        # -- next window boundary, and an eviction at or before it ---------
        lo, hi = cursor[active], end[active]
        # The packet at p closes the window iff seen + (p - lo + 1) >= bound(p).
        quota = rows.seen[active] - lo + 1
        bound_row = rows.window[active] * stride
        boundary = _first_hit(
            lo, hi, lambda r, p: bounds[bound_row[r] + header_size[p]] - p <= quota[r]
        )
        evicted = np.zeros(active.size, dtype=bool)
        if evicting is not None:
            owner = resident[active]
            limit = np.minimum(boundary + 1, hi)
            eviction = _first_hit(
                lo, limit, lambda r, p: evicting[p] & (tuple_of[flow[p]] != owner[r])
            )
            evicted = eviction < limit
            if evicted.any():
                members = active[evicted]
                program.record_evictions(soa.flow_ids[flow[rows.epoch[members]]].tolist())
                admit(members, eviction[evicted])
        closing = ~evicted & (boundary < hi)
        if closing.any():
            members = active[closing]
            last = boundary[closing]
            rows.seen[members] += last + 1 - cursor[members]
            advance, values = _close_windows(
                program, soa, stream, timestamps, rows, members, last, staging
            )
            cursor[members] = last + 1
            advancing = members[advance]
            rows.sid[advancing] = values[advance]
            rows.window[advancing] += 1
            status[members[~advance]] = _DECIDED
        # Rows that found no event keep their window open to the end of the
        # run; so does a row whose run ended with the window it just closed.
        active = active[evicted | closing]
        active = active[cursor[active] < end[active]]
    program.finalise_staged(staging)

    still_open = status == _LIVE
    # Read before anything is deferred: looking at a resident settles.
    for row in np.flatnonzero(rows.fallback).tolist():
        still_open[row] = not program.resident(int(row_slots[row])).decided
    stats["open_slots"] = row_slots[still_open]
    record = _handover(soa, stream, timestamps, rows)
    if record.slots.size:
        program.hand_over(record)
        stats["deferred"] = {
            "slots": int(record.slots.size),
            "open_windows": int(np.count_nonzero(np.diff(record.undecided.starts))),
            "packets": int(record.undecided.starts[-1]),
        }
    return stats


def _resume_held_slots(program, flows, stream: SlotStream, tuple_of, rows: _SlotRows) -> None:
    """Start rows whose slot already holds state from where that state is.

    A decided resident is just a starting status (its tuple id is looked up
    among the run's flows; a tuple none of them carries can only be
    reclaimed).  A live undecided one carries operator state only
    ``process_packet`` can continue, so its whole run falls back to it.
    """
    held = program.occupied_slots()
    if held.size == 0:
        return
    for row in np.flatnonzero(np.isin(stream.slots, held)).tolist():
        state = program.resident(int(stream.slots[row]))
        if not state.decided:
            rows.fallback[row] = True
            continue
        rows.status[row] = _DECIDED
        run_flows = np.unique(stream.flow[stream.starts[row]:stream.starts[row + 1]])
        for flow_index in run_flows.tolist():
            if flows[flow_index].five_tuple == state.five_tuple:
                rows.resident[row] = tuple_of[flow_index]
                break


def _handover(soa: PacketArrays, stream: SlotStream, timestamps, rows: _SlotRows) -> SlotHandover:
    """Every slot's final resident, as the record the program settles on first read.

    One row per slot this replay admitted a flow to.  An undecided resident is
    recorded as it was at the start of its open window, with the window's
    packets gathered next to it.
    """
    handed = np.flatnonzero(rows.epoch >= 0)
    first = rows.epoch[handed]
    live = np.flatnonzero(rows.status[handed] == _LIVE)
    live_rows = handed[live]
    cursor = rows.cursor[live_rows]
    lengths = rows.end[live_rows] - cursor
    window, _ = vz._segment_positions(cursor, lengths)
    packets = stream.order[window]
    return SlotHandover.of_flows(
        soa,
        stream.flow[first],
        stream.slots[handed],
        timestamps[first],
        undecided=OpenWindows(
            rows=live,
            sids=rows.sid[live_rows],
            windows=rows.window[live_rows],
            seen=rows.seen[live_rows],
            last_ts=timestamps[np.maximum(cursor - 1, first[live])],
            first_sizes=soa.sizes[stream.order[first[live]]],
            starts=np.append(0, np.cumsum(lengths)),
            packets=tuple(
                column[packets]
                for column in (soa.timestamps, soa.sizes, soa.flags, soa.directions, soa.payloads)
            ),
        ),
    )


def _close_windows(
    program,
    soa: PacketArrays,
    stream: SlotStream,
    timestamps: np.ndarray,
    rows: _SlotRows,
    members: np.ndarray,
    last: np.ndarray,
    staging: list,
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate and classify the windows rows ``members`` close at packets ``last``.

    Each window runs from its row's cursor to ``last`` (stream positions,
    inclusive); ``rows.seen`` already counts it.  A slot's packets interleave
    flows, so the windows' packets are gathered into one contiguous
    round-local view for the aggregator.
    """
    order, flow = stream.order, stream.flow
    first, epoch, sids = rows.cursor[members], rows.epoch[members], rows.sid[members]
    lengths = last + 1 - first
    seg_start = np.cumsum(lengths) - lengths
    seg_end = seg_start + lengths
    owner = np.repeat(np.arange(members.size), lengths)
    packets = order[np.arange(owner.size) + (first - seg_start)[owner]]
    aggregator = vz._WindowAggregator(_packet_view(soa, packets))

    # Header fields are the epoch creator's: its tuple, its first packet's size.
    matrix = np.zeros((members.size, N_FEATURES), dtype=np.float64)
    creators = flow[epoch]
    matrix[:, _SRC_PORT] = soa.src_ports[creators]
    matrix[:, _DST_PORT] = soa.dst_ports[creators]
    matrix[:, _PROTOCOL] = soa.protocols[creators]
    matrix[:, _PKT_LEN_FIRST] = soa.sizes[order[epoch]]
    groups = list(group_by_sid(sids))
    for group_sid, group_rows in groups:
        features = program.subtree_stateful_features(group_sid)
        if features:
            aggregator.fill(
                matrix, group_rows, features, seg_start[group_rows], seg_end[group_rows]
            )

    return program.step_windows(
        flow_ids=soa.flow_ids[flow[last]],
        sids=sids,
        window_index=rows.window[members],
        feature_matrix=matrix,
        boundary_ts=timestamps[last],
        first_packet_ts=timestamps[epoch],
        groups=groups,
        staging=staging,
    )
