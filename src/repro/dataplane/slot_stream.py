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
   resident's creator columns, subtree id, window index, packets seen, a
   cursor into its run).  All rows advance together in *event rounds*; in
   one round each live row handles its next event, found with one
   vectorised "first position at or after the cursor where ..." primitive
   (:func:`_first_hit`) used three ways:

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

A call carries on from the slot state the program holds, read as columns
(:meth:`~repro.dataplane.splidt_program.SpliDTDataPlane.held_state`): a held
resident is its slot's starting row, and an undecided one's open-window
packets are the head of that slot's run.  What a call leaves in its slots is
recorded the same way: every slot's final resident goes to the program as
one row of a :class:`~repro.dataplane.splidt_program.SlotHandover` — an
undecided one with its registers at the start of its open window and that
window's packets — and becomes ``_FlowState`` objects only for a reader that
asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.core.range_marking import group_by_sid
from repro.dataplane import vectorized as vz
from repro.dataplane.splidt_program import OpenWindows, SlotHandover
from repro.datasets.flows import FiveTuple, Flow, PacketArrays
from repro.features.definitions import N_FEATURES, STATELESS_HEADER_INDICES

_SRC_PORT, _DST_PORT, _PROTOCOL, _PKT_LEN_FIRST = STATELESS_HEADER_INDICES

#: The per-packet columns, in :class:`~repro.datasets.flows.Packet` field order.
_PACKET_FIELDS = ("timestamps", "sizes", "flags", "directions", "payloads")

#: Row status: no resident yet, an undecided resident, a decided resident.
_FRESH, _LIVE, _DECIDED = 0, 1, 2

#: Tuple id of a resident whose five-tuple no flow of the run carries: every
#: packet differs from it (it can be reclaimed from or evicted, never rejoined).
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
    start_counts: np.ndarray | None = None,
) -> SlotStream:
    """Order the packets of the flows in ``flow_mask`` by ``(slot, arrival)``.

    Arrival order is the global ``(timestamp, flow_id)`` interleave; a stable
    sort by slot on top of it keeps it within every slot.  ``prefix_counts``
    restricts each flow to its first packets, as in
    :func:`~repro.dataplane.vectorized._replay_scalar`, and ``start_counts``
    skips the packets an earlier call already replayed (per flow, both
    optional): a serving engine replays each flow from where it stopped.
    """
    order = vz._arrival_order(soa, flow_mask, prefix_counts, start_counts)
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


def _eviction_mask(
    policy, timestamps: np.ndarray, starts: np.ndarray, last_seen: np.ndarray
) -> np.ndarray:
    """Whether each stream packet would evict an undecided resident of another tuple.

    An undecided resident was last seen at the slot's previous packet, so the
    policy is evaluated once per packet on ``(ts[j - 1], ts[j])`` — at a
    run's first packet on ``last_seen`` of its row instead: the undecided
    resident the slot held when the call started, NaN where it held none
    (the packet then meets no resident to evict).
    """
    heads = starts[:-1]
    held = np.flatnonzero(~np.isnan(last_seen))
    mask = np.zeros(timestamps.size, dtype=bool)
    mask[1:] = _should_evict(policy, timestamps[:-1], timestamps[1:])
    mask[heads] = False
    if held.size:
        mask[heads[held]] = _should_evict(policy, last_seen[held], timestamps[heads[held]])
    return mask


def _should_evict(policy, previous: np.ndarray, incoming: np.ndarray) -> np.ndarray:
    """``policy.should_evict`` over pairs of timestamp columns."""
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
    return verdicts


def _packet_source(columns: tuple[np.ndarray, ...]) -> PacketArrays:
    """Per-packet columns (in ``_PACKET_FIELDS`` order) as a stand-alone packet source."""
    timestamps, sizes, flags, directions, payloads = columns
    return PacketArrays(
        timestamps=timestamps,
        sizes=sizes,
        flags=flags,
        directions=directions,
        payloads=payloads,
        packet_flow=_EMPTY,
        flow_starts=np.array([0, timestamps.size], dtype=np.intp),
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


def _packet_view(source: PacketArrays, packets: np.ndarray) -> PacketArrays:
    """The per-packet columns of ``packets`` as a stand-alone source for the aggregator."""
    view = _packet_source(tuple(getattr(source, name)[packets] for name in _PACKET_FIELDS))
    # Integer-valuedness is decided once, on the source's column.
    for name in ("sizes", "payloads"):
        view.derived["whole", name] = vz.whole_valued(source, name)
    return view


class _SlotRows:
    """Per-row (per-slot) register state of one slot-stream replay.

    The resident is described by its creator columns — flow id, first
    timestamp, five-tuple and first packet size of the epoch — whether this
    call admitted it or the slot held it when the call started: a resumed
    row is an admitted row whose epoch began in an earlier call.
    """

    def __init__(self, stream: SlotStream, root_sid: int) -> None:
        n_rows = stream.slots.size
        #: Next packet to look at — for a live row, the start of its open window.
        self.cursor = stream.starts[:-1].copy()
        self.end = stream.starts[1:]
        #: First position an event can fire at: a resumed row's run starts
        #: with the packets its open window already holds.
        self.scan_from = self.cursor.copy()
        self.status = np.full(n_rows, _FRESH, dtype=np.int8)
        #: Five-tuple id of the resident (meaningful unless ``_FRESH``).
        self.resident = np.full(n_rows, _FOREIGN_TUPLE, dtype=np.int64)
        self.sid = np.full(n_rows, root_sid, dtype=np.int64)
        self.window = np.zeros(n_rows, dtype=np.int64)
        #: Packets the resident had seen at ``cursor``.
        self.seen = np.zeros(n_rows, dtype=np.int64)
        self.flow_id = np.zeros(n_rows, dtype=np.int64)
        self.first_ts = np.zeros(n_rows, dtype=np.float64)
        #: The resident's five-tuple columns, in :class:`FiveTuple` field order.
        self.identity = tuple(np.zeros(n_rows, dtype=np.int64) for _ in fields(FiveTuple))
        self.first_size = np.zeros(n_rows, dtype=np.float64)


def replay_slot_stream(
    program,
    flows: list[Flow],
    soa: PacketArrays,
    flow_mask: np.ndarray,
    prefix_counts: np.ndarray | None = None,
    *,
    slots: np.ndarray | None = None,
    stream: SlotStream | None = None,
    sizes: np.ndarray | None = None,
) -> dict:
    """Replay the flows in ``flow_mask`` slot by slot, in batched event rounds.

    Drop-in for :func:`~repro.dataplane.vectorized._replay_scalar` on a
    SpliDT program (same leading arguments, same effect on the program).
    ``slots`` are the flows' register slots when the caller already holds
    them, ``stream`` a prebuilt (cached) :func:`build_slot_stream` result,
    ``sizes`` the flow size each flow's packets advertise in their headers
    (default: its packet count).

    Returns the call's accounting: ``flows`` / ``packets`` advanced by the
    plane, ``rounds``, ``deferred`` — what the next reader of slot state
    will find: ``slots`` handed over, of which ``open_windows`` hold
    ``packets`` still to be fed to their operators — and ``open_slots``, the
    slots left with an undecided resident.
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
        "deferred": {"slots": 0, "open_windows": 0, "packets": 0},
        "open_slots": _EMPTY,
    }
    if stream.n_packets == 0:
        return stats

    tuple_of = vz.cached_tuple_ids(soa, table_size)
    stream, source, rows, last_seen = _resume_held_slots(program, soa, stream, tuple_of)
    order, flow, row_slots = stream.order, stream.flow, stream.slots
    timestamps = source.timestamps[order]

    # bounds[w * stride + n]: packets seen at which a header of flow size n
    # closes window w; sized by the stream's largest flow, not by the source.
    n_partitions = program.model.config.n_partitions
    header_size = (soa.n_packets_per_flow if sizes is None else sizes)[flow]
    if source is not soa:
        header_size[flow < 0] = 0  # held packets: no event is searched for there
    advertised = np.arange(int(header_size.max()) + 1)
    stride = advertised.size
    base, remainder = advertised // n_partitions, advertised % n_partitions
    bounds = np.concatenate(
        [(w + 1) * base + np.minimum(w + 1, remainder) for w in range(n_partitions)]
    )
    evicting = (
        _eviction_mask(program.eviction, timestamps, stream.starts, last_seen)
        if program.eviction is not None
        else None
    )
    cursor, end, status, resident = rows.cursor, rows.end, rows.status, rows.resident

    def admit(members: np.ndarray, positions: np.ndarray) -> None:
        """Start a new epoch on rows ``members`` with the packets at ``positions``."""
        creators = flow[positions]
        status[members] = _LIVE
        resident[members] = tuple_of[creators]
        cursor[members] = positions
        rows.sid[members] = program.model.root_sid
        rows.window[members] = 0
        rows.seen[members] = 0
        rows.flow_id[members] = soa.flow_ids[creators]
        rows.first_ts[members] = timestamps[positions]
        for column, values in zip(rows.identity, soa.identity_columns()):
            column[members] = values[creators]
        rows.first_size[members] = source.sizes[order[positions]]
        program.begin_flows(row_slots[members])

    staging: list = []
    # A live row stays at the start of its open window once its run holds no
    # further event, so the rows still to advance are tracked explicitly.
    active = np.arange(row_slots.size)
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
        scan = np.maximum(lo, rows.scan_from[active])
        # The packet at p closes the window iff seen + (p - lo + 1) >= bound(p).
        quota = rows.seen[active] - lo + 1
        bound_row = rows.window[active] * stride
        boundary = _first_hit(
            scan, hi, lambda r, p: bounds[bound_row[r] + header_size[p]] - p <= quota[r]
        )
        evicted = np.zeros(active.size, dtype=bool)
        if evicting is not None:
            owner = resident[active]
            limit = np.minimum(boundary + 1, hi)
            eviction = _first_hit(
                scan, limit, lambda r, p: evicting[p] & (tuple_of[flow[p]] != owner[r])
            )
            evicted = eviction < limit
            if evicted.any():
                members = active[evicted]
                program.record_evictions(rows.flow_id[members].tolist())
                admit(members, eviction[evicted])
        closing = ~evicted & (boundary < hi)
        if closing.any():
            members = active[closing]
            last = boundary[closing]
            rows.seen[members] += last + 1 - cursor[members]
            advance, values = _close_windows(
                program, soa, source, stream, timestamps, rows, members, last, staging
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

    stats["open_slots"] = row_slots[status == _LIVE]
    record = _handover(source, stream, timestamps, rows)
    program.hand_over(record)
    stats["deferred"] = {
        "slots": int(record.slots.size),
        "open_windows": int(np.count_nonzero(np.diff(record.undecided.starts))),
        "packets": int(record.undecided.starts[-1]),
    }
    return stats


def _resume_held_slots(program, soa: PacketArrays, stream: SlotStream, tuple_of):
    """The rows of ``stream``, started from the slot state the program holds.

    A slot holding a resident when the call starts
    (:meth:`~repro.dataplane.splidt_program.SpliDTDataPlane.held_state`)
    starts its row from it.  A decided resident is a starting status and a
    five-tuple, matched to the run's flows by identity columns.  An
    undecided one is a live row at the start of its open window, and the
    window's packets become the head of the slot's run: aggregated into the
    first window the row closes, carried into its hand-over if it closes
    none, and never searched for an event — none fires inside an open window.

    Returns ``(stream, source, rows, last_seen)``: the stream and the packet
    source it indexes (new ones only when held packets were put in), the
    rows, and each row's undecided resident's last-seen timestamp (NaN
    where the slot held none).
    """
    root_sid = program.model.root_sid
    last_seen = np.full(stream.slots.size, np.nan)
    held = program.held_state()
    found = _EMPTY
    if held is not None:
        at = np.minimum(np.searchsorted(held.slots, stream.slots), held.slots.size - 1)
        found = np.flatnonzero(held.slots[at] == stream.slots)
    if found.size == 0:
        return stream, soa, _SlotRows(stream, root_sid), last_seen
    of = at[found]
    residents = _held_tuple_ids(soa, stream, tuple_of, found, [c[of] for c in held.identity])
    windows = held.undecided
    entry = np.full(held.slots.size, -1, dtype=np.intp)
    if windows is not None:
        entry[windows.rows] = np.arange(windows.rows.size)
    live = entry[of] >= 0
    members, chosen = found[live], entry[of[live]]
    held_packets = np.diff(windows.starts)[chosen] if members.size else _EMPTY
    source = soa
    if held_packets.any():
        stream, source = _with_open_windows(soa, stream, members, windows, chosen, held_packets)

    rows = _SlotRows(stream, root_sid)
    rows.status[found] = _DECIDED
    rows.resident[found] = residents
    rows.flow_id[found] = held.flow_ids[of]
    rows.first_ts[found] = held.first_ts[of]
    for column, values in zip(rows.identity, held.identity):
        column[found] = values[of]
    if members.size:
        rows.status[members] = _LIVE
        rows.sid[members] = windows.sids[chosen]
        rows.window[members] = windows.windows[chosen]
        rows.seen[members] = windows.seen[chosen]
        rows.first_size[members] = windows.first_sizes[chosen]
        rows.scan_from[members] += held_packets
        last_seen[members] = windows.last_ts[chosen]
    return stream, source, rows, last_seen


def _held_tuple_ids(
    soa: PacketArrays, stream: SlotStream, tuple_of, found: np.ndarray, identity: list
) -> np.ndarray:
    """Tuple id, among the flows of run ``found[i]``, of the five-tuple in ``identity`` row ``i``.

    ``_FOREIGN_TUPLE`` where none of the run's flows carries it.
    """
    lengths = stream.starts[found + 1] - stream.starts[found]
    positions, _ = vz._segment_positions(stream.starts[found], lengths)
    owner = np.repeat(np.arange(found.size), lengths)
    carried = stream.flow[positions]
    same = np.ones(positions.size, dtype=bool)
    for column, held in zip(soa.identity_columns(), identity):
        same &= column[carried] == held[owner]
    ids = np.full(found.size, _FOREIGN_TUPLE, dtype=np.int64)
    ids[owner[same]] = tuple_of[carried[same]]
    return ids


def _with_open_windows(
    soa: PacketArrays,
    stream: SlotStream,
    members: np.ndarray,
    windows: OpenWindows,
    chosen: np.ndarray,
    lengths: np.ndarray,
) -> tuple[SlotStream, PacketArrays]:
    """``stream`` with open window ``chosen[i]`` (``lengths[i]`` packets) heading row ``members[i]``.

    The new stream indexes a packet source of its own: the stream's packets
    gathered in stream order, the held ones in place (``order`` is the
    identity, and ``flow`` is -1 at a held packet).
    """
    held = np.zeros(stream.slots.size, dtype=np.intp)
    held[members] = lengths
    starts = stream.starts + np.append(0, np.cumsum(held))
    at, _ = vz._segment_positions(starts[members], lengths)
    taken, _ = vz._segment_positions(windows.starts[chosen], lengths)
    arriving = np.ones(int(starts[-1]), dtype=bool)
    arriving[at] = False
    columns = []
    for name, packets in zip(_PACKET_FIELDS, windows.packets):
        values = getattr(soa, name)
        column = np.empty(arriving.size, dtype=np.result_type(values, packets))
        column[arriving] = values[stream.order]
        column[at] = packets[taken]
        columns.append(column)
    flow = np.full(arriving.size, -1, dtype=np.intp)
    flow[arriving] = stream.flow
    resumed = SlotStream(
        order=np.arange(arriving.size),
        flow=flow,
        starts=starts,
        slots=stream.slots,
        n_flows=stream.n_flows,
    )
    return resumed, _packet_source(tuple(columns))


def _handover(
    source: PacketArrays, stream: SlotStream, timestamps: np.ndarray, rows: _SlotRows
) -> SlotHandover:
    """Every slot's final resident, as the record the program keeps for the next reader.

    An undecided resident is recorded as it was at the start of its open
    window, with the window's packets gathered next to it.
    """
    live = np.flatnonzero(rows.status == _LIVE)
    cursor, end = rows.cursor[live], rows.end[live]
    lengths = end - cursor
    window, _ = vz._segment_positions(cursor, lengths)
    packets = stream.order[window]
    return SlotHandover(
        slots=stream.slots.copy(),
        identity=rows.identity,
        flow_ids=rows.flow_id,
        first_ts=rows.first_ts,
        undecided=OpenWindows(
            rows=live,
            sids=rows.sid[live],
            windows=rows.window[live],
            seen=rows.seen[live],
            last_ts=timestamps[end - 1],
            first_sizes=rows.first_size[live],
            starts=np.append(0, np.cumsum(lengths)),
            packets=tuple(getattr(source, name)[packets] for name in _PACKET_FIELDS),
        ),
    )


def _close_windows(
    program,
    soa: PacketArrays,
    source: PacketArrays,
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
    flows, so the windows' packets are gathered from ``source`` into one
    contiguous round-local view for the aggregator.
    """
    order, flow = stream.order, stream.flow
    first, sids = rows.cursor[members], rows.sid[members]
    lengths = last + 1 - first
    seg_start = np.cumsum(lengths) - lengths
    seg_end = seg_start + lengths
    owner = np.repeat(np.arange(members.size), lengths)
    packets = order[np.arange(owner.size) + (first - seg_start)[owner]]
    aggregator = vz._WindowAggregator(_packet_view(source, packets))

    # Header fields are the epoch creator's: its tuple, its first packet's size.
    matrix = np.zeros((members.size, N_FEATURES), dtype=np.float64)
    _, _, src_ports, dst_ports, protocols = rows.identity
    matrix[:, _SRC_PORT] = src_ports[members]
    matrix[:, _DST_PORT] = dst_ports[members]
    matrix[:, _PROTOCOL] = protocols[members]
    matrix[:, _PKT_LEN_FIRST] = rows.first_size[members]
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
        first_packet_ts=rows.first_ts[members],
        groups=groups,
        staging=staging,
    )
