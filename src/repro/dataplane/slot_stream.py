"""Slot-stream window plane: contended register slots in batched event rounds.

The flow-lockstep plane of :mod:`repro.dataplane.vectorized` advances *flows*
in window rounds, which is only sound while every flow has its register slot
to itself.  Under table pressure most slots are shared: packets of several
flows interleave in one slot, corrupt the resident's windows, get it evicted,
reclaim the slot after a verdict.  All of that is still sequential *per slot*
and independent *across* slots, so this plane takes the slot as its unit:

1. The contended packets are ordered once by ``(slot, timestamp, flow_id)``
   (:func:`build_slot_stream`) — each slot's packets form one contiguous run,
   in exactly the order the per-packet oracle meets them.
2. Every slot is a row of a few state arrays (resident five-tuple id, the
   resident's creator columns, subtree id, window index, packets seen, a
   cursor into its run).  All rows advance together in *event rounds*; in
   one round each live row handles its next event, read from *next-event
   columns* — per stream position, where the next event of a kind can be
   in its run:

   * **reclaim** — after a verdict the first packet of a *different*
     five-tuple starts a new epoch (same-tuple packets are forwarded
     without inference): the packet at the cursor, or the next five-tuple
     change after it;
   * **eviction** — the first packet of a different five-tuple, up to the
     boundary packet, for which the program's policy evicts given the
     previous packet's timestamp (an undecided resident was last seen at the
     slot's previous packet, so the policy input is a per-packet column):
     the next evicting packet, or, if it carries the resident's tuple, the
     next evicting packet of another tuple after it;
   * **window boundary** — the first packet at which the packets seen reach
     the window boundary derived from the *incoming* packet's flow-size
     header (a colliding flow's header can close the resident's window).
     It is read per stretch of one advertised size, up to the next size
     change: inside a stretch the boundary is fixed, so its first closing
     packet is arithmetic.  The few rows still open after
     ``_BOUNDARY_STRETCHES`` stretches are scanned packet by packet
     (:func:`_first_hit`).

   The five-tuple and size-change columns depend on the stream only and are
   built once per stream; the eviction columns depend on the policy and on
   the held residents' last-seen timestamps and are built per call.

3. The windows closed in a round are gathered into one round-local packet
   view, then aggregated and classified by the step the flow-lockstep plane
   closes its windows with (:func:`~repro.dataplane.vectorized._close_round`),
   one window index per row.  Verdicts are credited as the per-packet oracle
   credits them: to the deciding packet's flow id, with the epoch's first
   timestamp and the epoch creator's header fields; rounds are finalised in
   order, so a flow id decided twice keeps its later verdict.

A call carries on from the slot state the program holds, read as columns
(:meth:`~repro.dataplane.splidt_program.SpliDTDataPlane.held_state`): a held
resident is its slot's starting row, and an undecided one's open-window
packets are the head of that slot's run.  What a call leaves in its slots is
recorded the same way: every slot's final resident goes to the program as
one row of a :class:`~repro.dataplane.splidt_program.SlotHandover` — an
undecided one with its registers at the start of its open window and that
window's packets — which the next call, batched or per packet, resumes from.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.dataplane import vectorized as vz
from repro.dataplane.splidt_program import OpenWindows, SlotHandover
from repro.datasets.flows import FiveTuple, Flow, PacketArrays
from repro.features.definitions import N_FEATURES, STATELESS_HEADER_INDICES
from repro.features.window import window_end

_SRC_PORT, _DST_PORT, _PROTOCOL, _PKT_LEN_FIRST = STATELESS_HEADER_INDICES

#: The per-packet columns, in :class:`~repro.datasets.flows.Packet` field order.
_PACKET_FIELDS = ("timestamps", "sizes", "flags", "directions", "payloads")

#: Row status: no resident yet, an undecided resident, a decided resident.
_FRESH, _LIVE, _DECIDED = 0, 1, 2

#: Tuple id of a resident whose five-tuple no flow of the run carries: every
#: packet differs from it (it can be reclaimed from or evicted, never rejoined).
_FOREIGN_TUPLE = -2

#: Stretches of one advertised flow size a window-boundary search reads per
#: row before it hands the row to :func:`_first_hit`.
_BOUNDARY_STRETCHES = 2

#: Packets examined per row in the first pass of a scan; doubles per pass.
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
    #: ``(next_tuple, next_size)`` under the packets' own flow sizes
    #: (:func:`_next_change`), kept by the first replay that builds them.
    events: tuple[np.ndarray, np.ndarray] | None = None

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


def _next_marked(marked: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per position ``p``, the first ``q > p`` in ``p``'s run with ``marked[q]``, else the run's end.

    Runs are ``starts[r]:starts[r + 1]``, with ``starts[0] == 0``.
    """
    n = marked.size
    marks = marked.copy()
    marks[starts[starts < n]] = True  # a run's end is the next run's head
    heads = np.append(np.flatnonzero(marks), n)
    # Half the bytes wherever positions fit: these columns span the stream.
    dtype = np.int32 if n < 2**31 else np.int64
    return np.repeat(heads[1:].astype(dtype), np.diff(heads))


def _next_change(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per position ``p``, the first ``q > p`` in ``p``'s run with ``values[q] != values[p]``, else the run's end."""
    change = np.zeros(values.size, dtype=bool)
    change[1:] = values[1:] != values[:-1]
    return _next_marked(change, starts)


def _first_other_tuple(
    tuples: np.ndarray, next_tuple: np.ndarray, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray
) -> np.ndarray:
    """Per row, the first position in ``[lo, hi)`` whose five-tuple id is not ``owner``, else ``hi``.

    The packet at ``lo``, or the next five-tuple change after it
    (``next_tuple``, :func:`_next_change` of ``tuples``).
    """
    found = hi.copy()
    rows = np.flatnonzero(lo < hi)
    at = lo[rows]
    same = tuples[at] == owner[rows]
    at[same] = next_tuple[at[same]]
    found[rows] = np.minimum(at, hi[rows])
    return found


class _Evictions:
    """Next-event columns of one call's eviction mask.

    ``next_evicting[p]`` is the first evicting position at or after ``p`` in
    its run, else the run's end; ``next_other[i]`` the first evicting
    position after ``evicting_at[i]`` in its run whose five-tuple differs
    from ``evicting_at[i]``'s, else a position at or past the run's end.
    """

    def __init__(self, evicting: np.ndarray, tuples: np.ndarray, starts: np.ndarray) -> None:
        self.evicting_at = np.flatnonzero(evicting)
        self.next_evicting = _next_marked(evicting, starts)
        self.next_evicting[self.evicting_at] = self.evicting_at
        # The five-tuple change over the evicting positions alone, with runs
        # cut where the stream's runs are.
        following = _next_change(
            tuples[self.evicting_at], np.searchsorted(self.evicting_at, starts)
        )
        self.next_other = np.append(self.evicting_at, evicting.size)[following]

    def first(
        self, tuples: np.ndarray, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray
    ) -> np.ndarray:
        """Per row, the first evicting position in ``[lo, hi)`` whose five-tuple id is not ``owner``, else ``hi``."""
        found = hi.copy()
        rows = np.flatnonzero(lo < hi)
        at = self.next_evicting[lo[rows]]
        own = at < hi[rows]
        own[own] = tuples[at[own]] == owner[rows[own]]
        at[own] = self.next_other[np.searchsorted(self.evicting_at, at[own])]
        found[rows] = np.minimum(at, hi[rows])
        return found


def _first_boundary(
    lo: np.ndarray,
    hi: np.ndarray,
    quota: np.ndarray,
    window: np.ndarray,
    header_size: np.ndarray,
    next_size: np.ndarray,
    n_partitions: int,
) -> tuple[np.ndarray, int]:
    """Per row, the first ``p`` in ``[lo, hi)`` with ``bound(window, header_size[p]) - p <= quota``, else ``hi``.

    That is the packet at which the packets seen reach the end of window
    ``window`` under the flow size ``p``'s header advertises.  It is read per
    stretch of one advertised size (up to ``next_size``, :func:`_next_change`
    of ``header_size``): inside one the bound is fixed and ``bound - p``
    drops by one per packet, so the stretch's first closing packet is
    ``max(start, bound - quota)`` if that lies inside it.  Rows still open
    after ``_BOUNDARY_STRETCHES`` stretches are scanned with
    :func:`_first_hit`.  Returns the positions and how many rows were scanned.
    """
    found = hi.copy()
    rows = np.flatnonzero(lo < hi)
    at = lo[rows]
    for _ in range(_BOUNDARY_STRETCHES):
        if rows.size == 0:
            break
        stop = np.minimum(next_size[at], hi[rows])
        first = np.maximum(
            at, window_end(window[rows], header_size[at], n_partitions) - quota[rows]
        )
        closes = first < stop
        found[rows[closes]] = first[closes]
        still_open = ~closes & (stop < hi[rows])
        rows, at = rows[still_open], stop[still_open]
    if rows.size:
        row_window, row_quota = window[rows], quota[rows]
        found[rows] = _first_hit(
            at,
            hi[rows],
            lambda r, p: window_end(row_window[r], header_size[p], n_partitions) - p
            <= row_quota[r],
        )
    return found, int(rows.size)


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
) -> None:
    """Replay the flows in ``flow_mask`` slot by slot, in batched event rounds.

    Drop-in for :func:`~repro.dataplane.vectorized._replay_scalar` on a
    SpliDT program (same leading arguments, same effect on the program).
    ``slots`` are the flows' register slots when the caller already holds
    them, ``stream`` a prebuilt (cached) :func:`build_slot_stream` result,
    ``sizes`` the flow size each flow's packets advertise in their headers
    (default: its packet count).

    Counts, in ``program.counters``, the ``dataplane.slot_stream.flows`` and
    ``.packets`` it replays, its ``.rounds``, and its window-boundary
    searches (rows, summed over rounds) resolved in the next-event columns
    (``.boundary_lookups``) or handed to a packet scan (``.boundary_scans``).
    """
    table_size = program.indexer.table_size
    if stream is None:
        if slots is None:
            slots = vz.cached_flow_slots(soa, table_size)
        stream = build_slot_stream(soa, slots, flow_mask, prefix_counts)
    counters = program.counters
    counters.add("dataplane.slot_stream.flows", stream.n_flows)
    counters.add("dataplane.slot_stream.packets", stream.n_packets)
    if stream.n_packets == 0:
        return

    tuple_of = vz.cached_tuple_ids(soa, table_size)
    stream, source, rows, last_seen = _resume_held_slots(program, soa, stream, tuple_of)
    order, flow, row_slots = stream.order, stream.flow, stream.slots
    timestamps = source.timestamps[order]

    # Held packets (flow -1) carry no five-tuple or flow size of the run: no
    # event is searched for there.
    n_partitions = program.model.config.n_partitions
    tuples = tuple_of[flow]
    header_size = (soa.n_packets_per_flow if sizes is None else sizes)[flow]
    if source is not soa:
        tuples[flow < 0] = -1
        header_size[flow < 0] = 0
    if sizes is None and stream.events is not None:
        next_tuple, next_size = stream.events
    else:
        next_tuple = _next_change(tuples, stream.starts)
        next_size = _next_change(header_size, stream.starts)
        if sizes is None:
            stream.events = next_tuple, next_size
    evictions = (
        _Evictions(
            _eviction_mask(program.eviction, timestamps, stream.starts, last_seen),
            tuples,
            stream.starts,
        )
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
        counters.add("dataplane.slot_stream.rounds")

        # -- reclaim after a verdict / first admission ---------------------
        idle = active[status[active] != _LIVE]
        if idle.size:
            at = cursor[idle]
            after_verdict = np.flatnonzero(status[idle] == _DECIDED)
            if after_verdict.size:
                members = idle[after_verdict]
                at[after_verdict] = _first_other_tuple(
                    tuples, next_tuple, cursor[members], end[members], resident[members]
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
        boundary, scanned = _first_boundary(
            scan, hi, rows.seen[active] - lo + 1, rows.window[active],
            header_size, next_size, n_partitions,
        )
        counters.add("dataplane.slot_stream.boundary_lookups", int(active.size) - scanned)
        counters.add("dataplane.slot_stream.boundary_scans", scanned)
        evicted = np.zeros(active.size, dtype=bool)
        if evictions is not None:
            limit = np.minimum(boundary + 1, hi)
            eviction = evictions.first(tuples, scan, limit, resident[active])
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
    program.hand_over(_handover(source, stream, timestamps, rows))


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
    return vz._close_round(
        program,
        aggregator,
        matrix,
        seg_start,
        seg_end,
        staging,
        sids=sids,
        flow_ids=soa.flow_ids[flow[last]],
        window_index=rows.window[members],
        boundary_ts=timestamps[last],
        first_packet_ts=rows.first_ts[members],
    )
