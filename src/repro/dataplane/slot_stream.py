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
2. Every slot is a row of state (:class:`_SlotRows`: resident five-tuple
   id, where its epoch began, subtree id, window index, packets seen, where
   its open window starts) — or several rows, when its run is a sequence
   of flows that follow one another, each alone while it lasts (the solo
   cuts, :func:`_solo_cuts`): such flows replay side by side, as the
   lockstep plane would take them.  All rows advance together in *event
   rounds*; in one round each live row handles its next event, read from
   *next-event columns* — per stream position, where the next event of a
   kind can be in its run:

   * **reclaim** — after a verdict the first packet of a *different*
     five-tuple starts a new epoch (same-tuple packets are forwarded
     without inference): the packet after the deciding one, or the next
     five-tuple change after it — found in the round of the verdict, so
     the next round starts the new epoch's window;
   * **eviction** — the first packet of a different five-tuple, up to the
     boundary packet, for which the program's policy evicts given the
     previous packet's timestamp (an undecided resident was last seen at the
     slot's previous packet, so the policy input is a per-packet column):
     the next evicting packet, or, if it carries the resident's tuple, the
     next evicting packet of another tuple after it;
   * **window boundary** — the first packet at which the packets seen reach
     the window boundary derived from the *incoming* packet's flow-size
     header (a colliding flow's header can close the resident's window).
     It is read first in the stretch of one advertised size at the row's
     position, up to the next size change: inside a stretch the boundary is
     fixed, so its first closing packet is arithmetic (all a row whose range
     advertises one size needs).  A row still open past that stretch is
     answered by the stream's size-class index
     (:class:`_SizeClasses`): within one advertised size the close test is
     monotone in the position, so each size class of the row's run needs
     one ``searchsorted`` and the boundary is the earliest over its classes.

   What these columns read of the stream alone — the five-tuple ids and
   advertised sizes of its packets, their next changes, the size-class
   index, the solo cuts, and each eviction policy's columns while no slot
   is held — is built once per stream (:class:`StreamEvents`, kept with a
   cached stream); a call that resumes held residents builds its eviction
   columns itself, since they depend on the residents' last-seen
   timestamps.

3. A window a round closes runs from its row's window start to the boundary
   packet: one contiguous range of its slot's run.  The stream's packet
   columns are gathered once, in stream order (:class:`StreamSource`, kept
   with a cached stream), so each window is aggregated as that range of
   stream positions, with prefix columns memoised on the source, and
   classified by the step the flow-lockstep plane closes its windows with
   (:func:`~repro.dataplane.vectorized._close_round`: one fill, each kernel
   family once, and one model-table lookup, whatever subtrees the rows are
   in), one window index
   per row.  Verdicts are credited as the per-packet oracle
   credits them: to the deciding packet's flow id, with the epoch's first
   timestamp and the epoch creator's header fields; rounds are finalised in
   order and no flow has packets in two rows, so a flow id decided twice
   keeps its later verdict.

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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.dataplane import vectorized as vz
from repro.dataplane.splidt_program import OpenWindows, SlotHandover
from repro.datasets.flows import Flow, PacketArrays
from repro.features.definitions import N_FEATURES, STATELESS_HEADER_INDICES
from repro.features.window import window_end

_SRC_PORT, _DST_PORT, _PROTOCOL, _PKT_LEN_FIRST = STATELESS_HEADER_INDICES

#: The epoch creator's column each header (stateless) feature reads (:meth:`_SlotRows.creator`).
_HEADER_COLUMNS = {
    _SRC_PORT: "src_ports", _DST_PORT: "dst_ports", _PROTOCOL: "protocols",
    _PKT_LEN_FIRST: "first_size",
}

#: The per-flow five-tuple columns of the packet arrays, in :class:`FiveTuple` field order.
_IDENTITY_COLUMNS = ("src_ips", "dst_ips", "src_ports", "dst_ports", "protocols")

#: The per-packet columns, in :class:`~repro.datasets.flows.Packet` field order.
_PACKET_FIELDS = ("timestamps", "sizes", "flags", "directions", "payloads")

#: Tuple id of a resident whose five-tuple no flow of the run carries: every
#: packet differs from it (it can be reclaimed from or evicted, never rejoined).
_FOREIGN_TUPLE = -2

_EMPTY = np.empty(0, dtype=np.int64)


class StreamSource:
    """A stream's packets as a packet source of their own, in stream order.

    Position ``p`` is packet ``order[p]`` of the arrays the stream was built
    over, so the window aggregator
    (:class:`~repro.dataplane.vectorized._WindowAggregator`) reads a closing
    window as the range of stream positions it spans, and the columns it
    derives (prefix sums, padded columns) are memoised on ``derived`` as on
    ``PacketArrays.derived``.  Only ``timestamps`` is held; the other packet
    columns are gathered, in stream order, while a derived column is built
    from them.
    """

    def __init__(self, soa: PacketArrays, order: np.ndarray, timestamps: np.ndarray) -> None:
        # The columns, not the arrays: a source kept on ``soa.derived`` makes
        # no reference cycle.
        self._columns = {name: getattr(soa, name) for name in _PACKET_FIELDS[1:]}
        self._order = order
        self.timestamps = timestamps
        self.n_packets = int(order.size)
        # Integer-valuedness is a property of the column, decided on the arrays'.
        self.derived: dict = {
            ("whole", name): vz.whole_valued(soa, name) for name in ("sizes", "payloads")
        }

    def _gathered(self, name: str) -> np.ndarray:
        return self._columns[name][self._order]

    sizes = property(lambda self: self._gathered("sizes"))
    flags = property(lambda self: self._gathered("flags"))
    directions = property(lambda self: self._gathered("directions"))
    payloads = property(lambda self: self._gathered("payloads"))


@dataclass
class SlotStream:
    """Packets of a set of flows, grouped by register slot in arrival order.

    Row ``r`` (one per slot) owns stream positions ``starts[r]:starts[r + 1]``.
    A stream may be kept on ``PacketArrays.derived``, and what replays derive
    from it alone is kept with it.
    """

    #: Flow-major packet position of every stream packet.
    order: np.ndarray
    #: Flow index of every stream packet.
    flow: np.ndarray
    starts: np.ndarray
    #: Register slot of every row.
    slots: np.ndarray
    n_flows: int
    #: The next-event columns under the packets' own flow sizes, kept by the
    #: first replay that builds them.
    events: StreamEvents | None = None
    #: The stream's packets in stream order, gathered by the first replay.
    source: StreamSource | None = None

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
    # Half the bytes wherever positions fit: a cached stream keeps both.
    dtype = _position_dtype(soa.n_packets)
    return SlotStream(
        order=order[by_slot].astype(dtype),
        flow=flow[by_slot].astype(dtype),
        starts=starts,
        slots=packet_slots[starts[:-1]],
        n_flows=int(np.count_nonzero(flow_mask)),
    )


def _next_marked(marked: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per position ``p``, the first ``q > p`` in ``p``'s run with ``marked[q]``, else the run's end.

    Runs are ``starts[r]:starts[r + 1]``, with ``starts[0] == 0``.
    """
    n = marked.size
    marks = marked.copy()
    marks[starts[starts < n]] = True  # a run's end is the next run's head
    heads = np.append(np.flatnonzero(marks), n)
    return np.repeat(heads[1:].astype(_position_dtype(n)), np.diff(heads))


def _position_dtype(n: int) -> type:
    """int32 where positions below ``n`` fit: half the bytes of a column spanning the stream."""
    return np.int32 if n < 2**31 else np.int64


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
    same = tuples.take(lo, mode="clip") == owner
    return np.minimum(np.where(same, next_tuple.take(lo, mode="clip"), lo), hi)


class _Evictions:
    """Next-event columns of one call's eviction mask.

    ``evicting_at`` are the evicting positions, ascending, then ``n``;
    ``following[p]`` is the index in it of the first evicting position at or
    after ``p`` (``p <= n``); ``next_other[i]`` the first evicting position
    after ``evicting_at[i]`` in its run whose five-tuple differs from
    ``evicting_at[i]``'s, else a position at or past the run's end (``n``
    for the sentinel).
    """

    def __init__(self, evicting: np.ndarray, tuples: np.ndarray, starts: np.ndarray) -> None:
        n = evicting.size
        dtype = _position_dtype(n + 1)
        at = np.flatnonzero(evicting).astype(dtype)
        self.evicting_at = np.append(at, dtype(n))
        self.following = np.zeros(n + 1, dtype=dtype)
        np.cumsum(evicting, out=self.following[1:])
        # The five-tuple change over the evicting positions alone, with runs
        # cut where the stream's runs are.
        other = _next_change(tuples[at], np.searchsorted(at, starts))
        self.next_other = np.append(self.evicting_at[other], dtype(n))

    def first(
        self, tuples: np.ndarray, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray
    ) -> np.ndarray:
        """Per row, the first evicting position in ``[lo, hi)`` whose five-tuple id is not ``owner``, else ``hi``.

        The next evicting position, or, where it carries ``owner``, the next
        one of another tuple after it.  A position at or past ``hi`` reads as
        ``hi``, whatever it holds.
        """
        index = self.following[lo]
        at = self.evicting_at[index]
        own = tuples.take(at, mode="clip") == owner
        return np.minimum(np.where(own, self.next_other[index], at), hi)


class _SizeClasses:
    """A stream's positions grouped by run and advertised flow size.

    Class ``c`` is the positions of one run whose packets advertise
    ``sizes[c]``, ascending, and run ``r``'s classes are
    ``run_classes[r]:run_classes[r + 1]``.  Every class owns a block of keys
    as long as its run, the blocks in class order, and position ``p`` of
    class ``c`` is stored as ``key = shift[c] + p``.  ``key`` ascends, so one
    ``searchsorted`` finds, for any number of (class, target) pairs at once,
    each class's first position at or after its target.  (The entry found
    may belong to a later class, or be the sentinel key that ends the index;
    its position then reads as the run's end or more.)  Keys are int32 where
    they fit.
    """

    def __init__(self, header_size: np.ndarray, starts: np.ndarray) -> None:
        n = header_size.size
        lengths = np.diff(starts)
        run = np.repeat(np.arange(lengths.size), lengths)
        # Runs are contiguous and ascending, so the sort keeps every position
        # in its run and orders each run by size, stably.
        positions = np.lexsort((header_size, run))
        grouped = header_size[positions]
        head = np.ones(n, dtype=bool)
        head[1:] = grouped[1:] != grouped[:-1]
        head[starts[:-1]] = True
        heads = np.flatnonzero(head)
        classes = np.cumsum(head) - 1
        self.sizes = grouped[heads]
        self.run_classes = np.append(classes[starts[:-1]], heads.size)
        per_run = np.diff(self.run_classes)
        block = np.repeat(lengths, per_run)
        # key - p: where the class's block starts, less where its run starts.
        shift = np.cumsum(block) - block - np.repeat(starts[:-1], per_run)
        dtype = _position_dtype(int(block.sum()) + 1)
        self.shift = shift.astype(dtype)
        positions += shift[classes]
        self.key = np.append(positions.astype(dtype), dtype(np.iinfo(dtype).max))

    def first(
        self,
        runs: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        quota: np.ndarray,
        window: np.ndarray,
        n_partitions: int,
    ) -> np.ndarray:
        """Per row, the first ``p`` in ``[lo, hi)`` of run ``runs`` with ``bound(window, size(p)) - p <= quota``, else ``hi``.

        Within one class the bound is fixed and the test holds from
        ``bound - quota`` on, so a class's first closing position is its
        first at or after ``max(lo, bound - quota)``; the row's is the
        earliest over its run's classes.
        """
        first = self.run_classes[runs]
        counts = self.run_classes[runs + 1] - first
        classes, offsets = vz._segment_positions(first, counts)
        limit = np.repeat(hi, counts)
        bound = window_end(np.repeat(window, counts), self.sizes[classes], n_partitions)
        target = np.minimum(
            np.maximum(np.repeat(lo, counts), bound - np.repeat(quota, counts)), limit
        )
        shift = self.shift[classes]
        at = np.searchsorted(self.key, (target + shift).astype(self.key.dtype))
        return np.minimum.reduceat(np.minimum(self.key[at] - shift, limit), offsets)


class StreamEvents:
    """What the next-event lookups read of a slot stream alone.

    Per stream position: the five-tuple id (``tuples``) and the advertised
    flow size (``header_size``) of its packet — -1 and 0 at a held packet,
    which carries neither — and the next change of each in its run
    (``next_tuple``, ``next_size``: :func:`_next_change`).  Besides: the
    size-class index of the boundary search (:attr:`classes`, built when a
    search first needs it), ``evictions``, the :class:`_Evictions` columns
    of each frozen eviction policy replayed while no slot was held, and the
    solo cuts of each partition count (``solo_cuts``).
    """

    def __init__(self, tuples: np.ndarray, header_size: np.ndarray, starts: np.ndarray) -> None:
        self.tuples = tuples
        self.header_size = header_size
        self.starts = starts
        self.next_tuple = _next_change(tuples, starts)
        self.next_size = _next_change(header_size, starts)
        self.evictions: dict = {}
        #: :func:`_solo_cuts` per partition count.
        self.solo_cuts: dict = {}

    @cached_property
    def classes(self) -> _SizeClasses:
        return _SizeClasses(self.header_size, self.starts)

def _solo_cuts(flow: np.ndarray, events: StreamEvents, n_partitions: int) -> np.ndarray:
    """Stream positions before which a run splits into rows that replay on their own.

    A *solo block* is every packet one flow has in the stream, contiguous in
    its run and at least ``max(size, n_partitions)`` of them: a resident
    admitted at its first packet closes its last window by its last packet
    (window ``P - 1`` ends there at the latest), so it leaves the slot
    decided under its own five-tuple.  A run is cut before a block whose
    five-tuple differs from the solo block before it, when every block from
    the run's head to there is solo: that block's first packet reclaims a
    decided slot, as the first packet of a fresh row is admitted.  Such a
    run is the lockstep plane's clean slot, and each of its rows holds one
    five-tuple and one advertised size.  No flow has packets in two rows, so
    no flow id is decided in two.  Held packets (``flow == -1``) are in no
    solo block.
    """
    tuples, starts = events.tuples, events.starts
    n = flow.size
    head = np.ones(n, dtype=bool)
    head[1:] = flow[1:] != flow[:-1]
    head[starts[:-1]] = True
    heads = np.flatnonzero(head)
    lengths = np.diff(np.append(heads, n))
    owner = flow[heads].astype(np.int64) + 1  # 0 at held packets
    solo = (
        (owner > 0)
        & (np.bincount(owner)[owner] == 1)
        & (lengths >= np.maximum(events.header_size[heads], n_partitions))
    )
    opens_run = np.zeros(heads.size, dtype=bool)
    opens_run[np.searchsorted(heads, starts[:-1])] = True
    # follows[b]: block b is solo and block b + 1 continues its run under another tuple.
    follows = solo[:-1] & ~opens_run[1:] & (tuples[heads[1:]] != tuples[heads[:-1]])
    index = np.arange(follows.size)
    last_miss = np.maximum.accumulate(np.where(follows, -1, index))
    run_head = np.maximum.accumulate(np.where(opens_run[:-1], index, 0))
    return heads[1:][follows & (last_miss < run_head)]


def _narrowed(column: np.ndarray) -> np.ndarray:
    """An integer column spanning the stream, as int32 where its values fit."""
    if column.dtype.kind in "iu" and (
        column.size == 0 or (column.min() >= -(2**31) and column.max() < 2**31)
    ):
        return column.astype(np.int32)
    return column


def _first_boundary(
    runs: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    quota: np.ndarray,
    window: np.ndarray,
    events: StreamEvents,
    n_partitions: int,
) -> tuple[np.ndarray, int]:
    """Per row, the first ``p`` in ``[lo, hi)`` of run ``runs`` with ``bound(window, header_size[p]) - p <= quota``, else ``hi``.

    That is the packet at which the packets seen reach the end of window
    ``window`` under the flow size ``p``'s header advertises.  First the
    stretch of one advertised size at ``lo`` (up to ``next_size``): inside
    it the bound is fixed and ``bound - p`` drops by one per packet, so its
    first closing packet is ``max(lo, bound - quota)`` if that lies inside
    it — a row whose range advertises one size is answered by that
    arithmetic alone.  A row still open past its stretch is answered by the
    size-class index (:meth:`_SizeClasses.first`).  Returns the positions
    and how many rows the index answered.
    """
    stop = np.minimum(events.next_size.take(lo, mode="clip"), hi)
    bound = window_end(window, events.header_size.take(lo, mode="clip"), n_partitions)
    first = np.maximum(lo, bound - quota)
    closes = first < stop
    found = np.where(closes, first, hi)
    rows = np.flatnonzero(~closes & (stop < hi))
    if rows.size:
        found[rows] = events.classes.first(
            runs[rows], stop[rows], hi[rows], quota[rows], window[rows], n_partitions
        )
    return found, int(rows.size)


def _evictions(
    policy, events: StreamEvents, timestamps: np.ndarray, last_seen: np.ndarray
) -> _Evictions | None:
    """The eviction columns of this call under ``policy`` (None when there is none).

    While no slot is held they depend on the stream alone, so those of a
    frozen policy (one whose verdicts cannot change) are kept on ``events``.
    """
    if policy is None:
        return None
    params = getattr(type(policy), "__dataclass_params__", None)
    kept = params is not None and params.frozen and bool(np.isnan(last_seen).all())
    if kept and policy in events.evictions:
        return events.evictions[policy]
    starts = events.starts
    built = _Evictions(
        _eviction_mask(policy, timestamps, starts, last_seen), events.tuples, starts
    )
    if kept:
        events.evictions[policy] = built
    return built


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


#: Columns of a row's state (:attr:`_SlotRows.state`).
_START, _EPOCH, _WINDOW, _SID, _QUOTA, _RESIDENT, _END, _SCAN, _RUN = range(9)


class _SlotRows:
    """Per-row register state of one slot-stream replay.

    A row is a slot's run, or a stretch of it that replays on its own (the
    runs are cut at their solo cuts, :func:`_solo_cuts`); a slot's rows are
    consecutive, and its last one ends the call with the slot's resident.
    ``state[column, row]`` holds the rows' state, so a round reads its rows'
    with one gather (each column stays contiguous):

    * ``_START``: where the open window starts (for a live row);
    * ``_EPOCH``: the stream position of the epoch's first packet — the
      resident's five-tuple and flow id, its first timestamp and size are
      read there when needed (:meth:`creator`); -1 for a resident the slot
      held when the call started, whose columns are in ``held``;
    * ``_WINDOW``, ``_SID``: the open window's index and subtree;
    * ``_QUOTA``: ``seen - start + 1``, ``seen`` the packets the resident had
      taken at ``start`` — the same for every window of an epoch;
    * ``_RESIDENT``: the resident's five-tuple id (``_FOREIGN_TUPLE`` while
      there is none);
    * ``_END``, ``_SCAN``, ``_RUN``: where the row ends, the first position
      an event can fire at (past the packets a resumed row's open window
      already holds), and the run (slot) the row is a stretch of.
    """

    def __init__(
        self,
        soa: PacketArrays,
        stream: SlotStream,
        source: PacketArrays,
        timestamps: np.ndarray,
        row_starts: np.ndarray,
        root_sid: int,
    ) -> None:
        self._soa, self._stream, self._source = soa, stream, source
        self._timestamps = timestamps
        starts = row_starts[:-1]
        run = np.searchsorted(stream.starts, starts, side="right") - 1
        self.state = np.empty((_RUN + 1, starts.size), dtype=np.int64)
        self.state[_START] = self.state[_SCAN] = starts
        self.state[_END] = row_starts[1:]
        self.state[_RUN] = run
        self.state[_EPOCH] = -1
        self.state[_WINDOW] = self.state[_QUOTA] = 0
        self.state[_SID] = root_sid
        self.state[_RESIDENT] = _FOREIGN_TUPLE
        self.live = np.zeros(starts.size, dtype=bool)
        self.slots = stream.slots[run]
        self.held: dict[str, np.ndarray] | None = None

    def creator(self, members: np.ndarray, names, epoch: np.ndarray | None = None) -> list:
        """Columns ``names`` of the epoch creators of rows ``members`` (their ``epoch``, if given).

        ``first_ts`` and ``first_size`` are the epoch's first packet's; any
        other name is a per-flow column of the packet arrays (``flow_ids``,
        the identity columns), read at the first packet's flow.
        """
        at = self.state[_EPOCH, members] if epoch is None else epoch
        flows = self._stream.flow[at]
        columns = []
        for name in names:
            if name == "first_ts":
                values = self._timestamps[at]
            elif name == "first_size":
                values = self._source.sizes[self._stream.order[at]]
            else:
                values = getattr(self._soa, name)[flows]
            if self.held is not None:
                held = at < 0
                values[held] = self.held[name][members[held]]
            columns.append(values)
        return columns


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
    (``.boundary_lookups``) or by the size-class index (``.boundary_indexed``),
    and whether it gathered the stream's packets (``.source_builds``, 0 when
    the stream came with them: :func:`_stream_packets`).
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
    stream, source, held, last_seen = _resume_held_slots(program, soa, stream, tuple_of)
    packets = _stream_packets(counters, soa, stream, source)
    timestamps = packets.timestamps
    aggregator = vz._WindowAggregator(packets)

    n_partitions = program.model.config.n_partitions
    events = _stream_events(soa, stream, tuple_of, sizes)
    tuples, next_tuple = events.tuples, events.next_tuple
    evictions = _evictions(program.eviction, events, timestamps, last_seen)
    rows = _SlotRows(
        soa, stream, source, timestamps, _row_starts(stream, events, n_partitions, held),
        program.model.root_sid,
    )
    if held is not None:
        held.resume(rows)
    state, live = rows.state, rows.live
    fresh = np.array([[0], [program.model.root_sid]])  # window, subtree of a new epoch

    def admit(members: np.ndarray, positions: np.ndarray) -> None:
        """Start a new epoch on rows ``members`` with the packets at ``positions``."""
        live[members] = True
        state[_START:_EPOCH + 1, members] = positions
        state[_WINDOW:_SID + 1, members] = fresh
        state[_QUOTA, members] = 1 - positions
        state[_RESIDENT, members] = tuples[positions]
        program.begin_flows(rows.slots[members])

    # Every row starts its first epoch at its first packet of another
    # five-tuple than the resident's (any packet, for a row without one).
    idle = np.flatnonzero(~live)
    block = state[:, idle]
    at = _first_other_tuple(tuples, next_tuple, block[_START], block[_END], block[_RESIDENT])
    entering = at < block[_END]
    admit(idle[entering], at[entering])

    staging: list = []
    evictions_at: list = []
    rounds = searched = indexed = 0
    # A live row stays at the start of its open window once its run holds no
    # further event, so the rows still to advance are tracked explicitly.
    active = np.flatnonzero(live)
    while active.size:
        rounds += 1
        searched += active.size
        block = state[:, active]
        hi = block[_END]
        scan = np.maximum(block[_START], block[_SCAN])
        # The packet at p closes the window iff seen + (p - start + 1) >= bound(p).
        boundary, n_indexed = _first_boundary(
            block[_RUN], scan, hi, block[_QUOTA], block[_WINDOW], events, n_partitions
        )
        indexed += n_indexed
        closing = boundary < hi
        # Which rows have packets left after this round; the rows that start
        # an epoch, and at which packets.
        going = np.zeros(active.size, dtype=bool)
        entering, positions = [], []
        if evictions is not None:
            limit = np.minimum(boundary + 1, hi)
            eviction = evictions.first(tuples, scan, limit, block[_RESIDENT])
            evicted = eviction < limit
            if evicted.any():
                members = active[evicted]
                # The evicted residents, by row and epoch (read once, at the end).
                evictions_at.append((members, block[_EPOCH, evicted]))
                entering.append(members)
                positions.append(eviction[evicted])
                closing &= ~evicted
                going = evicted
        which = np.flatnonzero(closing)
        if which.size:
            members, closed, after = active[which], block[:, which], boundary[which] + 1
            advance, values = _close_windows(
                program, soa, aggregator, stream, timestamps, rows, members, after - 1,
                staging, closed,
            )
            # An advancing row's next window starts after the boundary; a
            # decided row's next epoch at its next packet of another
            # five-tuple, and a row without one is done.
            end = closed[_END]
            reclaim = _first_other_tuple(tuples, next_tuple, after, end, closed[_RESIDENT])
            at = np.where(advance, after, reclaim)
            going[which] = at < end
            state[_START, members] = after
            advancing = members[advance]
            state[_SID, advancing] = values[advance]
            state[_WINDOW, advancing] += 1
            decided = ~advance
            live[members[decided]] = False
            reclaimed = decided & (at < end)
            entering.append(members[reclaimed])
            positions.append(at[reclaimed])
        if entering:
            admit(np.concatenate(entering), np.concatenate(positions))
        active = active[going]
    if evictions_at:
        members, epochs = (np.concatenate(parts) for parts in zip(*evictions_at))
        program.record_evictions(rows.creator(members, ("flow_ids",), epochs)[0].tolist())
    program.finalise_staged(staging)
    counters.add("dataplane.slot_stream.rounds", rounds)
    counters.add("dataplane.slot_stream.boundary_lookups", searched - indexed)
    counters.add("dataplane.slot_stream.boundary_indexed", indexed)
    program.hand_over(_handover(source, stream, timestamps, rows))


def _row_starts(
    stream: SlotStream, events: StreamEvents, n_partitions: int, held: "_HeldRuns | None"
) -> np.ndarray:
    """Where the rows of ``stream`` start (and, last, where it ends).

    Every run, cut at its solo cuts (:func:`_solo_cuts`, kept with
    ``events``), except the runs whose slot holds a resident when the call
    starts.
    """
    if n_partitions not in events.solo_cuts:
        events.solo_cuts[n_partitions] = _solo_cuts(stream.flow, events, n_partitions)
    cuts = events.solo_cuts[n_partitions]
    if held is not None and cuts.size:
        free = np.ones(stream.slots.size, dtype=bool)
        free[held.runs] = False
        cuts = cuts[free[np.searchsorted(stream.starts, cuts, side="right") - 1]]
    if cuts.size == 0:
        return stream.starts
    return np.sort(np.concatenate((stream.starts, cuts)))


def _stream_events(
    soa: PacketArrays, stream: SlotStream, tuple_of: np.ndarray, sizes: np.ndarray | None
) -> StreamEvents:
    """The next-event columns of ``stream`` under ``sizes`` (default: the flows' packet counts).

    Those under the flows' own sizes are kept with the stream, so a cached
    stream builds them once.
    """
    if sizes is None and stream.events is not None:
        return stream.events
    flow = stream.flow
    tuples = _narrowed(tuple_of[flow])
    header_size = _narrowed((soa.n_packets_per_flow if sizes is None else sizes)[flow])
    held = flow < 0
    if held.any():
        tuples[held], header_size[held] = -1, 0
    events = StreamEvents(tuples, header_size, stream.starts)
    if sizes is None:
        stream.events = events
    return events


def _stream_packets(counters, soa: PacketArrays, stream: SlotStream, source: PacketArrays):
    """The packets of ``stream`` in stream order: the window aggregator's source.

    A resumed stream indexes a packet source of its own, gathered in stream
    order (:func:`_with_open_windows`); any other stream's packets are
    gathered from ``soa`` once and kept with the stream, so a cached stream
    is gathered by its first replay only.  Counts a gather as
    ``dataplane.slot_stream.source_builds``.
    """
    built = 1
    if source is not soa:
        packets = source
    elif stream.source is not None:
        packets, built = stream.source, 0
    else:
        packets = StreamSource(soa, stream.order, soa.timestamps[stream.order])
        stream.source = packets
    counters.add("dataplane.slot_stream.source_builds", built)
    return packets


@dataclass
class _HeldRuns:
    """The slot state a call starts from, for the runs whose slot holds a resident.

    Run ``runs[i]`` starts from hand-over row ``of[i]``; ``live`` picks the
    undecided residents, whose open windows (entries ``chosen`` of
    ``held.undecided``) put ``held_packets`` packets at the head of their runs.
    """

    runs: np.ndarray
    of: np.ndarray
    residents: np.ndarray
    held: SlotHandover
    live: np.ndarray
    chosen: np.ndarray
    held_packets: np.ndarray

    def resume(self, rows: _SlotRows) -> None:
        """Start the first row of each of :attr:`runs` from its resident."""
        state, held = rows.state, self.held
        first = np.searchsorted(state[_RUN], self.runs)
        state[_RESIDENT, first] = self.residents
        columns = {"flow_ids": held.flow_ids, "first_ts": held.first_ts}
        columns.update(zip(_IDENTITY_COLUMNS, held.identity))
        rows.held = {name: np.zeros(state.shape[1], dtype=column.dtype)
                     for name, column in columns.items()}
        for name, column in columns.items():
            rows.held[name][first] = column[self.of]
        rows.held["first_size"] = np.zeros(state.shape[1])
        members = first[self.live]
        if members.size:
            windows, chosen = held.undecided, self.chosen
            rows.live[members] = True
            state[_SID, members] = windows.sids[chosen]
            state[_WINDOW, members] = windows.windows[chosen]
            state[_QUOTA, members] = windows.seen[chosen] - state[_START, members] + 1
            state[_SCAN, members] += self.held_packets
            rows.held["first_size"][members] = windows.first_sizes[chosen]


def _resume_held_slots(program, soa: PacketArrays, stream: SlotStream, tuple_of):
    """The slot state the runs of ``stream`` start from: what the program holds.

    A slot holding a resident when the call starts
    (:meth:`~repro.dataplane.splidt_program.SpliDTDataPlane.held_state`)
    starts its first row from it.  A decided resident is a five-tuple,
    matched to the run's flows by identity columns.  An undecided one is a
    live row at the start of its open window, and the window's packets
    become the head of the slot's run: aggregated into the first window the
    row closes, carried into its hand-over if it closes none, and never
    searched for an event — none fires inside an open window.

    Returns ``(stream, source, held, last_seen)``: the stream and the packet
    source it indexes (new ones only when held packets were put in), the
    :class:`_HeldRuns` (None when no run's slot is held), and each run's
    undecided resident's last-seen timestamp (NaN where the slot held none).
    """
    last_seen = np.full(stream.slots.size, np.nan)
    held = program.held_state()
    found = _EMPTY
    if held is not None:
        at = np.minimum(np.searchsorted(held.slots, stream.slots), held.slots.size - 1)
        found = np.flatnonzero(held.slots[at] == stream.slots)
    if found.size == 0:
        return stream, soa, None, last_seen
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
    if members.size:
        last_seen[members] = windows.last_ts[chosen]
    held_runs = _HeldRuns(found, of, residents, held, live, chosen, held_packets)
    return stream, source, held_runs, last_seen


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

    A slot's last row holds it.  An undecided resident is recorded as it was
    at the start of its open window, with the window's packets gathered next
    to it.
    """
    run = rows.state[_RUN]
    final = np.flatnonzero(np.append(run[1:] != run[:-1], True))
    open_rows = np.flatnonzero(rows.live[final])
    live = final[open_rows]
    start, end, quota = rows.state[_START, live], rows.state[_END, live], rows.state[_QUOTA, live]
    lengths = end - start
    window, _ = vz._segment_positions(start, lengths)
    packets = stream.order[window]
    *identity, flow_ids, first_ts = rows.creator(
        final, [*_IDENTITY_COLUMNS, "flow_ids", "first_ts"]
    )
    return SlotHandover(
        slots=stream.slots.copy(),
        identity=tuple(identity),
        flow_ids=flow_ids,
        first_ts=first_ts,
        undecided=OpenWindows(
            rows=open_rows,
            sids=rows.state[_SID, live],
            windows=rows.state[_WINDOW, live],
            seen=quota + start - 1,
            last_ts=timestamps[end - 1],
            first_sizes=rows.creator(live, ("first_size",))[0],
            starts=np.append(0, np.cumsum(lengths)),
            packets=tuple(getattr(source, name)[packets] for name in _PACKET_FIELDS),
        ),
    )


def _close_windows(
    program,
    soa: PacketArrays,
    aggregator: vz._WindowAggregator,
    stream: SlotStream,
    timestamps: np.ndarray,
    rows: _SlotRows,
    members: np.ndarray,
    last: np.ndarray,
    staging: list,
    state: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate and classify the windows rows ``members`` close at packets ``last``.

    ``state`` is the rows' columns of ``rows.state``.  Each window runs from
    its row's start to ``last`` (stream positions, inclusive), inside its
    slot's run.  The aggregator reads the stream's packets in stream order,
    so a window is the segment ``[start, last + 1)`` as it stands.
    """
    # Header fields are the epoch creator's: its tuple, its first packet's
    # size.  Only those some subtree reads are written: the lookup reads no
    # other column.
    features = program.fill_plan.header_features
    *header, first_ts = rows.creator(
        members, [_HEADER_COLUMNS[feature] for feature in features] + ["first_ts"],
        state[_EPOCH],
    )
    # Feature-major, as the lockstep plane's: each feature's cells are one run.
    matrix = np.empty((members.size, N_FEATURES), dtype=np.float64, order="F")
    for feature, column in zip(features, header):
        matrix[:, feature] = column
    return vz._close_round(
        program,
        aggregator,
        matrix,
        state[_START],
        last + 1,
        staging,
        sids=state[_SID],
        flow_ids=soa.flow_ids[stream.flow[last]],
        window_index=state[_WINDOW],
        boundary_ts=timestamps[last],
        first_packet_ts=first_ts,
    )
