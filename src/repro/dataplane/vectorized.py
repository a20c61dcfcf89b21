"""Vectorized replay engine and flow-lockstep window plane for the data-plane programs.

The per-packet interpreter in :mod:`repro.dataplane.oracle` runs one packet
at a time — the semantics oracle, and the slowest possible path for the
component the paper claims runs at line rate.  This module replays the same
traffic orders of magnitude faster by exploiting two structural facts:

1. **The replay factorises over register slots.**  All cross-packet state a
   program keeps is indexed by the CRC32 flow slot, so flows that occupy
   *different* slots never interact; only the global recirculation counters
   are shared, and those are order-insensitive aggregates.  A SpliDT flow
   that meets a clean slot — alone in it, or following its predecessors
   there after their verdicts under a different five-tuple — advances on
   the flow-lockstep plane of this module.  Flows that share a slot *and*
   overlap in time, repeat a five-tuple or may end undecided corrupt,
   evict and inherit each other's state exactly as on hardware; those slots
   are replayed as sequential packet runs, still batched across slots, by
   the slot-stream plane (:mod:`repro.dataplane.slot_stream`; the routing
   rule is :func:`_split_scalar_fast`), which also carries on from the slot
   state an earlier call left.  The per-packet interpreter is the oracle,
   not a path.  A one-shot top-k baseline is a one-partition SpliDT model
   (:func:`repro.baselines.topk.exit_tree`) and takes the same planes.
2. **Window boundaries are deterministic.**  A flow's window segmentation
   depends only on its packet count (the Homa/NDP flow-size header field;
   a flow whose header advertises another size takes the slot-stream
   plane), so every window of every flow can be precomputed and the
   per-packet operator updates collapse into per-window NumPy segment
   reductions.

A flow alone in its register slot closes its windows through one function,
:func:`close_ready_windows`: flows advance in lock-step window rounds, each
round aggregating its windows' packets in one fill — each kernel family
(:data:`FAMILIES`: segment sums, max/min reductions, the IAT sweep, endpoint
gathers) once, over the rows whose subtrees read it — and classifying them
in one ``SpliDTDataPlane.step_windows`` lookup, whatever subtrees its rows
are in (:func:`_close_round`, which the slot-stream plane calls too).  Replay
runs it over every clean flow from window 0, the micro-batch engine over the
windows a flush finds ready, gathering each round's features from the
session's :class:`WindowTable` instead of filling them.  Its state is per
row of the call, and decided rows are recorded, as column blocks, once per
call.  Columns derived from the packet arrays (padded
feature columns, exact prefix sums, register slots, window ends) are cached
on ``PacketArrays.derived`` and shared by every replay of the same traffic.

Engine contract (asserted by ``tests/test_dataplane_vectorized.py`` and
``tests/test_parity_fuzz.py``): for any dataset,
:func:`replay_arrays` produces verdicts, labels, time-to-detection values,
digests, recirculation statistics, eviction counters and slot state
bit-identical to the oracle's.

Floating-point notes:

* Integer-valued columns (sizes, payloads, counts, indicators) are exact
  under any summation order while the column total stays below 2**53, so
  their segment sums are computed as prefix-sum differences — one gather
  pair per round instead of a ``reduceat`` sweep — with a runtime exactness
  guard that falls back to ``reduceat`` for columns that exceed the bound.
* Inter-arrival-time sums are order-sensitive; they are computed by the
  sequential sweep in :mod:`repro.dataplane.kernels`, which reproduces the
  scalar accumulation order bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.dataplane.kernels import iat_sequential_sums
from repro.datasets.flows import Flow, PacketArrays
from repro.features.definitions import (
    BURST_GAP_SECONDS,
    FEATURES,
    FEATURES_BY_NAME,
    LARGE_PACKET_BYTES,
    N_FEATURES,
    SMALL_PACKET_BYTES,
)
from repro.features.window import window_end
from repro.switch.hashing import flow_slots

#: TCP flag features handled by the generic bit-test kernel.
_FLAG_FEATURES = {
    "syn_count": 0x02,
    "ack_count": 0x10,
    "fin_count": 0x01,
    "psh_count": 0x08,
    "rst_count": 0x04,
    "urg_count": 0x20,
}

#: Largest column total for which float64 prefix sums of an integer-valued
#: column are exact (contiguous integers below 2**53).
_EXACT_PREFIX_LIMIT = float(2**53)


# ----------------------------------------------------------------------
# Derived packet columns (cached on PacketArrays.derived, shared by replays)
# ----------------------------------------------------------------------
def _indicator(soa: PacketArrays, key: str) -> np.ndarray | None:
    """The 0/1 column ``key`` as a boolean mask, or ``None`` when ``key`` is not one."""
    if key == "fwd":
        return soa.directions > 0
    if key == "bwd":
        return soa.directions < 0
    if key == "small":
        return soa.sizes < SMALL_PACKET_BYTES
    if key == "large":
        return soa.sizes > LARGE_PACKET_BYTES
    if key in _FLAG_FEATURES:
        return (soa.flags & _FLAG_FEATURES[key]) != 0
    if key == "gap":
        return _base_values(soa, "diffs") > BURST_GAP_SECONDS
    return None


def _base_values(soa: PacketArrays, key: str, *, retain: bool = True) -> np.ndarray:
    """Unpadded per-packet values of a derived column (soa-cached unless ``retain`` is False).

    A column read only through its prefix sums is built for them and
    dropped (``retain=False``): the prefix is what stays.
    """
    cached = soa.derived.get(("col", key))
    if cached is not None:
        return cached
    padded = soa.derived.get(("pad", key))
    if padded is not None:
        values = padded[:-1]
    elif (mask := _indicator(soa, key)) is not None:
        values = mask.astype(np.float64)
    elif key == "sizes":
        values = soa.sizes
    elif key == "payloads":
        values = soa.payloads
    elif key == "sizes_sq":
        values = soa.sizes * soa.sizes
    elif key == "fwd_sizes":
        values = np.where(soa.directions > 0, soa.sizes, 0.0)
    elif key == "bwd_sizes":
        values = np.where(soa.directions < 0, soa.sizes, 0.0)
    elif key == "diffs":
        values = np.zeros(soa.n_packets, dtype=np.float64)
        if soa.n_packets > 1:
            timestamps = soa.timestamps
            np.subtract(timestamps[1:], timestamps[:-1], out=values[1:])
    elif key == "burst_run":
        # Packets in the burst ending at each position, bursts split at the
        # gaps only: exact for every position at or after a window's first gap.
        positions = np.arange(soa.n_packets, dtype=np.int64)
        burst_start = np.where(_indicator(soa, "gap"), positions, 0)
        values = (positions - np.maximum.accumulate(burst_start) + 1).astype(np.float64)
    else:
        raise KeyError(key)
    if retain:
        soa.derived[("col", key)] = values
    return values


def _pad_with_identity(values: np.ndarray) -> np.ndarray:
    """Append one identity element so a segment end may equal ``n_packets``."""
    padded = np.empty(values.size + 1, dtype=np.float64)
    padded[:-1] = values
    padded[-1] = 0.0
    return padded


def _padded_column(soa: PacketArrays, key: str) -> np.ndarray:
    """``_base_values`` with one identity element appended (soa-cached).

    The unpadded column becomes a view of it, so a column read both ways is
    held once.
    """
    cached = soa.derived.get(("pad", key))
    if cached is None:
        cached = _pad_with_identity(_base_values(soa, key, retain=False))
        soa.derived[("pad", key)] = cached
        soa.derived[("col", key)] = cached[:-1]
    return cached


#: The packet column whose values decide whether a prefix-summed column is
#: integer-valued; every prefix-summed column not named here is a 0/1 indicator.
_PREFIX_SOURCE = {
    "sizes": "sizes",
    "sizes_sq": "sizes",
    "fwd_sizes": "sizes",
    "bwd_sizes": "sizes",
    "payloads": "payloads",
}


def whole_valued(soa: PacketArrays, name: str) -> bool:
    """Whether packet column ``name`` holds non-negative integers only (soa-cached).

    A property of the column, so a source that holds the same packets in
    another order (a slot stream's,
    :class:`repro.dataplane.slot_stream.StreamSource`) is given the answer
    instead of re-deriving it.
    """
    marker = ("whole", name)
    known = soa.derived.get(marker)
    if known is None:
        values = getattr(soa, name)
        known = values.size == 0 or bool(
            values.min() >= 0.0 and np.all(values == np.floor(values))
        )
        soa.derived[marker] = known
    return known


def _exact_prefix(values: np.ndarray) -> np.ndarray | None:
    """Leading-zero prefix sums of integer-valued ``values``, or ``None`` when inexact.

    Prefix-difference segment sums are bit-identical to ``reduceat`` (and to
    the scalar left-to-right operators) only when every partial sum is an
    exactly representable integer: the caller vouches for the values
    (:func:`whole_valued`), the total is bounded here, and the caller falls
    back to ``reduceat`` on ``None``.
    """
    prefix = np.empty(values.size + 1, dtype=np.float64)
    prefix[0] = 0.0
    np.cumsum(values, out=prefix[1:])
    return prefix if prefix[-1] <= _EXACT_PREFIX_LIMIT else None


def _prefix_column(soa: PacketArrays, key: str) -> np.ndarray | None:
    """Leading-zero prefix sums of derived column ``key`` (soa-cached), ``None`` when inexact.

    A 0/1 indicator's prefix is a packet count, held as int32 while the
    source has fewer than 2**31 packets: exact, and half the bytes.
    """
    marker = ("prefix", key)
    if marker in soa.derived:
        return soa.derived[marker]
    mask = _indicator(soa, key)
    if mask is not None:
        prefix = np.zeros(mask.size + 1, dtype=np.int32 if mask.size < 2**31 else np.int64)
        np.cumsum(mask, dtype=prefix.dtype, out=prefix[1:])
    elif whole_valued(soa, _PREFIX_SOURCE[key]):
        prefix = _exact_prefix(_base_values(soa, key, retain=False))
    else:
        prefix = None
    soa.derived[marker] = prefix
    return prefix


def _segment_positions(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the segments ``[starts_i, starts_i + lengths_i)``, concatenated.

    Also returns each segment's offset into that concatenation.
    """
    offsets = lengths.cumsum() - lengths
    return np.arange(int(lengths.sum())) + (starts - offsets).repeat(lengths), offsets


#: The packet-arrays column each header (stateless) feature reads, per flow.
_HEADER_COLUMNS = {
    FEATURES_BY_NAME["src_port"].index: "src_ports",
    FEATURES_BY_NAME["dst_port"].index: "dst_ports",
    FEATURES_BY_NAME["protocol"].index: "protocols",
    FEATURES_BY_NAME["pkt_len_first"].index: "first_sizes",
}


def _last_timestamps(soa: PacketArrays) -> np.ndarray:
    """Per-flow timestamp of the last packet (soa-cached)."""
    cached = soa.derived.get("last_ts")
    if cached is None:
        if soa.n_packets:
            last_positions = np.maximum(soa.flow_starts[1:] - 1, 0)
            cached = np.where(
                soa.n_packets_per_flow > 0, soa.timestamps[last_positions], 0.0
            )
        else:
            cached = np.zeros(soa.n_flows, dtype=np.float64)
        soa.derived["last_ts"] = cached
    return cached


def _next_gap(soa: PacketArrays) -> np.ndarray:
    """Per position ``p <= n_packets``, the first burst gap at or after ``p`` (soa-cached).

    ``n_packets`` where no gap follows.
    """
    cached = soa.derived.get("next_gap")
    if cached is None:
        gaps = np.flatnonzero(_indicator(soa, "gap"))
        at_or_after = np.full(soa.n_packets + 1, soa.n_packets, dtype=np.intp)
        at_or_after[gaps] = gaps
        cached = np.ascontiguousarray(np.minimum.accumulate(at_or_after[::-1])[::-1])
        soa.derived["next_gap"] = cached
    return cached


def cached_flow_slots(soa: PacketArrays, table_size: int) -> np.ndarray:
    """Register slot of every flow, cached on the packet arrays per table size.

    The CRC32 slot of a flow is a pure function of its five-tuple and the
    register table size, so every replay and serving session over the same
    ``PacketArrays`` shares one hashing pass over its identity columns.  The
    first pass over a source also leaves the per-flow five-tuple ids (see
    :func:`cached_tuple_ids`), which do not depend on the table size.
    """
    key = ("slots", table_size)
    slots = soa.derived.get(key)
    if slots is None:
        if "tuple_ids" in soa.derived:
            slots = flow_slots(soa, table_size)
        else:
            slots, soa.derived["tuple_ids"] = flow_slots(
                soa, table_size, return_tuple_ids=True
            )
        soa.derived[key] = slots
    return slots


def cached_tuple_ids(soa: PacketArrays, table_size: int) -> np.ndarray:
    """Dense per-flow five-tuple id (equal iff the tuples are equal), soa-cached.

    The slot-stream plane compares a slot's resident with incoming packets
    by these ids, and the micro-batch engine a new flow with its slot's
    resident.  Filled by the first :func:`cached_flow_slots` pass, or by
    :func:`seed_flow_hashes` in a worker process.
    """
    if "tuple_ids" not in soa.derived:
        cached_flow_slots(soa, table_size)
    return soa.derived["tuple_ids"]


def seed_flow_hashes(
    soa: PacketArrays, table_size: int, slots: np.ndarray, tuple_ids: np.ndarray
) -> None:
    """Install slots and five-tuple ids hashed elsewhere over the same flows.

    A ``sharded-mp`` worker attaches its own ``PacketArrays`` over the shared
    columns; the parent ships its one hashing pass instead of every worker
    repeating it.
    """
    soa.derived[("slots", table_size)] = slots
    soa.derived["tuple_ids"] = tuple_ids


#: The kernel families of a window round, in the order a fill runs them: the
#: prefix-summed columns' gathers, the max/min segment reductions, the
#: sequential IAT sweep and the window-endpoint gathers.
FAMILIES = ("sums", "extremes", "iat", "ends")
_SUMS, _EXTREMES, _IAT, _ENDS = range(len(FAMILIES))

#: Per stateful feature derived from prefix sums: the columns it sums
#: (``burst_count`` reads the gap column's prefix at its own offsets).
_SUM_KEYS: dict[str, tuple[str, ...]] = {
    "byte_count": ("sizes",),
    "mean_pkt_len": ("sizes",),
    "std_pkt_len": ("sizes", "sizes_sq"),
    "byte_rate": ("sizes",),
    "payload_sum": ("payloads",),
    "mean_payload": ("payloads",),
    "fwd_byte_count": ("fwd_sizes",),
    "bwd_byte_count": ("bwd_sizes",),
    "fwd_pkt_count": ("fwd",),
    "bwd_pkt_count": ("bwd",),
    "fwd_bwd_pkt_ratio": ("fwd", "bwd"),
    "mean_fwd_pkt_len": ("fwd", "fwd_sizes"),
    "mean_bwd_pkt_len": ("bwd", "bwd_sizes"),
    "small_pkt_count": ("small",),
    "large_pkt_count": ("large",),
    **{name: (name,) for name in _FLAG_FEATURES},
    "burst_count": (),
}

#: The features that are one column's window sum, by column.
_SUM_OF = {
    "sizes": "byte_count",
    "payloads": "payload_sum",
    "fwd_sizes": "fwd_byte_count",
    "bwd_sizes": "bwd_byte_count",
    "fwd": "fwd_pkt_count",
    "bwd": "bwd_pkt_count",
    "small": "small_pkt_count",
    "large": "large_pkt_count",
    **{name: name for name in _FLAG_FEATURES},
}

#: Per stateful feature that is a segment reduction: ``(ufunc, column, segments)``,
#: segments ``window`` (``[s, e)``), ``gaps`` (the window's inter-arrival
#: times, ``[s + 1, e)``, 0 without one) or ``burst`` (from the first gap on).
_REDUCTIONS = {
    "max_pkt_len": (np.maximum, "sizes", "window"),
    "max_fwd_pkt_len": (np.maximum, "fwd_sizes", "window"),
    "max_bwd_pkt_len": (np.maximum, "bwd_sizes", "window"),
    "min_pkt_len": (np.minimum, "sizes", "window"),
    "max_iat": (np.maximum, "diffs", "gaps"),
    "idle_max": (np.maximum, "diffs", "gaps"),
    "min_iat": (np.minimum, "diffs", "gaps"),
    "max_burst_len": (np.maximum, "burst_run", "burst"),
}

#: Stateful features read at the window's ends (first/last packet).
_ENDPOINTS = ("first_pkt_len", "last_pkt_len", "duration", "pkt_rate")


#: Per stateful feature, the kernel family it is derived from (``pkt_count``,
#: the window's length, needs none).
_FAMILY_OF: dict[str, int | None] = {
    "pkt_count": None,
    **{name: _SUMS for name in _SUM_KEYS},
    **{name: _EXTREMES for name in _REDUCTIONS},
    "mean_iat": _IAT,
    "std_iat": _IAT,
    **{name: _ENDS for name in _ENDPOINTS},
}

#: ``[feature, family]``: whether the feature is derived from the family.
_FAMILY_TABLE = np.zeros((N_FEATURES, len(FAMILIES)), dtype=bool)
for _name, _family in _FAMILY_OF.items():
    if _family is not None:
        _FAMILY_TABLE[FEATURES_BY_NAME[_name].index, _family] = True

_F = {feature.name: feature.index for feature in FEATURES}
_NAMES = [feature.name for feature in FEATURES]
_STATEFUL = np.array([feature.stateful for feature in FEATURES])


def _rate(total: np.ndarray, span: np.ndarray) -> np.ndarray:
    rate = np.zeros(span.size, dtype=np.float64)
    np.divide(total, span, out=rate, where=span > 0)
    return rate


def _std(
    total: np.ndarray, total_sq: np.ndarray, count: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    mean = total / count
    return np.sqrt(np.maximum(total_sq / count - mean * mean, 0.0), out=out)


def _mean_by(total: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``total / count``, 0 where ``count`` is 0 (``total`` is then exactly 0 too)."""
    return total / np.maximum(count, 1.0)


class FillPlan:
    """Which features each subtree reads, laid out for a window round's fill.

    Built once per rule set and subtree features (``rules.fill_plan``,
    shared by every program a factory builds) from each subtree's features:
    per subtree, the stateful features of its operator bank and the kernel
    families (:data:`FAMILIES`) they are derived from.  A window round's
    rows may be in any mix of subtrees; :meth:`layout` says what the round
    fills, so :meth:`_WindowAggregator.fill` runs each family once over the
    rows that need it.  Also names the header (stateless) features any
    subtree reads, the only header columns a plane writes.
    """

    def __init__(self, features_by_sid: dict[int, list[int]]) -> None:
        sids = sorted(features_by_sid)
        #: Sorted header features read by any subtree.
        self.header_features = tuple(sorted({
            feature
            for features in features_by_sid.values()
            for feature in features
            if not FEATURES[feature].stateful
        }))
        #: ``(feature, packet-arrays column)`` of each header feature.
        self.header_columns = tuple(
            (feature, _HEADER_COLUMNS[feature]) for feature in self.header_features
        )
        # Indexed by sid + 1 (SIDs are non-negative), clipped; the last code is
        # a SID the model lacks.
        code = [len(sids)] * (max(sids, default=0) + 3)
        for index, sid in enumerate(sids):
            code[sid + 1] = index
        self._code = np.array(code, dtype=np.intp)
        self._reads = np.zeros((len(sids) + 1, N_FEATURES), dtype=bool)
        for row, sid in enumerate(sids):
            self._reads[row, features_by_sid[sid]] = True
        self._reads &= _STATEFUL
        self._families = self._reads @ _FAMILY_TABLE
        self._layouts: dict[bytes, _RoundLayout] = {}
        self._merged: dict[bytes, FillPlan] = {}

    def layout(self, sids: np.ndarray) -> tuple[np.ndarray, "_RoundLayout"]:
        """``(codes, layout)`` of a round whose row ``i`` is in subtree ``sids[i]``.

        ``codes[i]`` is row ``i``'s subtree code.  The :class:`_RoundLayout`
        depends only on which subtrees the round's rows are in, so it is
        worked out once per such set and kept.

        Example::

            >>> codes, layout = program.fill_plan.layout(np.array([1, 2, 1]))
            >>> "byte_count" in layout.features  # doctest: +SKIP
            True
        """
        codes = self._code.take(sids + 1, mode="clip")
        present = np.bincount(codes, minlength=self._families.shape[0]).astype(bool)
        key = present.tobytes()
        layout = self._layouts.get(key)
        if layout is None:
            if len(self._layouts) >= _LAYOUTS_KEPT:
                self._layouts.clear()
            layout = self._layouts[key] = _RoundLayout(self, present)
        return codes, layout

    def merged(self, sids: np.ndarray) -> "FillPlan":
        """A one-subtree plan (SID 0) reading every stateful feature some subtree of ``sids`` reads.

        One fill of it over rows of any of those subtrees runs each family
        they need over every row (:class:`WindowTable`).  Kept per set of
        features.
        """
        codes = self._code.take(sids + 1, mode="clip")
        read = np.flatnonzero(self._reads[codes].any(axis=0))
        key = read.tobytes()
        plan = self._merged.get(key)
        if plan is None:
            plan = self._merged[key] = FillPlan({0: read.tolist()})
        return plan


#: Round layouts a :class:`FillPlan` keeps (one per set of subtrees met).
_LAYOUTS_KEPT = 4096


class _RoundLayout:
    """A round's fill, worked out once per set of subtrees its rows are in.

    ``features`` are the stateful features some row reads (names), and
    ``count`` whether ``pkt_count`` is one of them.  ``passes`` holds, per
    kernel family some row needs (in :data:`FAMILIES` order),
    ``(family, spec, group)``: the family's work as its kernel takes it
    (:meth:`_WindowAggregator.fill`), and ``-1`` when every row needs the
    family, else the row of its readers in ``readers`` — per subtree code,
    whether the code's rows run the family (``None`` when every family
    runs over every row).  Families read by the same rows share a group,
    so a round selects those rows once.
    """

    __slots__ = ("features", "count", "passes", "readers")

    def __init__(self, plan: FillPlan, present: np.ndarray) -> None:
        read = np.flatnonzero(plan._reads[present].any(axis=0)).tolist()
        self.features = [_NAMES[feature] for feature in read]
        self.count = "pkt_count" in self.features
        by_family: list[list[str]] = [[] for _ in FAMILIES]
        for name in self.features:
            if _FAMILY_OF[name] is not None:
                by_family[_FAMILY_OF[name]].append(name)
        groups: dict[bytes, int] = {}
        readers: list[np.ndarray] = []
        passes = []
        for family, names in enumerate(by_family):
            if not names:
                continue
            needs = plan._families[:, family]
            group = -1
            if not needs[present].all():
                group = groups.get(needs.tobytes())
                if group is None:
                    group = groups[needs.tobytes()] = len(readers)
                    readers.append(needs)
            passes.append((family, _SPECS[family](names), group))
        self.passes = tuple(passes)
        self.readers = np.array(readers) if readers else None


def _sums_spec(names: list[str]) -> tuple:
    """``(keys, slot, n_slots, written, features)``: each column summed once, each feature's row.

    The family works in one block of ``n_slots`` rows: a row per column in
    ``keys`` (its window sums), then a row per feature derived from them,
    feature ``name`` at ``slot[name]``; a feature that is one column's sum
    is that column's row.  ``burst_count`` reads the gap column's prefix at
    its own offsets: the ``"gap"`` row holds the burst count.  The columns
    no feature is the sum of come first, so the rows from ``written`` on are
    the features, ``features`` (a column: one assignment scatters them).
    """
    keys: list[str] = []
    for name in names:
        keys.extend(key for key in _SUM_KEYS[name] if key not in keys)
    if "burst_count" in names:
        keys.append("gap")
    own = {"gap": "burst_count"}
    own.update((key, _SUM_OF[key]) for key in keys if _SUM_OF.get(key) in names)
    keys = [key for key in keys if key not in own] + [key for key in keys if key in own]
    order = [own[key] for key in keys if key in own]
    order += [name for name in names if name not in order]
    slot = {key: index for index, key in enumerate(keys)}
    written = len(keys) - len([key for key in keys if key in own])
    slot.update((name, written + index) for index, name in enumerate(order))
    return (
        tuple(keys),
        slot,
        written + len(order),
        written,
        np.array([[_F[name]] for name in order], dtype=np.intp),
    )


def _extremes_spec(names: list[str]) -> tuple:
    """Per ``(ufunc, segments)``: its columns, each reduced once, and the features written.

    ``(ufunc, segments, keys, rows, features)``: the reduction's result has
    a row per column in ``keys``; ``features`` (a column) take its rows
    ``rows`` (all of them in order, a slice, unless two features share a
    column).
    """
    groups: dict[tuple, tuple[list[str], list[int], list[int]]] = {}
    for name in names:
        ufunc, key, segments = _REDUCTIONS[name]
        keys, rows, features = groups.setdefault((ufunc, segments), ([], [], []))
        if key not in keys:
            keys.append(key)
        rows.append(keys.index(key))
        features.append(_F[name])
    return tuple(
        (ufunc, segments, tuple(keys),
         slice(None) if rows == list(range(len(keys))) else np.array(rows, dtype=np.intp),
         np.array(features, dtype=np.intp)[:, None])
        for (ufunc, segments), (keys, rows, features) in groups.items()
    )


_SPECS = (_sums_spec, _extremes_spec, frozenset, frozenset)


class _WindowAggregator:
    """Window-local feature aggregation over structure-of-arrays packets.

    One ``fill`` call per window round evaluates the stateful features of
    every row over a batch of packet segments ``[s_i, e_i)`` (one per flow
    window, all non-empty), writing exactly the values the corresponding
    scalar :class:`~repro.features.stateful.StatefulOperator` bank would
    hold at the window's boundary packet.  The source is a ``PacketArrays``
    (flow-major) or a slot stream's
    :class:`~repro.dataplane.slot_stream.StreamSource` (stream order);
    either way a window's packets are one segment.  Every derived column is
    a function of the packets alone and lives once on ``soa.derived`` — the
    aggregator holds no per-replay state, so building one per call costs
    nothing.

    A round runs each kernel family once, over the rows whose subtrees read
    a feature derived from it, and the family derives its features for
    those rows (``_sums``, ``_extremes``, ``_iat``, ``_ends``: each
    ``(spec, out, rows, s, e)``, ``spec`` the family's work the round's
    layout worked out (:class:`_RoundLayout`) and ``out[feature, rows]``
    where the values go).
    """

    def __init__(self, soa: PacketArrays) -> None:
        self._soa = soa

    def _reducer(self, s: np.ndarray, e: np.ndarray):
        """``reduce(ufunc, keys)``: ``ufunc`` over every segment ``[s_i, e_i)`` of each column.

        The segments are all non-empty; the result has a row per column of
        ``keys``.  ``reduceat`` over the
        ``(s, e)`` pairs also reduces the stretches *between* segments,
        from the first segment's start to the last one's end.  Next to
        nothing when the segments tile their span (a whole-source replay
        round); for a few windows scattered over a large source it is the
        source, so scattered segments are gathered first — every column
        into one block, reduced at once — and the cost follows the packets,
        not the span.  Decided once for the segments, and shared by every
        column reduced over them.  A block of several columns is reduced
        along its rows: only max and min take several, and they are exact
        in any order.
        """
        lengths = e - s
        covered = lengths.cumsum()
        last = int(np.maximum.reduce(e))
        # A gathered packet costs about eight packets walked in place.
        if 8 * int(covered[-1]) >= last - int(np.minimum.reduce(s)):
            pairs = np.empty(s.size * 2, dtype=np.intp)
            pairs[0::2] = s
            pairs[1::2] = e

            def in_place(ufunc, keys):
                # The last index's stretch runs to the column's end: the
                # column is cut one past the last segment.
                result = np.empty((len(keys), s.size), dtype=np.float64)
                for row, key in enumerate(keys):
                    result[row] = ufunc.reduceat(
                        _padded_column(self._soa, key)[: last + 1], pairs
                    )[0::2]
                return result

            return in_place
        offsets = covered - lengths
        positions = np.arange(int(covered[-1])) + (s - offsets).repeat(lengths)

        def gathered(ufunc, keys):
            if len(keys) == 1:
                return ufunc.reduceat(_base_values(self._soa, keys[0])[positions], offsets)[None]
            values = np.empty((len(keys), positions.size), dtype=np.float64)
            for row, key in enumerate(keys):
                values[row] = _base_values(self._soa, key)[positions]
            return ufunc.reduceat(values, offsets, axis=1)

        return gathered

    # -- kernel families ---------------------------------------------------
    def _sums(self, spec: tuple, out: np.ndarray, rows, s, e) -> None:
        """Prefix-summed features: each column they read summed once, then each feature.

        Every column's prefix is read at both ends of every window (the gap
        column's one past the start) into one block and differenced at once;
        the features derived from the sums are worked out into the same
        block, which is written into ``out`` in one assignment.
        """
        keys, slot, n_slots, written, features = spec
        n_rows = s.size
        burst = "burst_count" in slot
        ends = np.concatenate((e, s, s + 1) if burst else (e, s))
        gathered = np.empty((len(keys), ends.size), dtype=np.float64)
        inexact = []
        for row, key in enumerate(keys):
            prefix = _prefix_column(self._soa, key)
            if prefix is None:
                inexact.append(row)
            else:
                gathered[row] = prefix[ends]
        block = np.empty((n_slots, n_rows), dtype=np.float64)
        np.subtract(gathered[:, :n_rows], gathered[:, n_rows : 2 * n_rows], out=block[: len(keys)])
        if inexact:
            reduce = self._reducer(s, e)
            for row in inexact:
                block[row] = reduce(np.add, keys[row : row + 1])[0]
        if burst:
            # The first packet opens a burst whatever precedes the window; a
            # 0/1 column's prefix sums are always exact.
            row = slot["gap"]
            np.subtract(gathered[row, :n_rows], gathered[row, 2 * n_rows :], out=block[row])
            block[row] += 1.0
        if "mean_pkt_len" in slot or "std_pkt_len" in slot or "mean_payload" in slot:
            length = np.subtract(e, s, dtype=np.float64)
            if "mean_pkt_len" in slot:
                np.divide(block[slot["sizes"]], length, out=block[slot["mean_pkt_len"]])
            if "std_pkt_len" in slot:
                _std(block[slot["sizes"]], block[slot["sizes_sq"]], length,
                     out=block[slot["std_pkt_len"]])
            if "mean_payload" in slot:
                np.divide(block[slot["payloads"]], length, out=block[slot["mean_payload"]])
        if "fwd_bwd_pkt_ratio" in slot:
            np.divide(block[slot["fwd"]], np.maximum(block[slot["bwd"]], 1.0),
                      out=block[slot["fwd_bwd_pkt_ratio"]])
        if "mean_fwd_pkt_len" in slot:
            block[slot["mean_fwd_pkt_len"]] = _mean_by(block[slot["fwd_sizes"]], block[slot["fwd"]])
        if "mean_bwd_pkt_len" in slot:
            block[slot["mean_bwd_pkt_len"]] = _mean_by(block[slot["bwd_sizes"]], block[slot["bwd"]])
        if "byte_rate" in slot:
            ts = self._soa.timestamps
            block[slot["byte_rate"]] = _rate(block[slot["sizes"]], ts[e - 1] - ts[s])
        if isinstance(rows, slice):
            out[features[:, 0]] = block[written:]
        else:
            out[features, rows] = block[written:]

    def _extremes(self, spec: tuple, out: np.ndarray, rows, s, e) -> None:
        """Max/min features: each reduction once over all its columns, its segments shared."""
        window = gaps = None
        for ufunc, segments, keys, key_rows, features in spec:
            if segments == "window":
                window = window or self._reducer(s, e)
                result = window(ufunc, keys)
            elif segments == "gaps":
                # The scalar operators see no inter-arrival time in a
                # one-packet window, and MaxOperator starts from 0.
                has_iat = (e - s) >= 2
                result = np.zeros((len(keys), s.size), dtype=np.float64)
                if np.count_nonzero(has_iat):
                    gaps = gaps or self._reducer(s[has_iat] + 1, e[has_iat])
                    extremes = gaps(ufunc, keys)
                    result[:, has_iat] = (
                        np.maximum(extremes, 0.0) if ufunc is np.maximum else extremes
                    )
            else:
                # The opening burst runs to the window's first gap; from there
                # on the source-wide run lengths are the window's own.
                first_gap = np.minimum(_next_gap(self._soa)[s + 1], e)
                result = (first_gap - s).astype(np.float64)[None]
                more = (first_gap < e).nonzero()[0]
                if more.size:
                    later = self._reducer(first_gap[more], e[more])(ufunc, keys)
                    result[:, more] = np.maximum(result[:, more], later)
            if isinstance(rows, slice):
                out[features[:, 0]] = result[key_rows]
            else:
                out[features, rows] = result[key_rows]

    def _iat(self, names: frozenset, out: np.ndarray, rows, s, e) -> None:
        """Mean/std inter-arrival time: one left-to-right sweep (:mod:`~repro.dataplane.kernels`)."""
        acc, acc_sq = iat_sequential_sums(
            _base_values(self._soa, "diffs"), s, e, squares="std_iat" in names
        )
        # A one-packet window has no gap, and its sums are exactly 0: so are
        # its mean and deviation.
        counts = np.maximum(e - s - 1, 1)
        if "mean_iat" in names:
            out[_F["mean_iat"], rows] = acc / counts
        if "std_iat" in names:
            out[_F["std_iat"], rows] = _std(acc, acc_sq, counts.astype(np.float64))

    def _ends(self, names: frozenset, out: np.ndarray, rows, s, e) -> None:
        """Features read at the window's first and last packet."""
        last = e - 1
        if "first_pkt_len" in names:
            out[_F["first_pkt_len"], rows] = _base_values(self._soa, "sizes")[s]
        if "last_pkt_len" in names:
            out[_F["last_pkt_len"], rows] = _base_values(self._soa, "sizes")[last]
        if "duration" in names or "pkt_rate" in names:
            ts = self._soa.timestamps
            span = ts[last] - ts[s]
            if "duration" in names:
                out[_F["duration"], rows] = span
            if "pkt_rate" in names:
                out[_F["pkt_rate"], rows] = _rate((e - s).astype(np.float64), span)

    _KERNELS = (_sums, _extremes, _iat, _ends)

    # -- public kernels ---------------------------------------------------
    def fill(
        self, matrix: np.ndarray, s: np.ndarray, e: np.ndarray, plan: FillPlan, sids: np.ndarray
    ) -> int:
        """Write one round's window aggregates into ``matrix``; returns the family passes run.

        ``s`` / ``e`` are the round's segment bounds and ``sids`` its rows'
        subtrees, one per row of ``matrix``.  Each kernel family some row's
        subtree needs (:meth:`FillPlan.layout`) runs once, over exactly
        those rows, and writes each of its features some row reads into all
        of them (``pkt_count``, of no family, into every row): a row's cell
        of a feature its subtree reads holds the window's value, a cell it
        does not read holds the value too or is not touched — the lookup
        never reads it.
        """
        codes, layout = plan.layout(sids)
        # ``out[feature, rows]``: the matrix, feature by feature.
        out = matrix.T
        if layout.count:
            out[_F["pkt_count"]] = e - s
        if layout.readers is not None:
            # Per group of families, which rows read it.
            member = layout.readers.take(codes, axis=1)
            selected: list = [None] * len(layout.readers)
        for family, spec, group in layout.passes:
            if group < 0:
                rows, fs, fe = slice(None), s, e
            elif selected[group] is not None:
                rows, fs, fe = selected[group]
            else:
                rows = member[group].nonzero()[0]
                rows, fs, fe = selected[group] = (rows, s[rows], e[rows])
            self._KERNELS[family](self, spec, out, rows, fs, fe)
        return len(layout.passes)

    def compute(self, feature_index: int, s: np.ndarray, e: np.ndarray) -> np.ndarray:
        """Window aggregate of one stateful feature over segments ``[s, e)``.

        The fill of a round whose every row reads this feature alone.

        Example::

            >>> agg = _WindowAggregator(soa)
            >>> byte_counts = agg.compute(FEATURES_BY_NAME["byte_count"].index, s, e)
        """
        if not FEATURES[feature_index].stateful:
            raise ValueError(f"no window kernel for header feature {FEATURES[feature_index].name!r}")
        matrix = np.empty((s.size, N_FEATURES), dtype=np.float64)
        self.fill(matrix, s, e, FillPlan({0: [feature_index]}), np.zeros(s.size, dtype=np.int64))
        return matrix[:, feature_index].copy()



#: Window end of a window a flow does not have.
NO_WINDOW = np.iinfo(np.int64).max


def window_ends(soa: PacketArrays, n_partitions: int) -> np.ndarray:
    """Per-flow window ends under ``n_partitions``, ``(n_partitions + 1, n_flows)`` (soa-cached).

    Window ``w`` of flow ``f`` covers its local packets ``[ends[w - 1, f],
    ends[w, f])`` (from 0 for ``w = 0``), ending where
    :func:`~repro.features.window.window_end` puts it.  A flow with fewer
    packets than partitions has empty windows after its last packet; an
    empty window ends at :data:`NO_WINDOW`, and so does the extra last
    row.  Window-major, so the ends of a set of flows are ``P + 1`` rows of
    one gather each.  A function of the packet counts and the partition
    count only (:func:`_window_end_table`).
    """
    key = ("window_ends", n_partitions)
    ends = soa.derived.get(key)
    if ends is None:
        ends = _window_end_table(soa.n_packets_per_flow, n_partitions)
        soa.derived[key] = ends
    return ends


def _window_end_table(counts: np.ndarray, n_partitions: int) -> np.ndarray:
    """:func:`window_ends` of flows of ``counts`` packets: ``ends[w, i]``.

    Window ``w`` is empty iff ``w >= n``: with fewer packets than
    partitions each packet is a window of its own.
    """
    counts = counts.astype(np.int64)
    windows = np.arange(n_partitions)[:, None]
    ends = np.full((n_partitions + 1, counts.size), NO_WINDOW, dtype=np.int64)
    ends[:-1] = np.where(windows < counts, window_end(windows, counts, n_partitions), NO_WINDOW)
    return ends


class WindowTable:
    """Every window of every flow of a source, each aggregated once: a serving session's features.

    On a flow alone in its register slot, window ``w`` always covers the
    flow's own packets ``[ends[w - 1], ends[w])`` (:func:`window_ends`), so
    its feature vector depends on the source, the flow, the window and the
    model only — never on when a flush closes it.  The micro-batch engine
    opens one table at its first flush and drops it with itself; its
    lockstep rounds then gather their rows here instead of filling them
    (:func:`close_ready_windows`).

    Window ``w``'s rows are built at the first round that reaches a window
    ``w``: one :meth:`_WindowAggregator.fill` over every flow with that
    window, of the stateful features the subtrees of that partition read
    (:meth:`FillPlan.merged`), with the header columns any subtree reads
    beside them: at most one fill per window index a session, each at the
    round that first needs it.  A row per window a flow has, flow-major, so the rows' first
    packets (``_starts``, known from the start) ascend; a column per feature
    some subtree reads.  A cell a window's subtrees do not read is left
    uninitialised, never read.  ``flows`` (flow indices; default every flow
    of the source) are the flows an engine can be handed: a ``sharded-mp``
    worker's are its shard's.

    Counts the table as ``dataplane.window_table.builds`` and its rows as
    ``dataplane.window_table.rows`` when opened, and each window's
    kernel-family passes as ``dataplane.window_table.passes`` when built
    (``dataplane.fill.passes`` counts the rounds').
    """

    __slots__ = (
        "_starts", "_columns", "_values", "_row_window", "_missing", "_soa", "_ends",
        "_counts", "_first", "_plans", "_reads", "_header", "_aggregator", "_counters",
    )

    def __init__(
        self, program, soa: PacketArrays, ends: np.ndarray, flows: np.ndarray | None = None
    ) -> None:
        n_partitions = ends.shape[0] - 1
        plan = program.fill_plan
        sids_of = [[] for _ in range(n_partitions)]
        for sid, subtree in program.model.subtrees.items():
            sids_of[subtree.partition].append(sid)
        self._plans = [plan.merged(np.array(sids, dtype=np.intp)) for sids in sids_of]
        # Per window, the stateful features its subtrees read.
        self._reads = [np.flatnonzero(window_plan._reads[0]) for window_plan in self._plans]
        header = np.array(plan.header_features, dtype=np.intp)
        self._columns = np.unique(np.concatenate([header, *self._reads]))
        self._header = [
            (self._columns.searchsorted(feature), column)
            for feature, column in plan.header_columns
        ]
        # A flow with fewer packets than partitions has a window per packet.
        counts = np.zeros(soa.n_flows, dtype=np.intp)
        served = slice(None) if flows is None else flows
        counts[served] = np.minimum(soa.n_packets_per_flow[served], n_partitions)
        self._counts = counts
        self._first = counts.cumsum() - counts
        n_rows = int(counts.sum())
        row_flow = np.repeat(np.arange(soa.n_flows), counts)
        self._row_window = np.arange(n_rows) - self._first[row_flow]
        self._starts = soa.flow_starts[row_flow] + np.where(
            self._row_window > 0, ends[np.maximum(self._row_window - 1, 0), row_flow], 0
        )
        self._values = np.empty((n_rows, self._columns.size), dtype=np.float64)
        # Windows some flow has, not built yet.
        self._missing = [window for window in range(n_partitions) if (counts > window).any()]
        self._soa, self._ends = soa, ends
        self._aggregator = _WindowAggregator(soa)
        self._counters = program.counters
        self._counters.add("dataplane.window_table.builds")
        self._counters.add("dataplane.window_table.rows", n_rows)

    def _build(self, window: int) -> None:
        """Aggregate window ``window`` of every flow that has one into its rows."""
        soa, ends = self._soa, self._ends
        window_plan, read = self._plans[window], self._reads[window]
        flows = np.flatnonzero(self._counts > window)
        base = soa.flow_starts[flows]
        s = base + ends[window - 1].take(flows) if window else base
        e = base + ends[window].take(flows)
        matrix = np.empty((flows.size, N_FEATURES), dtype=np.float64, order="F")
        passes = self._aggregator.fill(
            matrix, s, e, window_plan, np.zeros(flows.size, dtype=np.int64)
        )
        rows = self._first[flows] + window
        for column, name in self._header:
            self._values[rows, column] = getattr(soa, name)[flows]
        self._values[np.ix_(rows, self._columns.searchsorted(read))] = matrix[:, read]
        self._missing.remove(window)
        self._counters.add("dataplane.window_table.passes", passes)

    def fill(self, matrix: np.ndarray, s: np.ndarray, e: np.ndarray, plan, sids) -> int:
        """Gather the rows of the windows starting at ``s`` into ``matrix``; runs no family pass.

        A round's feature source, as :meth:`_WindowAggregator.fill` is:
        ``matrix`` gets every column the table holds, header columns
        included.  ``s`` must be window starts (a solo flow's windows, each
        closed whole); ``e``, ``plan`` and ``sids`` are the table's already.
        A window index no round reached before is built first.
        """
        rows = self._starts.searchsorted(s)
        if self._missing:
            windows = self._row_window.take(rows)
            for window in [w for w in self._missing if (windows == w).any()]:
                self._build(window)
        matrix[:, self._columns] = self._values.take(rows, axis=0)
        return 0


def _replay_scalar(
    program,
    flows: list[Flow],
    soa: PacketArrays,
    flow_mask: np.ndarray,
    prefix_counts: np.ndarray | None = None,
    *,
    slots: np.ndarray | None = None,
    stream=None,
    sizes: np.ndarray | None = None,
) -> None:
    """Reference semantics for the flows the batched planes cannot take alone.

    The entry point for every flow whose register slot is shared state
    ("scalar" is historical: it used to mean the per-packet interpreter for
    all of them).  The selected flows' packets take effect in global
    ``(timestamp, flow_id)`` order within each slot, so corruption, eviction
    and reclaim behave exactly as in the per-packet oracle: they replay on
    the slot-stream plane (:func:`repro.dataplane.slot_stream.replay_slot_stream`;
    ``slots``, ``stream`` and ``sizes`` are passed through).

    ``prefix_counts`` (per-flow, optional) restricts each flow to its first
    ``prefix_counts[i]`` packets while keeping the *full* flow size in the
    packet headers: the packets of a stream delivered so far.
    """
    from repro.dataplane.slot_stream import replay_slot_stream

    replay_slot_stream(
        program, soa, flow_mask, prefix_counts, slots=slots, stream=stream, sizes=sizes
    )


def _arrival_order(
    soa: PacketArrays,
    flow_mask: np.ndarray,
    prefix_counts: np.ndarray | None = None,
    start_counts: np.ndarray | None = None,
) -> np.ndarray:
    """Packet positions of the flows in ``flow_mask``, in global arrival order.

    ``prefix_counts`` keeps only each flow's first ``prefix_counts[i]``
    packets, ``start_counts`` drops its first ``start_counts[i]`` (per flow,
    both optional).  Only the selected packets are touched: they are sorted
    by the ``(timestamp, flow_id)`` key of ``soa.interleave_order`` (a stable
    sort of flow-major positions, so ties fall exactly as they do there).
    """
    selected = np.flatnonzero(flow_mask)
    counts = (soa.n_packets_per_flow if prefix_counts is None else prefix_counts)[selected]
    starts = soa.flow_starts[selected]
    if start_counts is not None:
        counts = counts - start_counts[selected]
        starts = starts + start_counts[selected]
    positions, _ = _segment_positions(starts, counts)
    order = np.lexsort((np.repeat(soa.flow_ids[selected], counts), soa.timestamps[positions]))
    return positions[order]


def _close_round(
    program,
    aggregator: "_WindowAggregator | WindowTable",
    matrix: np.ndarray,
    s: np.ndarray,
    e: np.ndarray,
    staging: list,
    *,
    sids: np.ndarray,
    flow_ids: np.ndarray,
    window_index: np.ndarray,
    boundary_ts: np.ndarray,
    first_packet_ts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate and classify one round of windows: the step both window planes share.

    Row ``i`` of ``matrix`` (its stateless header columns already written)
    closes the window over packets ``[s[i], e[i])`` of the aggregator's
    source, in subtree ``sids[i]``.  One fill writes every row's stateful
    features, each kernel family once over the rows that read it (the
    program's :class:`FillPlan`) — or, from a serving session's
    :class:`WindowTable`, one gather writes them and the header — and one
    :meth:`~repro.dataplane.splidt_program.SpliDTDataPlane.step_windows`
    call classifies all rows, appending the decided ones to ``staging``:
    the round's cost does not grow with the number of subtrees its rows are
    in.  Returns ``step_windows``' ``(advance, next_sids)``.

    Counts the round as ``dataplane.window_rounds``, its rows as
    ``dataplane.window_rows`` and its family passes as
    ``dataplane.fill.passes``.
    """
    passes = aggregator.fill(matrix, s, e, program.fill_plan, sids)
    counters = program.counters
    counters.add("dataplane.window_rounds")
    counters.add("dataplane.window_rows", s.size)
    counters.add("dataplane.fill.passes", passes)
    return program.step_windows(
        flow_ids=flow_ids,
        sids=sids,
        window_index=window_index,
        feature_matrix=matrix,
        boundary_ts=boundary_ts,
        first_packet_ts=first_packet_ts,
        staging=staging,
    )


def close_ready_windows(
    program,
    soa: PacketArrays,
    flows: np.ndarray,
    limits: np.ndarray,
    window: np.ndarray,
    done: np.ndarray,
    sids: np.ndarray,
    *,
    table: WindowTable | None = None,
) -> np.ndarray:
    """Close every window of ``flows`` that ends within its first ``limits`` packets.

    The flow-lockstep window plane.  Row ``i`` is the undecided flow
    ``flows[i]`` of ``soa``, alone in its register slot, at window
    ``window[i]`` of subtree ``sids[i]``, having taken its first ``done[i]``
    packets.  Rows advance in rounds, each at its own window index, and
    ``window``, ``done`` and ``sids`` advance in place; a row that decides
    has taken all its ``limits`` packets (the rest of a decided flow is
    forwarded).  All state is per row of the call.  Decided rows are
    recorded once, after the last round.  Returns which rows decided.

    A round fills its feature matrix from the packets, or, given the
    session's ``table`` (:class:`WindowTable`; every row then starts at a
    window start), gathers it from there.

    Counts the rows as ``dataplane.lockstep.flows``, the packets they take
    as ``dataplane.lockstep.packets`` and its window rounds as
    ``dataplane.lockstep.rounds``.
    """
    taken = int(done.sum())
    n_partitions = int(program.model.config.n_partitions)
    # Window ends per row of the call, ``ends[w, i]``: from the soa-wide table
    # where a caller keeps one (the micro-batch engine does), else built for
    # these flows alone, since a replay may bring a handful of a million
    # flows here.
    cached = soa.derived.get(("window_ends", n_partitions))
    if cached is not None:
        ends = cached.take(flows, axis=1)
    else:
        ends = _window_end_table(soa.n_packets_per_flow[flows], n_partitions)
    # Only the header columns some subtree reads are written: the lookup
    # reads no other.  The soa's own columns: a float64 matrix takes their
    # values exactly.  A table holds them already.
    if table is None:
        header, aggregator = program.fill_plan.header_columns, _WindowAggregator(soa)
    else:
        header, aggregator = (), table
    staging: list = []
    decided = np.zeros(flows.size, dtype=bool)
    rows = (ends[window, np.arange(flows.size)] <= limits).nonzero()[0]
    rounds = 0
    while rows.size:
        rounds += 1
        flow, at = flows[rows], window[rows]
        end = ends[at, rows]
        base = soa.flow_starts[flow]
        s, e = base + done[rows], base + end
        # Feature-major: the fill writes each feature's cells as one run.
        matrix = np.empty((rows.size, N_FEATURES), dtype=np.float64, order="F")
        for feature, column in header:
            matrix[:, feature] = getattr(soa, column)[flow]
        advance, values = _close_round(
            program,
            aggregator,
            matrix,
            s,
            e,
            staging,
            sids=sids[rows],
            flow_ids=soa.flow_ids[flow],
            window_index=at,
            boundary_ts=soa.timestamps[e - 1],
            first_packet_ts=soa.first_timestamps[flow],
        )
        done[rows] = np.where(advance, end, limits[rows])
        decided[rows] = ~advance
        rows = rows[advance]
        sids[rows] = values[advance]
        at = at[advance] + 1
        window[rows] = at
        rows = rows[ends[at, rows] <= limits[rows]]
    program.finalise_staged(staging)
    counters = program.counters
    counters.add("dataplane.lockstep.flows", int(flows.size))
    counters.add("dataplane.lockstep.packets", int(done.sum()) - taken)
    counters.add("dataplane.lockstep.rounds", rounds)
    return decided


def _replay_splidt_batched(
    program, soa: PacketArrays, fast: np.ndarray, slots: np.ndarray
) -> None:
    """Replay's entry into :func:`close_ready_windows`: every window of the clean flows ``fast``.

    Each flow starts on fresh registers in its own slot, at window 0 with no
    packet taken, and may take all its packets.
    """
    program.begin_flows(slots[fast])
    n_fast = fast.size
    close_ready_windows(
        program,
        soa,
        fast,
        soa.n_packets_per_flow[fast],
        np.zeros(n_fast, dtype=np.int64),
        np.zeros(n_fast, dtype=np.int64),
        np.full(n_fast, program.model.root_sid, dtype=np.int64),
    )


def _split_scalar_fast(
    soa: PacketArrays,
    slots: np.ndarray,
    indices: np.ndarray,
    forced: np.ndarray | None = None,
    min_packets: int = 1,
    tuple_ids: np.ndarray | None = None,
) -> np.ndarray:
    """Which of the flows ``indices`` share register state with another flow.

    Returns a boolean mask over ``indices``: True rows must replay with
    sequential per-slot semantics (:func:`_replay_scalar`), False rows are
    safe for the batched whole-flow planes.  One rule, by slot: a slot is
    safe when every flow in it meets a clean slot in the per-packet oracle —
    each has at least ``min_packets`` packets (for SpliDT: fewer than one
    per partition and the flow may exhaust its windows while recirculating
    and end *undecided*, leaving live state the next flow inherits), none is
    ``forced`` by the caller (buffered prefix, held slot state, spoofed flow
    size), and they follow one another: each starts strictly after its
    predecessor's last packet (so after its verdict) under a different
    five-tuple (so it reclaims the slot; the per-packet oracle treats a
    decided flow's retransmitted tuple as the same flow).  In every other
    slot the flows share sequential register state, and all of them go
    scalar.

    ``tuple_ids`` may be omitted when the caller has already forced every
    slot that repeats a five-tuple.
    """
    order = np.lexsort((soa.first_timestamps[indices], slots[indices]))
    ordered = indices[order]
    unsafe = soa.n_packets_per_flow[ordered] < min_packets
    if forced is not None:
        unsafe |= forced[order]
    same_slot = slots[ordered][1:] == slots[ordered][:-1]
    overlap = soa.first_timestamps[ordered][1:] <= _last_timestamps(soa)[ordered][:-1]
    if tuple_ids is not None:
        overlap |= tuple_ids[ordered][1:] == tuple_ids[ordered][:-1]
    unsafe[1:] |= same_slot & overlap
    # Spread each slot's verdict over its run of the sorted flows.
    run = np.zeros(ordered.size, dtype=np.intp)
    np.cumsum(~same_slot, out=run[1:])
    scalar = np.empty(indices.size, dtype=bool)
    scalar[order] = (np.bincount(run, weights=unsafe) > 0)[run]
    return scalar


def _route_splidt(
    program,
    soa: PacketArrays,
    slots: np.ndarray,
    populated: np.ndarray,
    forced: np.ndarray | None = None,
):
    """``(lockstep flow indices, slot-stream flow mask, slot stream)`` of one replay.

    A pure function of the traffic, the table size and the partition count
    while the program holds no slot state and nothing is ``forced``, so it is
    cached on ``soa.derived``, and with it what replays derive from the
    stream (its next-event columns, its packets in stream order).  Flows
    ``forced`` by the caller (a mask over ``populated``) and slots the
    program already holds state for
    (:meth:`~repro.dataplane.splidt_program.SpliDTDataPlane.held_state`) go
    to the slot-stream plane, uncached.
    """
    from repro.dataplane.slot_stream import build_slot_stream

    n_partitions = int(program.model.config.n_partitions)
    table_size = program.indexer.table_size
    key = ("slot_route", table_size, n_partitions)
    held = program.held_state()
    if held is not None:
        on_held = np.isin(slots[populated], held.slots)
        forced = on_held if forced is None else forced | on_held
    if forced is None and key in soa.derived:
        return soa.derived[key]
    contended = _split_scalar_fast(
        soa, slots, populated, forced, n_partitions, cached_tuple_ids(soa, table_size)
    )
    mask = np.zeros(soa.n_flows, dtype=bool)
    mask[populated[contended]] = True
    stream = build_slot_stream(soa, slots, mask) if contended.any() else None
    route = (populated[~contended], mask, stream)
    if forced is None:
        soa.derived[key] = route
    return route


def replay_arrays(
    program,
    flows: list[Flow],
    soa: PacketArrays | None = None,
    sizes: np.ndarray | None = None,
) -> None:
    """Replay ``flows`` through ``program`` using the batched engine.

    Populates ``program.verdicts``, the controller digests and the
    recirculation counters exactly as the per-packet reference loop would.
    Flows are routed by slot (:func:`_split_scalar_fast`): a flow that meets
    a clean slot advances in flow-lockstep window rounds
    (:func:`close_ready_windows`), every shared slot goes
    through :func:`_replay_scalar` to the slot-stream plane
    (:mod:`repro.dataplane.slot_stream`), which carries on from whatever
    slot state the program already holds.

    ``sizes`` is the flow size each flow's packets advertise in their
    headers (per flow; default its packet count).  A flow advertising any
    other size — a spoofed flow-size field — replays on the slot-stream
    plane, whose window boundaries follow the header.

    What the call counted is ``program.replay_stats``.

    Example::

        >>> from repro.dataplane.vectorized import replay_arrays
        >>> replay_arrays(program, dataset.flows)
        >>> verdicts = program.verdicts
    """
    from repro.dataplane.splidt_program import SlotHandover

    if soa is None:
        soa = PacketArrays.from_flows(flows)
    before = program.counters.snapshot()
    populated = np.flatnonzero(soa.n_packets_per_flow > 0)
    if populated.size:
        spoofed = None
        if sizes is not None:
            sizes = np.asarray(sizes)
            spoofed = sizes[populated] != soa.n_packets_per_flow[populated]
        slots = cached_flow_slots(soa, program.indexer.table_size)
        fast, shared, stream = _route_splidt(program, soa, slots, populated, spoofed)
        if shared.any():
            _replay_scalar(program, flows, soa, shared, slots=slots, stream=stream, sizes=sizes)
        if fast.size:
            _replay_splidt_batched(program, soa, fast, slots)
            # These flows met a clean slot and decided in it: terminal rows.
            program.hand_over(
                SlotHandover.of_flows(soa, fast, slots[fast], soa.first_timestamps[fast])
            )
    program._replay_span = (before, program.counters.snapshot())
