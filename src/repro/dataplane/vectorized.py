"""Fused, allocation-free vectorized replay engine for the data-plane programs.

The reference engine in :mod:`repro.dataplane.runtime` interprets one packet
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

The fast path is *fused and allocation-free*: a :class:`ReplayWorkspace`
(owned by the engine, reused across rounds and replays) preallocates every
per-round buffer — the feature matrix, gather indices, boundary timestamps,
IAT accumulators and the digest staging list — and the round loop fills
views of those buffers with ``np.take(..., out=...)`` sweeps.  Columns
derived from the packet arrays (padded feature columns, exact prefix sums,
register slots) are cached on ``PacketArrays.derived`` and shared by every
replay of the same traffic.  Flows advance in lock-step window rounds
through ``SpliDTDataPlane.step_windows``, which receives the round's subtree
grouping and the workspace's staging list, so grouping happens once per
round and decided rows are recorded, as column blocks, once per replay.

Engine contract (asserted by ``tests/test_dataplane_vectorized.py`` and
``tests/test_parity_fuzz.py``): for any dataset,
``replay_dataset(..., engine="vectorized")`` produces verdicts, labels,
time-to-detection values, digests and recirculation statistics bit-identical
to ``engine="reference"``.

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

from repro.core.range_marking import group_by_sid
from repro.dataplane.kernels import iat_sequential_sums
from repro.dataplane.splidt_program import SlotHandover
from repro.datasets.flows import Flow, PacketArrays
from repro.features.definitions import FEATURES, FEATURES_BY_NAME, N_FEATURES
from repro.features.flowmeter import (
    BURST_GAP_SECONDS,
    LARGE_PACKET_BYTES,
    SMALL_PACKET_BYTES,
)
from repro.switch.hashing import flow_slots
from repro.switch.phv import make_data_phv

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
def _base_values(soa: PacketArrays, key: str) -> np.ndarray:
    """Unpadded per-packet values of a derived column (soa-cached)."""
    cached = soa.derived.get(("col", key))
    if cached is not None:
        return cached
    if key == "sizes":
        values = soa.sizes
    elif key == "payloads":
        values = soa.payloads
    elif key == "sizes_sq":
        values = soa.sizes * soa.sizes
    elif key == "fwd":
        values = (soa.directions > 0).astype(np.float64)
    elif key == "bwd":
        values = (soa.directions < 0).astype(np.float64)
    elif key == "fwd_sizes":
        values = np.where(soa.directions > 0, soa.sizes, 0.0)
    elif key == "bwd_sizes":
        values = np.where(soa.directions < 0, soa.sizes, 0.0)
    elif key == "small":
        values = (soa.sizes < SMALL_PACKET_BYTES).astype(np.float64)
    elif key == "large":
        values = (soa.sizes > LARGE_PACKET_BYTES).astype(np.float64)
    elif key in _FLAG_FEATURES:
        values = ((soa.flags & _FLAG_FEATURES[key]) != 0).astype(np.float64)
    elif key == "diffs":
        values = np.zeros(soa.n_packets, dtype=np.float64)
        if soa.n_packets > 1:
            values[1:] = soa.timestamps[1:] - soa.timestamps[:-1]
    elif key == "gap":
        values = (_base_values(soa, "diffs") > BURST_GAP_SECONDS).astype(np.float64)
    elif key == "burst_run":
        # Packets in the burst ending at each position, bursts split at the
        # gaps only: exact for every position at or after a window's first gap.
        positions = np.arange(soa.n_packets, dtype=np.int64)
        burst_start = np.where(_base_values(soa, "gap") > 0.0, positions, 0)
        values = (positions - np.maximum.accumulate(burst_start) + 1).astype(np.float64)
    else:
        raise KeyError(key)
    soa.derived[("col", key)] = values
    return values


def _pad_with_identity(values: np.ndarray) -> np.ndarray:
    """Append one identity element so a segment end may equal ``n_packets``."""
    padded = np.empty(values.size + 1, dtype=np.float64)
    padded[:-1] = values
    padded[-1] = 0.0
    return padded


def _padded_column(soa: PacketArrays, key: str) -> np.ndarray:
    cached = soa.derived.get(("pad", key))
    if cached is None:
        cached = _pad_with_identity(_base_values(soa, key))
        soa.derived[("pad", key)] = cached
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

    A property of the column, so a gathered view of a source inherits the
    source's answer (:func:`repro.dataplane.slot_stream._packet_view`)
    instead of re-deriving it from its own packets every round.
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
    marker = ("prefix", key)
    if marker in soa.derived:
        return soa.derived[marker]
    source = _PREFIX_SOURCE.get(key)
    prefix = None
    if source is None or whole_valued(soa, source):
        prefix = _exact_prefix(_base_values(soa, key))
    soa.derived[marker] = prefix
    return prefix


def _segment_positions(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the segments ``[starts_i, starts_i + lengths_i)``, concatenated.

    Also returns each segment's offset into that concatenation.
    """
    offsets = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum())) + np.repeat(starts - offsets, lengths), offsets


def _stateless_columns(soa: PacketArrays) -> dict[int, np.ndarray]:
    """Per-flow values of the four stateless header features (soa-cached)."""
    cached = soa.derived.get("stateless")
    if cached is None:
        cached = {
            FEATURES_BY_NAME["src_port"].index: soa.src_ports.astype(np.float64),
            FEATURES_BY_NAME["dst_port"].index: soa.dst_ports.astype(np.float64),
            FEATURES_BY_NAME["protocol"].index: soa.protocols.astype(np.float64),
            FEATURES_BY_NAME["pkt_len_first"].index: soa.first_sizes,
        }
        soa.derived["stateless"] = cached
    return cached


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
        gaps = np.flatnonzero(_base_values(soa, "gap"))
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


class _WindowAggregator:
    """Window-local feature aggregation over structure-of-arrays packets.

    Each ``fill`` call evaluates one subtree group's stateful features over a
    batch of packet segments ``[s_i, e_i)`` (one per flow window, all
    non-empty), writing exactly the values the corresponding scalar
    :class:`~repro.features.stateful.StatefulOperator` bank would hold at the
    window's boundary packet.  Every derived column is a function of the
    packets alone and lives once on ``soa.derived`` — the aggregator holds no
    per-replay state, so building one per flush costs nothing.
    Intermediates (segment sums, the sequential IAT sweep) are shared across
    a group's features, and the optional workspace supplies the IAT
    accumulator buffers so the hot path allocates only group-sized
    temporaries.
    """

    def __init__(self, soa: PacketArrays, workspace: "ReplayWorkspace | None" = None) -> None:
        self._soa = soa
        self._workspace = workspace

    # -- segment primitives ----------------------------------------------
    def _seg_reduce(self, ufunc, key: str, s: np.ndarray, e: np.ndarray) -> np.ndarray:
        """``ufunc`` over every segment ``[s_i, e_i)`` (all non-empty) of a column.

        ``reduceat`` over the ``(s, e)`` pairs also reduces the stretches
        *between* segments.  Next to nothing when the segments tile their
        span (a whole-source replay round); for a micro-batch flush out of a
        large source it is the source, so scattered segments are gathered
        first and the cost follows the packets, not the span.
        """
        lengths = e - s
        covered = int(lengths.sum())
        # A gathered packet costs about eight packets walked in place.
        if 8 * covered >= int(e.max()) - int(s.min()):
            pairs = np.empty(s.size * 2, dtype=np.intp)
            pairs[0::2] = s
            pairs[1::2] = e
            return ufunc.reduceat(_padded_column(self._soa, key), pairs)[0::2]
        positions, offsets = _segment_positions(s, lengths)
        return ufunc.reduceat(_base_values(self._soa, key)[positions], offsets)

    def _seg_sum(self, key: str, s: np.ndarray, e: np.ndarray, shared: dict) -> np.ndarray:
        cached = shared.get(("sum", key))
        if cached is not None:
            return cached
        prefix = _prefix_column(self._soa, key)
        if prefix is not None:
            result = prefix[e] - prefix[s]
        else:
            result = self._seg_reduce(np.add, key, s, e)
        shared[("sum", key)] = result
        return result

    def _iat_extreme(self, s: np.ndarray, e: np.ndarray, *, largest: bool) -> np.ndarray:
        """Max/min inter-arrival time within each segment (0 when < 2 packets)."""
        result = np.zeros(s.size, dtype=np.float64)
        has_iat = (e - s) >= 2
        if not has_iat.any():
            return result
        ufunc = np.maximum if largest else np.minimum
        extremes = self._seg_reduce(ufunc, "diffs", s[has_iat] + 1, e[has_iat])
        if largest:
            # The scalar MaxOperator starts from 0, so negative gaps clamp.
            extremes = np.maximum(extremes, 0.0)
        result[has_iat] = extremes
        return result

    def _iat_sums(
        self, s: np.ndarray, e: np.ndarray, shared: dict
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Left-to-right IAT sum / sum-of-squares per segment (shared per group)."""
        cached = shared.get("iat")
        if cached is not None:
            return cached
        workspace = self._workspace
        acc, acc_sq = iat_sequential_sums(
            _base_values(self._soa, "diffs"),
            s,
            e,
            workspace.iat_acc if workspace is not None else None,
            workspace.iat_sq if workspace is not None else None,
        )
        counts = (e - s - 1).astype(np.int64)
        result = (acc, acc_sq, counts)
        shared["iat"] = result
        return result

    # -- public kernels ---------------------------------------------------
    def fill(
        self,
        matrix: np.ndarray,
        rows: np.ndarray,
        features: list[int],
        s: np.ndarray,
        e: np.ndarray,
    ) -> None:
        """Write the window aggregates of ``features`` into ``matrix[rows]``.

        ``s`` / ``e`` are the group's segment bounds (aligned with ``rows``).
        Intermediates are shared across the feature list, so e.g.
        ``mean_iat`` and ``std_iat`` run the sequential sweep once.
        """
        shared: dict = {}
        for feature in features:
            matrix[rows, feature] = self._compute(feature, s, e, shared)

    def compute(self, feature_index: int, s: np.ndarray, e: np.ndarray) -> np.ndarray:
        """Window aggregate of one stateful feature over segments ``[s, e)``.

        Example::

            >>> agg = _WindowAggregator(soa)
            >>> byte_counts = agg.compute(FEATURES_BY_NAME["byte_count"].index, s, e)
        """
        return self._compute(feature_index, s, e, {})

    def _compute(
        self, feature_index: int, s: np.ndarray, e: np.ndarray, shared: dict
    ) -> np.ndarray:
        name = FEATURES[feature_index].name
        ts = self._soa.timestamps
        length = shared.get("length")
        if length is None:
            length = (e - s).astype(np.float64)
            shared["length"] = length

        if name == "pkt_count":
            return length
        if name == "byte_count":
            return self._seg_sum("sizes", s, e, shared)
        if name == "payload_sum":
            return self._seg_sum("payloads", s, e, shared)
        if name == "fwd_byte_count":
            return self._seg_sum("fwd_sizes", s, e, shared)
        if name == "bwd_byte_count":
            return self._seg_sum("bwd_sizes", s, e, shared)
        if name == "fwd_pkt_count":
            return self._seg_sum("fwd", s, e, shared)
        if name == "bwd_pkt_count":
            return self._seg_sum("bwd", s, e, shared)
        if name == "small_pkt_count":
            return self._seg_sum("small", s, e, shared)
        if name == "large_pkt_count":
            return self._seg_sum("large", s, e, shared)
        if name in _FLAG_FEATURES:
            return self._seg_sum(name, s, e, shared)
        if name == "mean_pkt_len":
            return self._seg_sum("sizes", s, e, shared) / length
        if name == "mean_payload":
            return self._seg_sum("payloads", s, e, shared) / length
        if name == "std_pkt_len":
            total = self._seg_sum("sizes", s, e, shared)
            total_sq = self._seg_sum("sizes_sq", s, e, shared)
            mean = total / length
            variance = np.maximum(total_sq / length - mean * mean, 0.0)
            return np.sqrt(variance)
        if name in ("mean_fwd_pkt_len", "mean_bwd_pkt_len"):
            direction = "fwd" if name == "mean_fwd_pkt_len" else "bwd"
            count = self._seg_sum(direction, s, e, shared)
            total = self._seg_sum(f"{direction}_sizes", s, e, shared)
            return np.where(count > 0, total / np.maximum(count, 1.0), 0.0)
        if name == "fwd_bwd_pkt_ratio":
            fwd = self._seg_sum("fwd", s, e, shared)
            bwd = self._seg_sum("bwd", s, e, shared)
            return fwd / np.maximum(bwd, 1.0)
        if name == "max_pkt_len":
            return self._seg_reduce(np.maximum, "sizes", s, e)
        if name == "max_fwd_pkt_len":
            return self._seg_reduce(np.maximum, "fwd_sizes", s, e)
        if name == "max_bwd_pkt_len":
            return self._seg_reduce(np.maximum, "bwd_sizes", s, e)
        if name == "min_pkt_len":
            return self._seg_reduce(np.minimum, "sizes", s, e)
        if name == "first_pkt_len":
            return self._soa.sizes[s]
        if name == "last_pkt_len":
            return self._soa.sizes[e - 1]
        if name == "duration":
            return ts[e - 1] - ts[s]
        if name in ("pkt_rate", "byte_rate"):
            total = length if name == "pkt_rate" else self._seg_sum("sizes", s, e, shared)
            span = ts[e - 1] - ts[s]
            rate = np.zeros(s.size, dtype=np.float64)
            np.divide(total, span, out=rate, where=span > 0)
            return rate
        if name in ("max_iat", "idle_max"):
            return self._iat_extreme(s, e, largest=True)
        if name == "min_iat":
            return self._iat_extreme(s, e, largest=False)
        if name == "mean_iat":
            acc, _, counts = self._iat_sums(s, e, shared)
            return np.where(counts > 0, acc / np.maximum(counts, 1), 0.0)
        if name == "std_iat":
            acc, acc_sq, counts = self._iat_sums(s, e, shared)
            safe_counts = np.maximum(counts, 1).astype(np.float64)
            mean = acc / safe_counts
            variance = np.maximum(acc_sq / safe_counts - mean * mean, 0.0)
            return np.where(counts > 0, np.sqrt(variance), 0.0)
        if name == "burst_count":
            # The first packet opens a burst whatever precedes the window; a
            # 0/1 column's prefix sums are always exact.
            gaps_before = _prefix_column(self._soa, "gap")
            return 1.0 + (gaps_before[e] - gaps_before[s + 1])
        if name == "max_burst_len":
            # The opening burst runs to the window's first gap; from there on
            # the source-wide run lengths are the window's own.
            first_gap = np.minimum(_next_gap(self._soa)[s + 1], e)
            longest = (first_gap - s).astype(np.float64)
            more = np.flatnonzero(first_gap < e)
            if more.size:
                later = self._seg_reduce(np.maximum, "burst_run", first_gap[more], e[more])
                longest[more] = np.maximum(longest[more], later)
            return longest
        raise ValueError(f"no vectorized kernel for feature {name!r}")


class ReplayWorkspace:
    """Preallocated per-round buffers for the fused window plane.

    One workspace is owned by each engine (``MicroBatchEngine`` instance or
    ``replay_arrays`` caller) and reused across window rounds *and* replays:
    buffers grow monotonically to the largest flush seen and the round loop
    works on length-``n_live`` views, so the steady state allocates no
    buffers.  Holds:

    * the ``(capacity, N_FEATURES)`` feature matrix,
    * gather-index and per-row column buffers (segment bounds, flow ids,
      boundary/first timestamps, live-set indices),
    * the IAT accumulator pair used by the sequential-sweep kernel, and
    * the digest ``staged`` list ``step_windows`` appends decided rows to.

    A workspace carries no replay results — only scratch storage — so reusing
    it across replays (or binding it to a different packet source) cannot
    leak state between replays; ``tests/test_replay_workspace.py`` pins both
    properties.
    """

    def __init__(self) -> None:
        self.flow_capacity = 0
        self.staged: list = []
        self.matrix = np.empty((0, N_FEATURES), dtype=np.float64)
        self.sids = np.empty(0, dtype=np.int64)
        self.round_sids = np.empty(0, dtype=np.int64)
        self.live = np.empty(0, dtype=np.intp)
        self.iota = np.empty(0, dtype=np.intp)
        self.fast_live = np.empty(0, dtype=np.intp)
        self.seg_start = np.empty(0, dtype=np.intp)
        self.seg_end = np.empty(0, dtype=np.intp)
        self.scratch_idx = np.empty(0, dtype=np.intp)
        self.flow_ids = np.empty(0, dtype=np.int64)
        self.boundary_ts = np.empty(0, dtype=np.float64)
        self.first_ts = np.empty(0, dtype=np.float64)
        self.iat_acc = np.empty(0, dtype=np.float64)
        self.iat_sq = np.empty(0, dtype=np.float64)

    def reserve(self, n_flows: int) -> None:
        """Grow the buffers to hold ``n_flows`` rows.

        Growth is monotone (never shrinks), so after the first flush of the
        steady state every ``reserve`` is a no-op and all views handed out
        alias the same arrays.
        """
        if n_flows > self.flow_capacity:
            self.flow_capacity = n_flows
            self.matrix = np.empty((n_flows, N_FEATURES), dtype=np.float64)
            self.sids = np.empty(n_flows, dtype=np.int64)
            self.round_sids = np.empty(n_flows, dtype=np.int64)
            self.live = np.empty(n_flows, dtype=np.intp)
            self.iota = np.arange(n_flows, dtype=np.intp)
            self.fast_live = np.empty(n_flows, dtype=np.intp)
            self.seg_start = np.empty(n_flows, dtype=np.intp)
            self.seg_end = np.empty(n_flows, dtype=np.intp)
            self.scratch_idx = np.empty(n_flows, dtype=np.intp)
            self.flow_ids = np.empty(n_flows, dtype=np.int64)
            self.boundary_ts = np.empty(n_flows, dtype=np.float64)
            self.first_ts = np.empty(n_flows, dtype=np.float64)
            self.iat_acc = np.empty(n_flows, dtype=np.float64)
            self.iat_sq = np.empty(n_flows, dtype=np.float64)


def _segment_rounds(
    counts: np.ndarray, n_partitions: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-round window segments for every flow (local packet offsets).

    Returns one ``(valid, start, end)`` triple per round ``w``; a flow's
    window ``w`` covers local packets ``[start, end)`` when ``valid`` is
    True.  Reproduces the reference boundary rule exactly: the boundary
    fires at ``max(window_boundaries(n, P)[min(w, P-1)], pos + 1)`` packets,
    capped at the flow size.
    """
    counts = counts.astype(np.int64)
    base = counts // n_partitions
    remainder = counts % n_partitions
    position = np.zeros(counts.size, dtype=np.int64)
    rounds = []
    for w in range(n_partitions):
        boundary = (w + 1) * base + np.minimum(w + 1, remainder)
        valid = position < counts
        trigger = np.minimum(np.maximum(boundary, position + 1), counts)
        rounds.append((valid, position.copy(), trigger.copy()))
        position = np.where(valid, trigger, position)
    return rounds


#: Window end of a window a flow does not have.
NO_WINDOW = np.iinfo(np.int64).max


def window_ends(soa: PacketArrays, n_partitions: int) -> np.ndarray:
    """Per-flow window ends under ``n_partitions``, ``(n_flows, n_partitions + 1)`` (soa-cached).

    Window ``w`` of flow ``f`` covers its local packets ``[ends[f, w - 1],
    ends[f, w])`` (from 0 for ``w = 0``), exactly the segments of
    :func:`_segment_rounds`; a window the flow does not have ends at
    :data:`NO_WINDOW`, and so does the extra last column.  A function of the
    packet counts and the partition count only.
    """
    key = ("window_ends", n_partitions)
    ends = soa.derived.get(key)
    if ends is None:
        counts = soa.n_packets_per_flow
        ends = np.full((counts.size, n_partitions + 1), NO_WINDOW, dtype=np.int64)
        for w, (valid, _, end) in enumerate(_segment_rounds(counts, n_partitions)):
            ends[valid, w] = end[valid]
        soa.derived[key] = ends
    return ends


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
) -> dict:
    """Reference semantics for the flows the batched planes cannot take alone.

    The entry point for every flow whose register slot is shared state
    ("scalar" is historical: it used to mean the per-packet interpreter for
    all of them).  The selected flows' packets take effect in global
    ``(timestamp, flow_id)`` order within each slot, so corruption, eviction
    and reclaim behave exactly as in the reference engine: they replay on
    the slot-stream plane (:func:`repro.dataplane.slot_stream.replay_slot_stream`,
    whose accounting is returned; ``slots``, ``stream`` and ``sizes`` are
    passed through).

    ``prefix_counts`` (per-flow, optional) restricts each flow to its first
    ``prefix_counts[i]`` packets while keeping the *full* flow size in the
    packet headers: the packets of a stream delivered so far.
    """
    from repro.dataplane.slot_stream import replay_slot_stream

    return replay_slot_stream(
        program, flows, soa, flow_mask, prefix_counts, slots=slots, stream=stream, sizes=sizes
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


def _replay_positions(
    program, flows: list[Flow], soa: PacketArrays, positions, sizes=None
) -> None:
    """Feed the packets at ``positions`` to ``program.process_packet``, in order.

    The oracle's one feed: the reference engine
    (:class:`~repro.serve.StreamingEngine`) comes through here, and tests
    replay against it.  ``positions`` index the flow-major packet columns.
    Packet headers carry ``sizes[flow]`` as the flow size — by default the
    *full* flow size, whatever subset of a flow is replayed.
    """
    flow_starts = soa.flow_starts
    if sizes is None:
        sizes = soa.n_packets_per_flow
    packet_flow = soa.packet_flow
    process_packet = program.process_packet
    for position in positions:
        flow_index = int(packet_flow[position])
        flow = flows[flow_index]
        packet = flow.packets[int(position - flow_starts[flow_index])]
        process_packet(
            make_data_phv(flow.five_tuple, packet), flow.flow_id, int(sizes[flow_index])
        )


def _replay_splidt_batched(
    program,
    soa: PacketArrays,
    fast: np.ndarray,
    slots: np.ndarray,
    workspace: ReplayWorkspace | None = None,
) -> None:
    """Fused lock-step window rounds for all non-colliding flows of a SpliDT program.

    One pass per round: the live set is compacted in place, segment bounds
    and per-row columns are gathered into workspace views with
    ``np.take(..., out=...)``, the subtree grouping is computed once and
    shared with :meth:`~repro.dataplane.splidt_program.SpliDTDataPlane.step_windows`,
    and decided rows are staged — recorded as verdict and digest columns once
    at the end of the replay.
    """
    ws = workspace if workspace is not None else ReplayWorkspace()
    n_fast = fast.size
    n_partitions = program.model.config.n_partitions
    counts = soa.n_packets_per_flow[fast]
    rounds = _segment_rounds(counts, n_partitions)
    ws.reserve(n_fast)
    aggregator = _WindowAggregator(soa, workspace=ws)
    stateless = _stateless_columns(soa)

    program.begin_flows(slots[fast])

    sids_all = ws.sids[:n_fast]
    sids_all[:] = program.model.root_sid
    ws.live[:n_fast] = ws.iota[:n_fast]
    n_live = n_fast
    staging = ws.staged
    staging.clear()
    flow_starts = soa.flow_starts
    timestamps = soa.timestamps
    for w, (valid, start, end) in enumerate(rounds):
        if n_live == 0:
            break
        live = ws.live[:n_live]
        keep = valid[live]
        if not keep.all():
            kept = live[keep]
            n_live = kept.size
            if n_live == 0:
                break
            ws.live[:n_live] = kept
            live = ws.live[:n_live]

        # Segment bounds of every live flow's current window (global packet
        # indices), gathered into reusable views.
        fast_live = ws.fast_live[:n_live]
        np.take(fast, live, out=fast_live)
        base = ws.scratch_idx[:n_live]
        np.take(flow_starts, fast_live, out=base)
        s = ws.seg_start[:n_live]
        np.take(start, live, out=s)
        s += base
        e = ws.seg_end[:n_live]
        np.take(end, live, out=e)
        e += base

        matrix = ws.matrix[:n_live]
        for feature, column in stateless.items():
            matrix[:, feature] = column[fast_live]

        # One grouping per round, shared between aggregation and step_windows.
        round_sids = ws.round_sids[:n_live]
        np.take(sids_all, live, out=round_sids)
        groups = list(group_by_sid(round_sids))
        for sid, rows in groups:
            features = program.subtree_stateful_features(sid)
            if features:
                aggregator.fill(matrix, rows, features, s[rows], e[rows])

        flow_ids = ws.flow_ids[:n_live]
        np.take(soa.flow_ids, fast_live, out=flow_ids)
        np.subtract(e, 1, out=base)  # base now holds each boundary packet index
        boundary_ts = ws.boundary_ts[:n_live]
        np.take(timestamps, base, out=boundary_ts)
        first_ts = ws.first_ts[:n_live]
        np.take(soa.first_timestamps, fast_live, out=first_ts)

        advance, values = program.step_windows(
            flow_ids=flow_ids,
            sids=round_sids,
            window_index=w,
            feature_matrix=matrix,
            boundary_ts=boundary_ts,
            first_packet_ts=first_ts,
            groups=groups,
            staging=staging,
        )
        advancing = live[advance]
        if advancing.size:
            sids_all[advancing] = values[advance]
        n_live = advancing.size
        ws.live[:n_live] = advancing
    program.finalise_staged(staging)


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
    safe when every flow in it meets a clean slot in the reference engine —
    each has at least ``min_packets`` packets (for SpliDT: fewer than one
    per partition and the flow may exhaust its windows while recirculating
    and end *undecided*, leaving live state the next flow inherits), none is
    ``forced`` by the caller (buffered prefix, held slot state, spoofed flow
    size), and they follow one another: each starts strictly after its
    predecessor's last packet (so after its verdict) under a different
    five-tuple (so it reclaims the slot; the reference engine treats a
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
    cached on ``soa.derived`` (integer columns only).  Flows ``forced`` by
    the caller (a mask over ``populated``) and slots the program already
    holds state for (:meth:`~repro.dataplane.splidt_program.SpliDTDataPlane.held_state`)
    go to the slot-stream plane, uncached.
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
    workspace: ReplayWorkspace | None = None,
    sizes: np.ndarray | None = None,
) -> None:
    """Replay ``flows`` through ``program`` using the batched engine.

    Populates ``program.verdicts``, the controller digests and the
    recirculation counters exactly as the per-packet reference loop would.
    Flows are routed by slot (:func:`_split_scalar_fast`): a flow that meets
    a clean slot advances in fused flow-lockstep window rounds (reusing
    ``workspace`` buffers when one is passed), every shared slot goes
    through :func:`_replay_scalar` to the slot-stream plane
    (:mod:`repro.dataplane.slot_stream`), which carries on from whatever
    slot state the program already holds.

    ``sizes`` is the flow size each flow's packets advertise in their
    headers (per flow; default its packet count).  A flow advertising any
    other size — a spoofed flow-size field — replays on the slot-stream
    plane, whose window boundaries follow the header.

    Leaves ``program.replay_stats``: flows and packets per plane
    (``batched`` / ``slot_stream`` — every packet replayed is counted under
    exactly one), the number of slot-stream event rounds, ``event_search``
    (window-boundary searches the slot-stream plane resolved by ``lookup``
    in its next-event columns or handed to a packet ``scan``), and ``deferred``:
    the slot state the planes recorded instead of installing
    (:class:`~repro.dataplane.splidt_program.SlotHandover`) — ``slots``
    rows, of which ``open_windows`` hold ``packets`` to feed to their
    operators — which a later call resumes from.

    Example::

        >>> from repro.dataplane.vectorized import replay_arrays
        >>> replay_arrays(program, dataset.flows)
        >>> verdicts = program.verdicts
    """
    if soa is None:
        soa = PacketArrays.from_flows(flows)
    stats = {
        "flows": {"batched": 0, "slot_stream": 0},
        "packets": {"batched": 0, "slot_stream": 0},
        "event_rounds": 0,
        "event_search": {"lookup": 0, "scan": 0},
        "deferred": {"slots": 0, "open_windows": 0, "packets": 0},
    }
    program.replay_stats = stats
    populated = np.flatnonzero(soa.n_packets_per_flow > 0)
    if populated.size == 0:
        return

    def count(path: str, n_flows: int, n_packets: int) -> None:
        stats["flows"][path] += n_flows
        stats["packets"][path] += n_packets

    spoofed = None
    if sizes is not None:
        sizes = np.asarray(sizes)
        spoofed = sizes[populated] != soa.n_packets_per_flow[populated]
    slots = cached_flow_slots(soa, program.indexer.table_size)
    fast, shared, stream = _route_splidt(program, soa, slots, populated, spoofed)
    if shared.any():
        outcome = _replay_scalar(
            program, flows, soa, shared, slots=slots, stream=stream, sizes=sizes
        )
        count("slot_stream", outcome["flows"], outcome["packets"])
        stats["event_rounds"] = outcome["rounds"]
        stats["event_search"] = outcome["event_search"]
        stats["deferred"] = outcome["deferred"]
    if fast.size:
        _replay_splidt_batched(program, soa, fast, slots, workspace=workspace)
        # These flows met a clean slot and decided in it: terminal rows.
        program.hand_over(
            SlotHandover.of_flows(soa, fast, slots[fast], soa.first_timestamps[fast])
        )
        stats["deferred"]["slots"] += int(fast.size)
    count("batched", int(fast.size), int(soa.n_packets_per_flow[fast].sum()))
