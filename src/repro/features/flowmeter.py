"""Window-aware flow feature extraction (CICFlowMeter equivalent).

The paper modifies CICFlowMeter to emit flow statistics at every window
boundary and to reset state after each window.  :class:`FlowMeter` reproduces
that behaviour: :meth:`extract_windows` returns one feature vector per window
with statistics computed *only* from that window's packets.

:meth:`extract_flow` computes the same statistics over the whole flow (the
one-shot view the NetBeacon/Leo baselines use) and
:meth:`extract_per_packet` returns the stateless per-packet view used by the
IIsy-style baseline.

Those three walk one flow's ``Packet`` objects and are the readable
reference.  Whole datasets go through the ``*_matrix`` methods, which compute
the same vectors for every flow of a :class:`PacketArrays` at once and are
bit-identical to the per-flow methods (``tests/test_features_flowmeter.py``).
"""

from __future__ import annotations

import numpy as np

from repro.datasets.flows import Flow, Packet, PacketArrays
from repro.features.definitions import (
    FEATURES,
    N_FEATURES,
    FEATURES_BY_NAME,
    STATELESS_HEADER_INDICES,
)
from repro.features.window import split_packets, window_bounds

#: Packets shorter than this count as "small", longer than large threshold as "large".
SMALL_PACKET_BYTES = 100
LARGE_PACKET_BYTES = 1000

#: Gap (seconds) separating two bursts.
BURST_GAP_SECONDS = 0.01

_SRC_PORT, _DST_PORT, _PROTOCOL = STATELESS_HEADER_INDICES[:3]


class FlowMeter:
    """Computes the feature catalogue of :mod:`repro.features.definitions`."""

    def __init__(self) -> None:
        self.n_features = N_FEATURES

    # ------------------------------------------------------------------
    def extract_windows(self, flow: Flow, n_windows: int) -> np.ndarray:
        """Per-window feature matrix of shape ``(n_windows, n_features)``.

        Window statistics are computed independently per window (state is
        reset at each boundary), mirroring the modified CICFlowMeter.
        Empty windows yield all-zero vectors.
        """
        windows = split_packets(flow.packets, n_windows)
        return np.stack([self._window_vector(w, flow) for w in windows])

    def extract_flow(self, flow: Flow) -> np.ndarray:
        """Whole-flow feature vector (one-shot baseline view)."""
        return self._window_vector(flow.packets, flow)

    def extract_per_packet(self, packet: Packet, flow: Flow) -> np.ndarray:
        """Stateless per-packet feature vector (IIsy / Planter view).

        Stateful entries are zeroed; only the stateless catalogue entries are
        populated.
        """
        vector = np.zeros(self.n_features, dtype=float)
        self._fill_stateless(vector, flow, first_packet=packet)
        return vector

    # ------------------------------------------------------------------
    # Batched extraction over a PacketArrays
    # ------------------------------------------------------------------
    def extract_window_matrix(self, soa: PacketArrays, n_windows: int) -> np.ndarray:
        """:meth:`extract_windows` of every flow: ``(n_windows, n_flows, n_features)``."""
        ends = soa.flow_starts[:-1, None] + window_bounds(soa.n_packets_per_flow, n_windows)
        starts = np.empty_like(ends)
        starts[:, 0] = soa.flow_starts[:-1]
        starts[:, 1:] = ends[:, :-1]
        flows = np.tile(np.arange(soa.n_flows, dtype=np.intp), n_windows)
        # Window-major, so the segment axis reshapes to (window, flow).
        vectors = self.extract_segments(soa, starts.T.ravel(), ends.T.ravel(), flows)
        return vectors.reshape(n_windows, soa.n_flows, self.n_features)

    def extract_flow_matrix(self, soa: PacketArrays) -> np.ndarray:
        """:meth:`extract_flow` of every flow: ``(n_flows, n_features)``."""
        flows = np.arange(soa.n_flows, dtype=np.intp)
        return self.extract_segments(soa, soa.flow_starts[:-1], soa.flow_starts[1:], flows)

    def extract_packet_matrix(self, soa: PacketArrays) -> np.ndarray:
        """:meth:`extract_per_packet` of every flow's first packet.

        A flow without packets has no first packet and keeps an all-zero row.
        """
        matrix = np.zeros((soa.n_flows, self.n_features), dtype=float)
        header = np.column_stack(
            [soa.src_ports, soa.dst_ports, soa.protocols, soa.first_sizes]
        )
        populated = soa.n_packets_per_flow > 0
        matrix[:, STATELESS_HEADER_INDICES] = np.where(populated[:, None], header, 0.0)
        return matrix

    def extract_segments(
        self, soa: PacketArrays, starts: np.ndarray, ends: np.ndarray, flows: np.ndarray
    ) -> np.ndarray:
        """Feature vectors of the packet segments ``[starts[i], ends[i])``.

        ``flows[i]`` is the flow segment ``i`` belongs to (its header fields).
        Row ``i`` is bit-identical to ``_window_vector`` over the same
        packets: segments are bucketed by packet count ``L``, each bucket is
        gathered into C-contiguous ``(rows, L)`` matrices, and the reference's
        own expressions run along the last axis, where NumPy reduces each row
        with the routine (and summation order) it uses for a 1-D array.  The
        sums the reference takes over a direction-masked subset are taken here
        over the full row with the other direction zeroed, which is exact
        because packet sizes are integer-valued.  One bucket is resident at a
        time.
        """
        starts = np.asarray(starts, dtype=np.intp)
        lengths = np.asarray(ends, dtype=np.intp) - starts
        out = np.zeros((starts.size, self.n_features), dtype=float)
        out[:, _SRC_PORT] = soa.src_ports[flows]
        out[:, _DST_PORT] = soa.dst_ports[flows]
        out[:, _PROTOCOL] = soa.protocols[flows]
        if starts.size == 0:
            return out

        order = np.argsort(lengths, kind="stable")
        sorted_lengths = lengths[order]
        cuts = np.flatnonzero(np.diff(sorted_lengths)) + 1
        for low, high in zip(np.r_[0, cuts], np.r_[cuts, order.size]):
            length = int(sorted_lengths[low])
            if length == 0:
                continue  # empty segments keep only the header fields
            rows = order[low:high]
            index = starts[rows, None] + np.arange(length, dtype=np.intp)
            block = out[rows]
            _fill_bucket(
                block,
                soa.sizes[index],
                soa.payloads[index],
                soa.timestamps[index],
                soa.directions[index],
                soa.flags[index],
            )
            out[rows] = block
        return out

    # ------------------------------------------------------------------
    # Per-flow reference
    # ------------------------------------------------------------------
    def _window_vector(self, packets: list[Packet], flow: Flow) -> np.ndarray:
        vector = np.zeros(self.n_features, dtype=float)
        self._fill_stateless(
            vector, flow, first_packet=packets[0] if packets else None
        )
        if not packets:
            return vector

        sizes = np.array([p.size for p in packets], dtype=float)
        payloads = np.array([p.payload for p in packets], dtype=float)
        times = np.array([p.timestamp for p in packets], dtype=float)
        directions = np.array([p.direction for p in packets], dtype=int)
        flags = np.array([p.flags for p in packets], dtype=int)

        fwd_mask = directions > 0
        bwd_mask = ~fwd_mask
        iats = np.diff(times) if len(packets) > 1 else np.array([], dtype=float)
        duration = float(times[-1] - times[0])

        set_value = self._set_value
        set_value(vector, "pkt_count", len(packets))
        set_value(vector, "byte_count", sizes.sum())
        set_value(vector, "mean_pkt_len", sizes.mean())
        set_value(vector, "min_pkt_len", sizes.min())
        set_value(vector, "max_pkt_len", sizes.max())
        set_value(vector, "std_pkt_len", sizes.std())
        set_value(vector, "first_pkt_len", sizes[0])
        set_value(vector, "last_pkt_len", sizes[-1])
        set_value(vector, "mean_iat", iats.mean() if iats.size else 0.0)
        set_value(vector, "min_iat", iats.min() if iats.size else 0.0)
        set_value(vector, "max_iat", iats.max() if iats.size else 0.0)
        set_value(vector, "std_iat", iats.std() if iats.size else 0.0)
        set_value(vector, "duration", duration)
        set_value(vector, "pkt_rate", len(packets) / duration if duration > 0 else 0.0)
        set_value(vector, "byte_rate", sizes.sum() / duration if duration > 0 else 0.0)
        set_value(vector, "syn_count", int(np.sum(flags & 0x02 > 0)))
        set_value(vector, "ack_count", int(np.sum(flags & 0x10 > 0)))
        set_value(vector, "fin_count", int(np.sum(flags & 0x01 > 0)))
        set_value(vector, "psh_count", int(np.sum(flags & 0x08 > 0)))
        set_value(vector, "rst_count", int(np.sum(flags & 0x04 > 0)))
        set_value(vector, "urg_count", int(np.sum(flags & 0x20 > 0)))
        set_value(vector, "fwd_pkt_count", int(fwd_mask.sum()))
        set_value(vector, "bwd_pkt_count", int(bwd_mask.sum()))
        set_value(vector, "fwd_byte_count", sizes[fwd_mask].sum() if fwd_mask.any() else 0.0)
        set_value(vector, "bwd_byte_count", sizes[bwd_mask].sum() if bwd_mask.any() else 0.0)
        bwd_count = max(int(bwd_mask.sum()), 1)
        set_value(vector, "fwd_bwd_pkt_ratio", float(fwd_mask.sum()) / bwd_count)
        set_value(
            vector, "mean_fwd_pkt_len", sizes[fwd_mask].mean() if fwd_mask.any() else 0.0
        )
        set_value(
            vector, "mean_bwd_pkt_len", sizes[bwd_mask].mean() if bwd_mask.any() else 0.0
        )
        set_value(
            vector, "max_fwd_pkt_len", sizes[fwd_mask].max() if fwd_mask.any() else 0.0
        )
        set_value(
            vector, "max_bwd_pkt_len", sizes[bwd_mask].max() if bwd_mask.any() else 0.0
        )
        set_value(vector, "small_pkt_count", int(np.sum(sizes < SMALL_PACKET_BYTES)))
        set_value(vector, "large_pkt_count", int(np.sum(sizes > LARGE_PACKET_BYTES)))
        set_value(vector, "payload_sum", payloads.sum())
        set_value(vector, "mean_payload", payloads.mean())
        burst_count, max_burst = self._burst_stats(iats)
        set_value(vector, "burst_count", burst_count)
        set_value(vector, "max_burst_len", max_burst)
        set_value(vector, "idle_max", iats.max() if iats.size else 0.0)
        return vector

    def _fill_stateless(
        self, vector: np.ndarray, flow: Flow, first_packet: Packet | None
    ) -> None:
        self._set_value(vector, "src_port", flow.five_tuple.src_port)
        self._set_value(vector, "dst_port", flow.five_tuple.dst_port)
        self._set_value(vector, "protocol", flow.five_tuple.protocol)
        if first_packet is not None:
            self._set_value(vector, "pkt_len_first", first_packet.size)

    @staticmethod
    def _set_value(vector: np.ndarray, name: str, value: float) -> None:
        vector[FEATURES_BY_NAME[name].index] = float(value)

    @staticmethod
    def _burst_stats(iats: np.ndarray) -> tuple[int, int]:
        """Number of bursts and length (in packets) of the longest burst."""
        if iats.size == 0:
            return 1, 1
        burst_count = 1
        current_length = 1
        max_length = 1
        for gap in iats:
            if gap > BURST_GAP_SECONDS:
                burst_count += 1
                current_length = 1
            else:
                current_length += 1
            max_length = max(max_length, current_length)
        return burst_count, max_length


def _fill_bucket(
    block: np.ndarray,
    sizes: np.ndarray,
    payloads: np.ndarray,
    times: np.ndarray,
    directions: np.ndarray,
    flags: np.ndarray,
) -> None:
    """``FlowMeter._window_vector`` for ``rows`` segments of ``L >= 1`` packets.

    The inputs are C-contiguous ``(rows, L)`` matrices; ``block`` is the
    ``(rows, n_features)`` output, header fields already set.  Every
    expression is the reference's, taken along ``axis=1``.
    """
    n_rows, length = sizes.shape
    zeros = np.zeros(n_rows, dtype=float)

    def put(name: str, values) -> None:
        block[:, FEATURES_BY_NAME[name].index] = values

    def ratio(numerator, denominator, defined) -> np.ndarray:
        # ``numerator / denominator if defined else 0.0``
        return np.divide(numerator, denominator, out=zeros.copy(), where=defined)

    fwd_mask = directions > 0
    bwd_mask = ~fwd_mask
    duration = times[:, -1] - times[:, 0]
    byte_count = sizes.sum(axis=1)

    put("pkt_len_first", sizes[:, 0])
    put("pkt_count", length)
    put("byte_count", byte_count)
    put("mean_pkt_len", sizes.mean(axis=1))
    put("min_pkt_len", sizes.min(axis=1))
    put("max_pkt_len", sizes.max(axis=1))
    put("std_pkt_len", sizes.std(axis=1))
    put("first_pkt_len", sizes[:, 0])
    put("last_pkt_len", sizes[:, -1])
    if length > 1:
        iats = np.diff(times, axis=1)
        put("mean_iat", iats.mean(axis=1))
        put("min_iat", iats.min(axis=1))
        max_iat = iats.max(axis=1)
        put("max_iat", max_iat)
        put("std_iat", iats.std(axis=1))
        put("idle_max", max_iat)
        # A packet opens a burst when the gap before it exceeds the burst
        # gap; its position within its burst is its distance to the latest
        # opening at or before it.
        opens = np.zeros((n_rows, length), dtype=bool)
        opens[:, 1:] = iats > BURST_GAP_SECONDS
        position = np.arange(length, dtype=np.intp)
        latest_open = np.maximum.accumulate(np.where(opens, position, 0), axis=1)
        put("burst_count", 1 + opens.sum(axis=1))
        put("max_burst_len", (position - latest_open).max(axis=1) + 1)
    else:
        put("burst_count", 1)
        put("max_burst_len", 1)
    put("duration", duration)
    put("pkt_rate", ratio(float(length), duration, duration > 0))
    put("byte_rate", ratio(byte_count, duration, duration > 0))
    put("syn_count", (flags & 0x02 > 0).sum(axis=1))
    put("ack_count", (flags & 0x10 > 0).sum(axis=1))
    put("fin_count", (flags & 0x01 > 0).sum(axis=1))
    put("psh_count", (flags & 0x08 > 0).sum(axis=1))
    put("rst_count", (flags & 0x04 > 0).sum(axis=1))
    put("urg_count", (flags & 0x20 > 0).sum(axis=1))
    fwd_count = fwd_mask.sum(axis=1)
    bwd_count = bwd_mask.sum(axis=1)
    fwd_bytes = np.where(fwd_mask, sizes, 0.0).sum(axis=1)
    bwd_bytes = np.where(bwd_mask, sizes, 0.0).sum(axis=1)
    put("fwd_pkt_count", fwd_count)
    put("bwd_pkt_count", bwd_count)
    put("fwd_byte_count", fwd_bytes)
    put("bwd_byte_count", bwd_bytes)
    put("fwd_bwd_pkt_ratio", fwd_count.astype(float) / np.maximum(bwd_count, 1))
    put("mean_fwd_pkt_len", ratio(fwd_bytes, fwd_count, fwd_count > 0))
    put("mean_bwd_pkt_len", ratio(bwd_bytes, bwd_count, bwd_count > 0))
    put(
        "max_fwd_pkt_len",
        np.where(fwd_count > 0, np.where(fwd_mask, sizes, -np.inf).max(axis=1), 0.0),
    )
    put(
        "max_bwd_pkt_len",
        np.where(bwd_count > 0, np.where(bwd_mask, sizes, -np.inf).max(axis=1), 0.0),
    )
    put("small_pkt_count", (sizes < SMALL_PACKET_BYTES).sum(axis=1))
    put("large_pkt_count", (sizes > LARGE_PACKET_BYTES).sum(axis=1))
    put("payload_sum", payloads.sum(axis=1))
    put("mean_payload", payloads.mean(axis=1))


def quantize_features(matrix: np.ndarray, bit_width: int, max_value: float | None = None) -> np.ndarray:
    """Quantise a feature matrix to ``bit_width``-bit unsigned integers.

    The paper's Figure 12 lowers feature precision from 32 to 16 and 8 bits;
    this helper applies the same uniform quantisation used there: values are
    clipped to ``[0, max_value]`` and mapped onto ``2**bit_width`` levels.

    Args:
        matrix: Feature matrix (non-negative values).
        bit_width: Target precision (e.g. 32, 16, 8).
        max_value: Saturation value; defaults to the per-column maximum.

    Returns:
        The quantised matrix (same shape, float dtype holding integer levels).
    """
    if bit_width < 1:
        raise ValueError("bit_width must be >= 1")
    matrix = np.asarray(matrix, dtype=float)
    if bit_width >= 32:
        return matrix.copy()
    levels = float(2**bit_width - 1)
    if max_value is None:
        column_max = matrix.max(axis=0)
    else:
        column_max = np.full(matrix.shape[1], float(max_value))
    column_max = np.where(column_max <= 0, 1.0, column_max)
    clipped = np.clip(matrix, 0.0, column_max)
    return np.floor(clipped / column_max * levels)
