"""The two-pass reference definition of the feature catalogue.

The paper modifies CICFlowMeter to emit flow statistics at every window
boundary and to reset state after each window.  :class:`FlowMeter`
reproduces that behaviour one flow at a time, over the flow's ``Packet``
objects, with every statistic taken over the whole window at once (a mean of
the column, a standard deviation about that mean): :meth:`extract_windows`
returns one feature vector per window, :meth:`extract_flow` the same
statistics over the whole flow and :meth:`extract_per_packet` the stateless
per-packet view.

It is the readable definition the register operators
(``repro.features.stateful``) and the window plane that computes the
training matrices (``repro.datasets.materialize``) are held to: the
operators within ``rel=1e-6`` (``tests/test_features_stateful.py``), the
window plane bit for bit except for the three statistics the registers
accumulate in another order (``tests/test_features_flowmeter.py``).
"""

from __future__ import annotations

import numpy as np

from repro.datasets.flows import Flow, Packet
from repro.features.definitions import (
    BURST_GAP_SECONDS,
    FEATURES_BY_NAME,
    LARGE_PACKET_BYTES,
    N_FEATURES,
    SMALL_PACKET_BYTES,
)
from repro.features.window import window_boundaries


def split_packets(packets: list[Packet], n_windows: int) -> list[list[Packet]]:
    """Split ``packets`` into ``n_windows`` uniform, contiguous windows."""
    boundaries = window_boundaries(len(packets), n_windows)
    windows = []
    start = 0
    for end in boundaries:
        windows.append(packets[start:end])
        start = end
    return windows


class FlowMeter:
    """Computes the feature catalogue of :mod:`repro.features.definitions`."""

    def __init__(self) -> None:
        self.n_features = N_FEATURES

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

    def _window_vector(self, packets: list[Packet], flow: Flow) -> np.ndarray:
        # ``pkt_len_first`` of a non-empty window is the flow's first packet
        # size, which the switch holds from the flow's admission on.
        vector = np.zeros(self.n_features, dtype=float)
        self._fill_stateless(
            vector, flow, first_packet=flow.packets[0] if packets else None
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
