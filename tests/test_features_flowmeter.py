"""Unit tests for the two-pass reference feature definition, and the window plane against it."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feature_reference import FlowMeter
from repro.datasets.flows import FiveTuple, Flow, FlowDataset, Packet, TCP_FLAGS
from repro.datasets.materialize import materialize
from repro.features.definitions import FEATURES_BY_NAME, N_FEATURES


def _index(name: str) -> int:
    return FEATURES_BY_NAME[name].index


def _make_flow(n_packets: int = 12, size: int = 100, iat: float = 0.1) -> Flow:
    packets = [
        Packet(
            timestamp=i * iat,
            size=size,
            flags=TCP_FLAGS["SYN"] if i == 0 else TCP_FLAGS["ACK"],
            direction=1 if i % 2 == 0 else -1,
            payload=size // 2,
        )
        for i in range(n_packets)
    ]
    five_tuple = FiveTuple(1, 2, 1234, 443, 6)
    return Flow(five_tuple=five_tuple, packets=packets, label=0)


class TestWholeFlowExtraction:
    def setup_method(self):
        self.meter = FlowMeter()
        self.flow = _make_flow()

    def test_vector_length(self):
        vector = self.meter.extract_flow(self.flow)
        assert vector.shape == (N_FEATURES,)

    def test_packet_count(self):
        vector = self.meter.extract_flow(self.flow)
        assert vector[_index("pkt_count")] == 12

    def test_byte_count(self):
        vector = self.meter.extract_flow(self.flow)
        assert vector[_index("byte_count")] == 1200

    def test_mean_min_max_pkt_len(self):
        vector = self.meter.extract_flow(self.flow)
        assert vector[_index("mean_pkt_len")] == 100
        assert vector[_index("min_pkt_len")] == 100
        assert vector[_index("max_pkt_len")] == 100
        assert vector[_index("std_pkt_len")] == 0

    def test_iat_statistics(self):
        vector = self.meter.extract_flow(self.flow)
        assert vector[_index("mean_iat")] == pytest.approx(0.1)
        assert vector[_index("min_iat")] == pytest.approx(0.1)
        assert vector[_index("max_iat")] == pytest.approx(0.1)
        assert vector[_index("std_iat")] == pytest.approx(0.0, abs=1e-9)

    def test_duration(self):
        vector = self.meter.extract_flow(self.flow)
        assert vector[_index("duration")] == pytest.approx(1.1)

    def test_flag_counts(self):
        vector = self.meter.extract_flow(self.flow)
        assert vector[_index("syn_count")] == 1
        assert vector[_index("ack_count")] == 11
        assert vector[_index("fin_count")] == 0

    def test_direction_counts(self):
        vector = self.meter.extract_flow(self.flow)
        assert vector[_index("fwd_pkt_count")] == 6
        assert vector[_index("bwd_pkt_count")] == 6
        assert vector[_index("fwd_byte_count")] == 600

    def test_stateless_fields(self):
        vector = self.meter.extract_flow(self.flow)
        assert vector[_index("src_port")] == 1234
        assert vector[_index("dst_port")] == 443
        assert vector[_index("protocol")] == 6
        assert vector[_index("pkt_len_first")] == 100

    def test_small_and_large_packet_counts(self):
        flow = _make_flow(size=50)
        vector = self.meter.extract_flow(flow)
        assert vector[_index("small_pkt_count")] == flow.n_packets
        assert vector[_index("large_pkt_count")] == 0

    def test_rates(self):
        vector = self.meter.extract_flow(self.flow)
        assert vector[_index("pkt_rate")] == pytest.approx(12 / 1.1)
        assert vector[_index("byte_rate")] == pytest.approx(1200 / 1.1)


class TestWindowExtraction:
    def setup_method(self):
        self.meter = FlowMeter()

    def test_window_matrix_shape(self):
        matrix = self.meter.extract_windows(_make_flow(12), 3)
        assert matrix.shape == (3, N_FEATURES)

    def test_window_packet_counts_sum_to_flow(self):
        flow = _make_flow(13)
        matrix = self.meter.extract_windows(flow, 4)
        assert matrix[:, _index("pkt_count")].sum() == 13

    def test_window_state_reset(self):
        # Each window's byte count reflects only that window's packets.
        flow = _make_flow(12, size=100)
        matrix = self.meter.extract_windows(flow, 3)
        np.testing.assert_allclose(matrix[:, _index("byte_count")], 400)

    def test_empty_window_is_zero_stateful(self):
        flow = _make_flow(2)
        matrix = self.meter.extract_windows(flow, 4)
        assert matrix[3, _index("pkt_count")] == 0
        assert matrix[3, _index("byte_count")] == 0

    def test_single_window_equals_whole_flow(self):
        flow = _make_flow(10)
        whole = self.meter.extract_flow(flow)
        windowed = self.meter.extract_windows(flow, 1)[0]
        np.testing.assert_allclose(whole, windowed)

    def test_windows_capture_phase_differences(self):
        # First half small packets, second half large packets.
        packets = [Packet(timestamp=i * 0.1, size=60) for i in range(6)]
        packets += [Packet(timestamp=0.6 + i * 0.1, size=1400) for i in range(6)]
        flow = Flow(FiveTuple(1, 2, 3, 4, 6), packets, label=0)
        matrix = self.meter.extract_windows(flow, 2)
        assert matrix[0, _index("mean_pkt_len")] == pytest.approx(60)
        assert matrix[1, _index("mean_pkt_len")] == pytest.approx(1400)


class TestPerPacketExtraction:
    def test_only_stateless_features_set(self):
        meter = FlowMeter()
        flow = _make_flow()
        vector = meter.extract_per_packet(flow.packets[0], flow)
        assert vector[_index("dst_port")] == 443
        assert vector[_index("pkt_count")] == 0
        assert vector[_index("byte_count")] == 0


# Gaps on both sides of BURST_GAP_SECONDS, ties included.
_gaps = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=0.0099),
    st.floats(min_value=0.0101, max_value=3.0),
)
_packet_fields = st.tuples(
    _gaps,
    st.integers(min_value=40, max_value=1500),  # size
    st.integers(min_value=0, max_value=0x3F),  # flags
    st.sampled_from([1, -1]),  # direction
    st.integers(min_value=0, max_value=1460),  # payload
)


def _flow(fields, ports=(1234, 443, 6), start=0.0) -> Flow:
    packets, now = [], start
    for gap, size, flags, direction, payload in fields:
        now += gap
        packets.append(Packet(now, size, flags, direction, min(payload, size)))
    return Flow(FiveTuple(1, 2, *ports), packets, label=0)


_flows = st.lists(
    st.builds(
        _flow,
        st.lists(_packet_fields, max_size=40),
        st.tuples(st.integers(0, 65535), st.integers(0, 65535), st.sampled_from([6, 17])),
        st.floats(min_value=0.0, max_value=100.0),
    ),
    min_size=1,
    max_size=6,
)


#: Statistics the registers accumulate as running sums (a mean of the gaps,
#: a deviation from the sum of squares) where the reference takes the
#: column's own mean: equal up to rounding, not bit for bit.
_ROUNDED = [_index(name) for name in ("mean_iat", "std_pkt_len", "std_iat")]


def _assert_close_to_reference(got: np.ndarray, want: np.ndarray) -> None:
    exact = np.ones(N_FEATURES, dtype=bool)
    exact[_ROUNDED] = False
    assert got[..., exact].tobytes() == want[..., exact].tobytes()
    np.testing.assert_allclose(got[..., _ROUNDED], want[..., _ROUNDED], rtol=1e-6, atol=1e-6)


def _assert_batched_equals_reference(flows: list[Flow], n_windows: int):
    """The training matrices (the window plane's values) against the per-flow reference.

    Returns the materialisation.
    """
    meter = FlowMeter()
    dataset = FlowDataset("reference", "", flows, ["benign"])
    windowed = materialize(dataset, n_windows)
    windows = np.stack([meter.extract_windows(f, n_windows) for f in flows], axis=1)
    _assert_close_to_reference(windowed.window_features, windows)
    whole = np.stack([meter.extract_flow(f) for f in flows])
    _assert_close_to_reference(windowed.flow_features, whole)
    first = np.stack(
        [
            meter.extract_per_packet(f.packets[0], f) if f.packets else np.zeros(N_FEATURES)
            for f in flows
        ]
    )
    assert windowed.packet_features.tobytes() == first.tobytes()
    return windowed


def _random_flow(n_packets: int, seed: int, direction: int | None = None) -> Flow:
    rng = np.random.default_rng(seed)
    fields = zip(
        rng.exponential(0.02, n_packets).tolist(),
        rng.integers(40, 1501, n_packets).tolist(),
        rng.integers(0, 0x40, n_packets).tolist(),
        [direction] * n_packets if direction else rng.choice([1, -1], n_packets).tolist(),
        rng.integers(0, 1461, n_packets).tolist(),
    )
    return _flow(fields)


class TestBatchedKernelMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(flows=_flows, n_windows=st.integers(min_value=1, max_value=8))
    def test_random_flows(self, flows, n_windows):
        _assert_batched_equals_reference(flows, n_windows)

    def test_empty_flow_keeps_an_all_zero_packet_row(self):
        flows = [_flow([]), _random_flow(9, seed=1)]
        packet_matrix = _assert_batched_equals_reference(flows, 3).packet_features
        assert not packet_matrix[0].any()  # ports included
        assert packet_matrix[1, _index("dst_port")] == 443

    def test_fewer_packets_than_windows(self):
        flows = [_random_flow(3, seed=2), _random_flow(1, seed=3)]
        windows = _assert_batched_equals_reference(flows, 7).window_features
        # Trailing empty windows keep only the flow's header fields.
        assert windows[5, 0, _index("dst_port")] == 443
        assert windows[5, 0, _index("pkt_len_first")] == 0
        assert windows[5, 0, _index("pkt_count")] == 0

    def test_one_packet_windows(self):
        _assert_batched_equals_reference([_random_flow(5, seed=4)], 5)

    def test_tied_timestamps_give_zero_rates(self):
        flow = _flow([(0.0, 100 + i, 0x10, 1 if i % 2 else -1, 50) for i in range(6)])
        whole = _assert_batched_equals_reference([flow], 2).flow_features[0]
        assert whole[_index("duration")] == 0
        assert whole[_index("pkt_rate")] == 0 and whole[_index("byte_rate")] == 0

    @pytest.mark.parametrize("direction", [1, -1])
    def test_single_direction_windows(self, direction):
        _assert_batched_equals_reference([_random_flow(20, seed=5, direction=direction)], 3)

    def test_windows_past_the_pairwise_summation_block(self):
        # NumPy sums in blocks of 128: 150-packet windows, 300-packet flows.
        flows = [_random_flow(300, seed=6), _random_flow(299, seed=7), _random_flow(129, seed=8)]
        _assert_batched_equals_reference(flows, 2)
        _assert_batched_equals_reference(flows, 1)
