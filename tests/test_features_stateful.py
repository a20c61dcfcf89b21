"""Tests that the per-packet register operators agree with the offline meter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.flows import FiveTuple, Flow, Packet, TCP_FLAGS
from repro.features.definitions import FEATURES, FEATURES_BY_NAME
from repro.features.flowmeter import FlowMeter
from repro.features.stateful import make_operator


def _make_flow(seed: int = 0, n_packets: int = 30) -> Flow:
    rng = np.random.default_rng(seed)
    packets = []
    timestamp = 0.0
    for i in range(n_packets):
        timestamp += float(rng.exponential(0.05))
        packets.append(
            Packet(
                timestamp=timestamp,
                size=int(rng.integers(40, 1500)),
                flags=(TCP_FLAGS["SYN"] if i == 0 else 0)
                | (TCP_FLAGS["ACK"] if i > 0 else 0)
                | (TCP_FLAGS["PSH"] if rng.random() < 0.3 else 0),
                direction=1 if rng.random() < 0.6 else -1,
                payload=int(rng.integers(0, 1000)),
            )
        )
    return Flow(FiveTuple(1, 2, 3, 4, 6), packets, label=0)


#: Features whose operator should match the offline flow meter exactly.
EXACT_FEATURES = [
    "pkt_count", "byte_count", "min_pkt_len", "max_pkt_len", "first_pkt_len",
    "last_pkt_len", "syn_count", "ack_count", "fin_count", "psh_count",
    "rst_count", "urg_count", "fwd_pkt_count", "bwd_pkt_count",
    "fwd_byte_count", "bwd_byte_count", "small_pkt_count", "large_pkt_count",
    "payload_sum", "duration", "mean_pkt_len", "mean_iat", "min_iat",
    "max_iat", "max_fwd_pkt_len", "max_bwd_pkt_len", "mean_fwd_pkt_len",
    "mean_bwd_pkt_len", "mean_payload", "idle_max", "std_pkt_len", "std_iat",
    "fwd_bwd_pkt_ratio", "burst_count", "max_burst_len", "pkt_rate", "byte_rate",
]


class TestOperatorsMatchFlowMeter:
    @pytest.mark.parametrize("feature_name", EXACT_FEATURES)
    def test_operator_equals_offline_value(self, feature_name):
        flow = _make_flow(seed=3)
        operator = make_operator(feature_name)
        for packet in flow.packets:
            operator.update(packet)
        offline = FlowMeter().extract_flow(flow)[FEATURES_BY_NAME[feature_name].index]
        assert operator.value == pytest.approx(offline, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_counters_on_random_flows(self, seed):
        flow = _make_flow(seed=seed)
        for name in ("pkt_count", "byte_count", "syn_count", "fwd_pkt_count"):
            operator = make_operator(name)
            for packet in flow.packets:
                operator.update(packet)
            offline = FlowMeter().extract_flow(flow)[FEATURES_BY_NAME[name].index]
            assert operator.value == pytest.approx(offline)


class TestOperatorLifecycle:
    def test_stateless_feature_rejected(self):
        with pytest.raises(ValueError):
            make_operator("src_port")

    def test_every_stateful_feature_has_an_operator(self):
        for definition in FEATURES:
            if definition.stateful:
                operator = make_operator(definition.name)
                operator.update(Packet(timestamp=0.0, size=100))
                assert operator.value >= 0.0
