"""Unit tests for the datacenter workload models and recirculation estimates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.workloads import (
    CONTROL_PACKET_BYTES,
    RECIRCULATION_CAPACITY_BPS,
    WORKLOADS,
    estimate_recirculation,
    sample_flow_durations,
)


class TestWorkloadProfiles:
    def test_both_environments_defined(self):
        assert set(WORKLOADS) == {"WS", "HD"}

    def test_hadoop_flows_shorter_than_webserver(self):
        assert WORKLOADS["HD"].mean_flow_duration < WORKLOADS["WS"].mean_flow_duration
        assert WORKLOADS["HD"].mean_flow_packets < WORKLOADS["WS"].mean_flow_packets


class TestSampling:
    def test_flow_durations_positive(self):
        rng = np.random.default_rng(0)
        durations = sample_flow_durations(WORKLOADS["HD"], 1000, rng)
        assert np.all(durations > 0)

class TestRecirculationEstimate:
    def test_zero_partitions_no_recirculation(self):
        estimate = estimate_recirculation(WORKLOADS["WS"], concurrent_flows=100_000, n_partitions=1)
        assert estimate.mean_bps == 0.0
        assert estimate.peak_bps == 0.0

    def test_zero_flows_no_recirculation(self):
        estimate = estimate_recirculation(WORKLOADS["HD"], concurrent_flows=0, n_partitions=4)
        assert estimate.mean_bps == 0.0

    def test_bandwidth_grows_with_partitions(self):
        few = estimate_recirculation(WORKLOADS["WS"], concurrent_flows=500_000, n_partitions=2)
        many = estimate_recirculation(WORKLOADS["WS"], concurrent_flows=500_000, n_partitions=6)
        assert many.mean_bps > few.mean_bps

    def test_bandwidth_grows_with_flows(self):
        small = estimate_recirculation(WORKLOADS["HD"], concurrent_flows=100_000, n_partitions=4)
        large = estimate_recirculation(WORKLOADS["HD"], concurrent_flows=1_000_000, n_partitions=4)
        assert large.mean_bps > small.mean_bps

    def test_hadoop_recirculates_more_than_webserver(self):
        # Shorter flows turn over faster, so HD issues more control packets
        # per second — matching the paper's Table 5 ordering.
        ws = estimate_recirculation(WORKLOADS["WS"], concurrent_flows=1_000_000, n_partitions=4)
        hd = estimate_recirculation(WORKLOADS["HD"], concurrent_flows=1_000_000, n_partitions=4)
        assert hd.mean_bps > ws.mean_bps

    def test_overhead_well_below_capacity(self):
        # The paper's headline claim: worst-case recirculation stays a tiny
        # fraction of the 100 Gbps path.
        estimate = estimate_recirculation(WORKLOADS["HD"], concurrent_flows=1_000_000, n_partitions=7)
        assert estimate.peak_bps < 0.01 * RECIRCULATION_CAPACITY_BPS

    def test_mbps_helpers(self):
        estimate = estimate_recirculation(WORKLOADS["WS"], concurrent_flows=500_000, n_partitions=4)
        assert estimate.mean_mbps == pytest.approx(estimate.mean_bps / 1e6)
        assert estimate.peak_mbps >= estimate.mean_mbps

    def test_control_packet_rate_consistency(self):
        estimate = estimate_recirculation(WORKLOADS["WS"], concurrent_flows=200_000, n_partitions=3)
        expected_bps = estimate.control_packets_per_second * CONTROL_PACKET_BYTES * 8
        assert estimate.mean_bps == pytest.approx(expected_bps)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            estimate_recirculation(WORKLOADS["WS"], concurrent_flows=-1, n_partitions=2)
        with pytest.raises(ValueError):
            estimate_recirculation(WORKLOADS["WS"], concurrent_flows=10, n_partitions=0)
