"""Unit tests for the hardware targets, the PHV and the recirculation channel."""

from __future__ import annotations

import pytest

from repro.datasets.flows import FiveTuple, Packet
from repro.serve import merge_channel_aggregates
from repro.switch.phv import make_control_phv, make_data_phv
from repro.switch.recirculation import RecirculationChannel
from repro.switch.targets import BLUEFIELD3, TOFINO1, TOFINO2, TRIDENT4, get_target


class TestTargets:
    def test_builtin_targets(self):
        assert get_target("tofino1") is TOFINO1
        assert get_target("Tofino2") is TOFINO2
        assert get_target("TRIDENT4") is TRIDENT4
        assert get_target("bluefield3") is BLUEFIELD3

    def test_unknown_target(self):
        with pytest.raises(KeyError):
            get_target("tofino9")

    def test_tofino1_budgets_match_paper(self):
        assert TOFINO1.n_stages == 12
        assert TOFINO1.tcam_bits == pytest.approx(6.4e6)
        assert TOFINO1.recirculation_bps == pytest.approx(100e9)
        assert TOFINO1.max_mats_per_stage == 16

    def test_tofino2_larger_than_tofino1(self):
        assert TOFINO2.n_stages > TOFINO1.n_stages
        assert TOFINO2.tcam_bits > TOFINO1.tcam_bits


class TestPhv:
    def test_data_phv(self):
        phv = make_data_phv(FiveTuple(1, 2, 3, 4, 6), Packet(timestamp=0.0, size=100))
        assert not phv.is_control
        assert phv.get("sid") == 0

    def test_control_phv(self):
        phv = make_control_phv(FiveTuple(1, 2, 3, 4, 6), next_sid=5, timestamp=1.0)
        assert phv.is_control
        assert phv.get("next_sid") == 5
        assert phv.packet.size == 64

    def test_metadata_round_trip(self):
        phv = make_data_phv(FiveTuple(1, 2, 3, 4, 6), Packet(timestamp=0.0, size=100))
        phv.set("mark_0", 7)
        assert phv.get("mark_0") == 7
        assert phv.bits_used() > 0


class TestRecirculationChannel:
    def test_submit_and_ready(self):
        channel = RecirculationChannel(latency=0.001)
        phv = make_control_phv(FiveTuple(1, 2, 3, 4, 6), next_sid=2, timestamp=1.0)
        channel.submit(phv, timestamp=1.0)
        assert channel.pending == 1
        assert channel.ready(1.0005) == []
        released = channel.ready(1.002)
        assert len(released) == 1
        assert channel.pending == 0

    def test_bandwidth_accounting(self):
        channel = RecirculationChannel()
        for i in range(10):
            phv = make_control_phv(FiveTuple(1, 2, 3, 4, 6), next_sid=2, timestamp=float(i))
            channel.submit(phv, timestamp=float(i))
        assert channel.packets_recirculated == 10
        assert channel.bytes_recirculated == 640
        assert channel.mean_bandwidth_bps() == pytest.approx(640 * 8 / 9.0)
        assert 0 <= channel.utilisation() < 1

    def test_stats_of_merged_shards_equal_one_channel(self):
        """One formula: shard aggregates summed into a channel report what one channel would."""
        whole, shards = RecirculationChannel(), [RecirculationChannel() for _ in range(3)]
        assert whole.stats() == {"packets": 0.0, "bytes": 0.0, "mean_bps": 0.0, "utilisation": 0.0}
        for i, (earliest, latest) in enumerate([(0.5, 2.0), (0.25, 0.25), (1.0, 7.5), (3.0, 3.5)]):
            for channel in (whole, shards[i % 2]):  # the third shard stays empty
                channel.submit_span(i + 1, 64, earliest, latest)
        aggregates = [
            (c.packets_recirculated, c.bytes_recirculated, c.first_timestamp, c.last_timestamp,
             c.capacity_bps)
            for c in shards
        ]
        assert merge_channel_aggregates(aggregates) == whole.stats()
        assert merge_channel_aggregates(iter(aggregates)) == whole.stats()
        assert whole.stats()["mean_bps"] == 10 * 64 * 8 / 7.25
        # Before any shard has reported there is nothing to merge.
        assert merge_channel_aggregates([]) == {}

    def test_zero_interval_counts_as_a_microsecond(self):
        channel = RecirculationChannel(capacity_bps=1e9)
        channel.submit_span(2, 64, 1.0, 1.0)
        assert channel.stats()["mean_bps"] == 2 * 64 * 8 / 1e-6
        assert channel.stats()["utilisation"] == channel.stats()["mean_bps"] / 1e9

    def test_drain(self):
        channel = RecirculationChannel()
        phv = make_control_phv(FiveTuple(1, 2, 3, 4, 6), next_sid=2, timestamp=0.0)
        channel.submit(phv, 0.0)
        assert len(channel.drain()) == 1
        assert channel.pending == 0
