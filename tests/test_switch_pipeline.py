"""Unit tests for the hardware targets, the PHV and the recirculation channel."""

from __future__ import annotations

import pytest

from repro.datasets.flows import FiveTuple, Packet
from repro.obs import Counters
from repro.switch.phv import make_control_phv, make_data_phv
from repro.switch.recirculation import (
    RECIRCULATION_LATENCY_S,
    RecirculationChannel,
    channel_stats,
)
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
        assert phv.get("is_control") == 0
        assert phv.get("sid") == 0

    def test_control_phv(self):
        phv = make_control_phv(FiveTuple(1, 2, 3, 4, 6), next_sid=5, timestamp=1.0)
        assert phv.get("is_control") == 1
        assert phv.get("next_sid") == 5
        assert phv.packet.size == 64

    def test_metadata_round_trip(self):
        phv = make_data_phv(FiveTuple(1, 2, 3, 4, 6), Packet(timestamp=0.0, size=100))
        phv.set("mark_0", 7)
        assert phv.get("mark_0") == 7


class TestRecirculationChannel:
    def test_submit_and_ready(self):
        channel = RecirculationChannel()
        phv = make_control_phv(FiveTuple(1, 2, 3, 4, 6), next_sid=2, timestamp=1.0)
        channel.submit(phv, timestamp=1.0)
        assert len(channel._queue) == 1
        assert channel.ready(1.0 + RECIRCULATION_LATENCY_S / 2) == []
        released = channel.ready(1.0 + 2 * RECIRCULATION_LATENCY_S)
        assert len(released) == 1
        assert len(channel._queue) == 0

    def test_bandwidth_accounting(self):
        channel = RecirculationChannel()
        for i in range(10):
            phv = make_control_phv(FiveTuple(1, 2, 3, 4, 6), next_sid=2, timestamp=float(i))
            channel.submit(phv, timestamp=float(i))
        assert channel.counters["switch.recirc.packets"] == 10
        assert channel.counters["switch.recirc.bytes"] == 640
        assert channel.stats()["mean_bps"] == pytest.approx(640 * 8 / 9.0)
        assert 0 <= channel.stats()["utilisation"] < 1

    def test_stats_of_merged_shards_equal_one_channel(self):
        """One rule: the shards' merged records report what one channel would."""
        whole, shards = RecirculationChannel(), [RecirculationChannel() for _ in range(3)]
        assert whole.stats() == {"packets": 0.0, "bytes": 0.0, "mean_bps": 0.0, "utilisation": 0.0}
        for i, (earliest, latest) in enumerate([(0.5, 2.0), (0.25, 0.25), (1.0, 7.5), (3.0, 3.5)]):
            for channel in (whole, shards[i % 2]):  # the third shard stays empty
                channel.submit_span(i + 1, 64, earliest, latest)
        records = [c.counters for c in shards]
        capacity = whole.capacity_bps
        assert channel_stats(Counters.merged(records), capacity) == whole.stats()
        assert channel_stats(Counters.merged(iter(records)), capacity) == whole.stats()
        snapshots = [record.snapshot() for record in reversed(records)]
        assert channel_stats(Counters.merged(snapshots), capacity) == whole.stats()
        assert whole.stats()["mean_bps"] == 10 * 64 * 8 / 7.25
        # Before any shard has reported there is nothing to merge.
        assert channel_stats(Counters.merged([]), capacity) == {}

    def test_epoch_and_shard_records_merge_into_the_same_totals(self):
        """Epochs of shards or shards of epochs: one merge, one total."""
        spans = [(0.5, 2.0), (0.25, 0.25), (1.0, 7.5), (3.0, 3.5), (9.0, 9.5), (0.75, 1.0)]
        grid = [[RecirculationChannel() for _ in range(2)] for _ in range(3)]  # epoch x shard
        whole = RecirculationChannel()
        for i, (earliest, latest) in enumerate(spans):
            for channel in (whole, grid[i % 3][i % 2]):
                channel.submit_span(i + 1, 64, earliest, latest)
                channel.counters.add("serve.flushes", i)
        by_epoch = Counters.merged(
            Counters.merged(c.counters for c in epoch) for epoch in grid
        )
        by_shard = Counters.merged(
            Counters.merged(epoch[shard].counters for epoch in grid) for shard in range(2)
        )
        assert by_epoch == by_shard == whole.counters
        assert by_epoch["switch.recirc.first"] == 0.25
        assert by_epoch["switch.recirc.last"] == 9.5
        assert channel_stats(by_epoch, whole.capacity_bps) == whole.stats()

    def test_zero_interval_counts_as_a_microsecond(self):
        channel = RecirculationChannel(capacity_bps=1e9)
        channel.submit_span(2, 64, 1.0, 1.0)
        assert channel.stats()["mean_bps"] == 2 * 64 * 8 / 1e-6
        assert channel.stats()["utilisation"] == channel.stats()["mean_bps"] / 1e9

    def test_drain(self):
        channel = RecirculationChannel()
        phv = make_control_phv(FiveTuple(1, 2, 3, 4, 6), next_sid=2, timestamp=0.0)
        channel.submit(phv, 0.0)
        assert len(channel.ready(float("inf"))) == 1
        assert len(channel._queue) == 0
