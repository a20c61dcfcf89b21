"""The counter record: one ``repro.obs.Counters`` per program, views over it.

The planes, admission and eviction, the recirculation channel and the
micro-batch engine count into their program's record, so a serving session
counts what a replay counts.  These tests hold the record to invariants that
do not mention the per-packet oracle:

* every ingested packet is counted on exactly one plane — forwarded packets
  and packets in handed-over open windows included — after any chunking of a
  contended stream, and a replay of the same traffic counts the same switch
  totals;
* ``switch.evictions <= switch.admissions``;
* the stats that used to be assembled by hand are views of the record, and
  the helpers that merged them are gone.
"""

from __future__ import annotations

import pytest

from repro.dataplane import SpliDTDataPlane, replay_dataset
from repro.dataplane.runtime import replay_source
from repro.datasets.streams import iter_packet_chunks
from repro.obs import Counters
from repro.serve import MicroBatchEngine
from repro.switch.eviction import make_eviction_policy
from test_dataplane import _assert_gone

#: Flows of the small dataset served on a 64-slot table: most slots are shared.
N_FLOWS, TABLE_SIZE = 120, 64


def _plane_packets(counters) -> int:
    return counters["dataplane.lockstep.packets"] + counters["dataplane.slot_stream.packets"]


@pytest.fixture(scope="module")
def contended_replay(splidt_model, splidt_rules, small_dataset):
    program = SpliDTDataPlane(
        splidt_model, splidt_rules, flow_slots=TABLE_SIZE,
        eviction=make_eviction_policy("idle-timeout", timeout=0.5),
    )
    result = replay_dataset(program, small_dataset, max_flows=N_FLOWS)
    return program, result


class TestServeInvariants:
    @pytest.mark.parametrize("chunk_size", (1, 7, None))
    def test_every_packet_is_counted_once_on_one_plane(
        self, splidt_model, splidt_rules, small_dataset, contended_replay, chunk_size
    ):
        flows, soa = replay_source(small_dataset, max_flows=N_FLOWS)
        program = SpliDTDataPlane(
            splidt_model, splidt_rules, flow_slots=TABLE_SIZE,
            eviction=make_eviction_policy("idle-timeout", timeout=0.5),
        )
        engine = MicroBatchEngine(program).open()
        for chunk in iter_packet_chunks(flows, chunk_size):
            engine.ingest(chunk)
        engine.drain()
        stats = engine.stats()
        counters = stats.counters

        assert stats.packets == soa.n_packets
        assert _plane_packets(counters) == soa.n_packets
        # Contended slots replay on the slot-stream plane; clean ones do not.
        assert counters["dataplane.slot_stream.packets"] > 0
        assert counters["dataplane.lockstep.packets"] > 0
        assert 0 < counters["switch.evictions"] <= counters["switch.admissions"]
        assert counters["serve.flushes"] == stats.batching["flushes"]

        replayed, result = contended_replay
        assert _plane_packets(replayed.counters) == soa.n_packets
        assert replayed.counters["switch.evictions"] <= replayed.counters["switch.admissions"]
        # A serve session counts what a replay of the same traffic counts.
        switch = {name: value for name, value in counters.items() if name.startswith("switch.")}
        assert switch == {
            name: value for name, value in replayed.counters.items()
            if name.startswith("switch.")
        }
        assert stats.recirculation == result.recirculation
        engine.close()


class TestViews:
    def test_a_fresh_program_reads_zeros(self, splidt_model, splidt_rules):
        program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=TABLE_SIZE)
        assert program.replay_stats == {
            "flows": {"batched": 0, "slot_stream": 0},
            "packets": {"batched": 0, "slot_stream": 0},
            "event_rounds": 0,
            "event_search": {"lookup": 0, "scan": 0},
            "deferred": {"slots": 0, "open_windows": 0, "packets": 0},
        }
        assert program.eviction_stats()["admissions"] == 0
        assert program.recirculation_stats()["packets"] == 0.0
        assert program.counters.snapshot() == {
            "switch.recirc.packets": 0, "switch.recirc.bytes": 0
        }

    def test_replay_stats_is_the_last_call(self, contended_replay, small_dataset):
        program, result = contended_replay
        stats = program.replay_stats
        _, soa = replay_source(small_dataset, max_flows=N_FLOWS)
        assert sum(stats["packets"].values()) == soa.n_packets
        assert stats["deferred"]["slots"] == program.counters["dataplane.handover.slots"]
        assert program.eviction_stats()["evictions"] == program.counters["switch.evictions"]
        assert result.recirculation == program.recirculation_stats()

    def test_merge_takes_min_and_max_of_the_interval_and_sums_the_rest(self):
        early, late = Counters(), Counters()
        early.add("switch.recirc.packets", 2)
        early.observe("switch.recirc", 1.0, 4.0)
        late.add("switch.recirc.packets", 3)
        late.observe("switch.recirc", 2.0, 6.0)
        late.add("serve.flushes", 0)
        assert Counters.merged([early, late.snapshot()]) == {
            "switch.recirc.packets": 5,
            "switch.recirc.first": 1.0,
            "switch.recirc.last": 6.0,
            "serve.flushes": 0,
        }
        assert Counters.merged([late, early]) == Counters.merged([early, late])
        assert len(Counters.merged([])) == 0


@pytest.mark.parametrize(
    "path",
    [
        "repro.serve:channel_aggregate",
        "repro.serve:merge_channel_aggregates",
        "repro.serve.engine:channel_aggregate",
        "repro.serve.engine:merge_channel_aggregates",
        "repro.serve.engine:sum_counters",
        *(
            f"{owner}.{hook}"
            for owner in (
                "repro.serve.engine:InferenceEngine",
                "repro.serve:MicroBatchEngine",
                "repro.serve:StreamingEngine",
                "repro.serve:ProcessShardedEngine",
            )
            for hook in (
                "_engine_recirculation_stats",
                "_engine_channel_aggregates",
                "_batching_stats",
                "_collect_batching_stats",
                "_collect_channel_aggregates",
            )
        ),
    ],
)
def test_merge_helpers_are_gone(path):
    """Epochs and shards merge through ``Counters.merged``: the helpers are rejected, not aliased."""
    _assert_gone(path)


def test_private_counters_are_gone(splidt_model, splidt_rules):
    program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=TABLE_SIZE)
    for name in ("_admissions", "_evictions"):
        assert not hasattr(program, name)
    assert not hasattr(MicroBatchEngine(program), "_counters")
