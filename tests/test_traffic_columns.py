"""Traffic is columns: every source ends in one ``PacketArrays``; flows and packets are views.

Generation writes each packet's fields straight into its flow's columns
(the golden digests in ``test_datasets_generators.py`` hold the draws), so
no generation, replay or serving path builds a :class:`Packet`; a source's
flows are a :class:`LazyFlowList` whose ``from_flows`` hands over the
columns themselves.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.dataplane import SpliDTDataPlane, prepare_replay_flows, replay_dataset
from repro.datasets import PhaseShiftGenerator, SyntheticTrafficGenerator, get_profile
from repro.datasets.flows import (
    FiveTuple,
    Flow,
    FlowDataset,
    LazyFlowList,
    Packet,
    PacketArrays,
)
from repro.datasets.streams import iter_packet_chunks
from repro.scenarios import LayerSpec, ScenarioSpec, build_workload
from repro.serve import MicroBatchEngine

#: Every layer kind, on a legitimate block and an appended flood.
LAYERS = (
    LayerSpec("heavy-hitter", {"n_sources": 4}),
    LayerSpec("flash-crowd", {"fraction": 0.5}),
    LayerSpec("evasion", {"scale": 0.5}),
    LayerSpec("ddos-flood", {"flows": 50}),
)


def _live_packets() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is Packet)


@pytest.fixture
def built_packets(monkeypatch):
    """Counts :class:`Packet` constructions while the test runs."""
    built = []
    init = Packet.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Packet, "__init__", counting)
    return built


def _d3(seed: int = 5) -> SyntheticTrafficGenerator:
    return SyntheticTrafficGenerator(get_profile("D3"), seed=seed)


SOURCES = {
    "generate": lambda: _d3().generate(40),
    "iter_flows": lambda: list(_d3().iter_flows(40)),
    "phase-shift": lambda: PhaseShiftGenerator(get_profile("D3"), seed=4).generate(40),
    "workload": lambda: build_workload(
        ScenarioSpec(name="layers", dataset="D3", traffic_flows=40, seed=3, layers=LAYERS)
    ),
    "workload-streamed": lambda: build_workload(
        ScenarioSpec(
            name="layers", dataset="D3", traffic_flows=40, seed=3, layers=LAYERS, streamed=True
        )
    ),
}


class TestNoPacketObjects:
    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_generation_leaves_no_packet_alive(self, source, built_packets):
        before = _live_packets()
        traffic = SOURCES[source]()
        assert _live_packets() == before
        assert not built_packets
        if hasattr(traffic, "close"):
            traffic.close()

    @pytest.mark.parametrize("source", ["generate", "phase-shift", "workload"])
    def test_a_generated_source_is_one_soa_viewed_by_its_flows(self, source):
        traffic = SOURCES[source]()
        flows = traffic.flows
        assert isinstance(flows, LazyFlowList)
        soa = traffic.packet_arrays() if isinstance(traffic, FlowDataset) else traffic.soa
        assert flows.soa is soa
        # The harness's call: no second copy of the columns, a cache of its own.
        copy = PacketArrays.from_flows(flows)
        for name, value in vars(soa).items():
            if isinstance(value, np.ndarray):
                assert getattr(copy, name) is value, name
        assert copy.derived is not soa.derived

    def test_replay_and_serving_build_no_packet(
        self, splidt_model, splidt_rules, small_dataset, built_packets
    ):
        replay_dataset(SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=64), small_dataset)
        engine = MicroBatchEngine(
            SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=64)
        ).open()
        for chunk in iter_packet_chunks(small_dataset, 512):
            engine.ingest(chunk)
        engine.close()
        assert not built_packets


def test_generating_d3_peaks_near_its_columns():
    """Peak traced bytes of drawing 2,000 D3 flows and reading their SoA, over the columns' bytes.

    Drawing into columns peaks at ~1.1x the final columns (the per-flow
    parts and the joined columns); one ``Packet`` per packet plus the
    ``from_flows`` copy peaked at ~3.7x.
    """
    generator = SyntheticTrafficGenerator(
        get_profile("D3"), seed=7, rng=np.random.default_rng(7)
    )
    gc.collect()
    tracemalloc.start()
    try:
        dataset = generator.generate(2000)
        soa = PacketArrays.from_flows(dataset.flows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(value.nbytes for value in vars(soa).values() if isinstance(value, np.ndarray))
    assert soa.n_packets > 200_000
    assert peak / columns < 2.0, peak / columns


class TestFlowViews:
    def test_a_list_of_views_is_read_back_as_its_columns(self, small_dataset, built_packets):
        soa = small_dataset.packet_arrays()
        picked = [4, 0, 17, 3]
        gathered = PacketArrays.from_flows([small_dataset.flows[i] for i in picked])
        want = soa.take(np.array(picked))
        for name, value in vars(want).items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(getattr(gathered, name), value), name
        assert not built_packets

    def test_take_gathers_each_flows_packets(self, small_dataset):
        soa = small_dataset.packet_arrays()
        picked = np.array([9, 2, 2, 30])
        taken = soa.take(picked)
        for row, flow in enumerate(picked.tolist()):
            lo, hi = soa.flow_starts[flow], soa.flow_starts[flow + 1]
            got = slice(taken.flow_starts[row], taken.flow_starts[row + 1])
            assert np.array_equal(taken.timestamps[got], soa.timestamps[lo:hi])
            assert np.array_equal(taken.flags[got], soa.flags[lo:hi])
            assert taken.flow_ids[row] == soa.flow_ids[flow]
            assert taken.src_ips[row] == soa.src_ips[flow]
        # Flow ids out of order: ties in flow-id order all the same.
        order = np.lexsort((taken.flow_ids[taken.packet_flow], taken.timestamps))
        assert np.array_equal(taken.interleave_order, order)

    def test_a_slice_is_a_lazy_list_of_the_sliced_flows(self, small_dataset):
        flows = small_dataset.flows[10:20]
        assert isinstance(flows, LazyFlowList) and len(flows) == 10
        assert [flow.flow_id for flow in flows] == list(range(10, 20))
        assert flows[0].packets[-1] == small_dataset.flows[10].packets[-1]

    def test_labels_and_subset_read_the_columns(self, small_dataset, monkeypatch):
        def no_flow(self, index):
            raise AssertionError("a flow was built")

        monkeypatch.setattr(LazyFlowList, "__getitem__", no_flow)
        labels = small_dataset.packet_arrays().labels
        subset = small_dataset.subset(np.array([5, 1]))
        assert subset.packet_arrays().labels.tolist() == [labels[5], labels[1]]

    def test_hand_built_flows_keep_their_values(self):
        packets = [Packet(0.5, 60.5, 0x12, -1, 20.25), Packet(0.75, 1500, 0x10, 1, 1400)]
        flow = Flow(five_tuple=FiveTuple(1, 2, 3, 4, 6), packets=packets, label=1, flow_id=3)
        soa = PacketArrays.from_flows([flow])
        assert soa.sizes.tolist() == [60.5, 1500.0] and soa.flags.tolist() == [0x12, 0x10]
        view = LazyFlowList(soa)[0]
        assert list(view.packets) == packets


class TestReplayFlows:
    def test_unchanged_flows_view_the_datasets_own_columns(self, small_dataset):
        flows = prepare_replay_flows(small_dataset)
        assert flows.soa is small_dataset.packet_arrays()
