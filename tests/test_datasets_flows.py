"""Unit tests for the packet/flow data model."""

from __future__ import annotations

import copy
import dataclasses
import doctest
import pickle

import numpy as np
import pytest

from repro.datasets.flows import FiveTuple, Flow, FlowDataset, Packet, TCP_FLAGS


def _flow(label: int = 0, n: int = 5) -> Flow:
    packets = [Packet(timestamp=i * 0.5, size=100 + i * 10) for i in range(n)]
    return Flow(FiveTuple(1, 2, 10, 20, 6), packets, label=label, flow_id=label)


class TestFiveTuple:
    def test_as_bytes_length(self):
        assert len(FiveTuple(1, 2, 3, 4, 6).as_bytes()) == 13

    def test_as_bytes_distinguishes_flows(self):
        a = FiveTuple(1, 2, 3, 4, 6).as_bytes()
        b = FiveTuple(1, 2, 3, 5, 6).as_bytes()
        assert a != b

    def test_hashable_and_equal(self):
        assert FiveTuple(1, 2, 3, 4, 6) == FiveTuple(1, 2, 3, 4, 6)
        assert hash(FiveTuple(1, 2, 3, 4, 6)) == hash(FiveTuple(1, 2, 3, 4, 6))


class TestPacket:
    def test_flag_helper(self):
        packet = Packet(timestamp=0.0, size=60, flags=TCP_FLAGS["SYN"] | TCP_FLAGS["ACK"])
        assert packet.has_flag("SYN")
        assert packet.has_flag("ACK")
        assert not packet.has_flag("FIN")

    def test_slotted_layout(self):
        # Replay holds every packet of the trace live: no per-packet dict.
        packet = Packet(timestamp=0.25, size=1400, flags=0x18, direction=-1, payload=1348)
        assert not hasattr(packet, "__dict__")
        with pytest.raises(AttributeError):
            packet.extra = 1

    def test_round_trips_with_equal_fields(self):
        packet = Packet(timestamp=0.25, size=1400, flags=0x18, direction=-1, payload=1348)
        fields = dataclasses.astuple(packet)
        clones = (
            pickle.loads(pickle.dumps(packet)),
            copy.copy(packet),
            dataclasses.replace(packet),
        )
        for clone in clones:
            assert clone is not packet and clone == packet
            assert dataclasses.astuple(clone) == fields
        assert dataclasses.replace(packet, size=60).size == 60 and packet.size == 1400

    def test_docstring_examples(self):
        tests = doctest.DocTestFinder().find(Packet, globs={"Packet": Packet})
        runner = doctest.DocTestRunner()
        for test in tests:
            runner.run(test)
        assert runner.summarize(verbose=False) == (0, 1)


class TestFlow:
    def test_counts_and_bytes(self):
        flow = _flow(n=5)
        assert flow.n_packets == 5


class TestFlowDataset:
    def _dataset(self) -> FlowDataset:
        flows = [_flow(label=i % 3) for i in range(9)]
        return FlowDataset("T", "test", flows, class_names=["a", "b", "c"])

    def test_basic_counts(self):
        dataset = self._dataset()
        assert dataset.n_flows == 9
        assert len(dataset.class_names) == 3

    def test_labels_vector(self):
        labels = self._dataset().packet_arrays().labels
        assert labels.shape == (9,)
        assert set(labels) == {0, 1, 2}

    def test_class_counts(self):
        dataset = self._dataset()
        counts = np.bincount(dataset.packet_arrays().labels, minlength=len(dataset.class_names))
        np.testing.assert_array_equal(counts, [3, 3, 3])

    def test_subset(self):
        dataset = self._dataset()
        subset = dataset.subset(np.array([0, 1, 2]))
        assert subset.n_flows == 3
        assert subset.class_names == dataset.class_names
