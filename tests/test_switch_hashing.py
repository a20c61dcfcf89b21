"""Unit tests for CRC32 flow hashing and the flow indexer."""

from __future__ import annotations

import binascii
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.flows import FiveTuple, Flow, Packet, PacketArrays
from repro.datasets.shm import SharedPacketArrays
from repro.datasets.streams import LazyFlowList, StreamedPacketWriter
from repro.switch.hashing import (
    FlowIndexer,
    crc32,
    crc32_columns,
    crc32_reference,
    flow_slots,
    hash_five_tuple,
    register_index,
)


class TestCrc32:
    def test_known_vector(self):
        # CRC-32 of "123456789" is the classic check value 0xCBF43926.
        assert crc32(b"123456789") == 0xCBF43926

    def test_empty_input(self):
        assert crc32(b"") == 0

    def test_matches_reference_implementation(self):
        for data in (b"", b"a", b"hello world", bytes(range(32))):
            assert crc32(data) == crc32_reference(data)

    def test_deterministic(self):
        five_tuple = FiveTuple(0x0A000001, 0xC0A80001, 1234, 443, 6)
        assert hash_five_tuple(five_tuple) == hash_five_tuple(five_tuple)

    def test_different_flows_usually_differ(self):
        a = hash_five_tuple(FiveTuple(1, 2, 3, 4, 6))
        b = hash_five_tuple(FiveTuple(1, 2, 3, 5, 6))
        assert a != b


class TestRegisterIndex:
    def test_within_table(self):
        five_tuple = FiveTuple(1, 2, 3, 4, 6)
        for size in (1, 7, 1024, 65536):
            assert 0 <= register_index(five_tuple, size) < size

    def test_invalid_table_size(self):
        with pytest.raises(ValueError):
            register_index(FiveTuple(1, 2, 3, 4, 6), 0)


def _edge_biased(bits: int):
    top = (1 << bits) - 1
    return st.one_of(st.sampled_from([0, 1, top - 1, top]), st.integers(0, top))


five_tuples = st.builds(
    FiveTuple, _edge_biased(32), _edge_biased(32), _edge_biased(16), _edge_biased(16),
    _edge_biased(8),
)


def _columns(tuples: list[FiveTuple]) -> list[np.ndarray]:
    return list(np.array([_fields(t) for t in tuples], dtype=np.int64).reshape(-1, 5).T)


class TestCrc32Columns:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(five_tuples, max_size=6))
    def test_equals_the_byte_string_crcs(self, tuples):
        digests = crc32_columns(*_columns(tuples))
        assert digests.dtype == np.uint32 and digests.shape == (len(tuples),)
        for digest, five_tuple in zip(digests.tolist(), tuples):
            encoded = five_tuple.as_bytes()
            assert digest == binascii.crc32(encoded) == crc32_reference(encoded)

    @pytest.mark.parametrize(
        "column,value",
        [(0, 2**32), (1, -1), (2, 2**16), (3, 70000), (4, 256), (4, -1)],
    )
    def test_refuses_a_value_its_field_cannot_hold(self, column, value):
        # FiveTuple.as_bytes raises OverflowError here; hashing the low bytes
        # would silently name a different flow.
        columns = _columns([FiveTuple(1, 2, 3, 4, 6), FiveTuple(5, 6, 7, 8, 17)])
        columns[column][1] = value
        with pytest.raises(ValueError, match="outside"):
            crc32_columns(*columns)
        with pytest.raises(ValueError, match="outside"):
            flow_slots(_flows_of([FiveTuple(*(int(c[1]) for c in columns))]), 16)

    def test_refuses_a_value_no_column_can_hold(self):
        with pytest.raises(ValueError, match="outside"):
            flow_slots(_flows_of([FiveTuple(2**70, 2, 3, 4, 6)]), 16)

    def test_refuses_misaligned_columns(self):
        columns = _columns([FiveTuple(1, 2, 3, 4, 6), FiveTuple(5, 6, 7, 8, 17)])
        columns[2] = columns[2][:1]
        with pytest.raises(ValueError, match="aligned"):
            crc32_columns(*columns)


def _flows_of(tuples: list[FiveTuple]) -> list[Flow]:
    return [
        Flow(
            five_tuple=five_tuple,
            packets=[Packet(timestamp=0.25 * index + 0.01 * k, size=60 + k) for k in range(2)],
            label=index % 2,
            flow_id=index,
        )
        for index, five_tuple in enumerate(tuples)
    ]


def _streamed(flows: list[Flow]):
    writer = StreamedPacketWriter()
    for flow in flows:
        writer.add_flow(
            flow.five_tuple,
            flow.label,
            timestamps=[p.timestamp for p in flow.packets],
            sizes=[p.size for p in flow.packets],
            flow_id=flow.flow_id,
        )
    return writer.finish(class_names=["a", "b"])


class TestFlowSlots:
    #: Repeats, near-misses in every field, and both ends of every range.
    TUPLES = [
        FiveTuple(0x0A000001, 0xC0A80001, 1234, 443, 6),
        FiveTuple(0x0A000001, 0xC0A80001, 1234, 443, 17),
        FiveTuple(0, 0, 0, 0, 0),
        FiveTuple(2**32 - 1, 2**32 - 1, 65535, 65535, 255),
        FiveTuple(0x0A000001, 0xC0A80001, 1234, 443, 6),
        FiveTuple(0x0A000001, 0xC0A80001, 1234, 444, 6),
        FiveTuple(0x0A000001, 0xC0A80001, 1235, 443, 6),
        FiveTuple(0x0A000002, 0xC0A80001, 1234, 443, 6),
        FiveTuple(0, 0, 0, 0, 0),
        FiveTuple(0x0A000001, 0xC0A80002, 1234, 443, 6),
    ]

    @pytest.mark.parametrize("table_size", [1, 7, 1000, 65536, 2**20 + 3])
    def test_every_source_matches_the_register_index_loop(self, table_size):
        flows = _flows_of(self.TUPLES)
        expected_slots = [register_index(t, table_size) for t in self.TUPLES]
        # The ids the packed-word lexsort always assigned: rank among the
        # distinct tuples in field order.
        rank = {t: i for i, t in enumerate(sorted({_fields(t) for t in self.TUPLES}))}
        expected_ids = [rank[_fields(t)] for t in self.TUPLES]
        with _streamed(flows) as source:
            assert isinstance(source.flows, LazyFlowList)
            assert isinstance(source.soa.timestamps, np.memmap)
            for handed in (flows, PacketArrays.from_flows(flows), source.flows, source.soa):
                slots, tuple_ids = flow_slots(handed, table_size, return_tuple_ids=True)
                assert slots.dtype == np.intp and slots.tolist() == expected_slots
                assert tuple_ids.dtype == np.int64 and tuple_ids.tolist() == expected_ids
                assert np.array_equal(flow_slots(handed, table_size), slots)

    def test_lazy_flow_list_is_hashed_without_building_a_flow(self, monkeypatch):
        with _streamed(_flows_of(self.TUPLES)) as source:
            monkeypatch.setattr(
                LazyFlowList, "__getitem__", lambda self, index: pytest.fail("built a Flow")
            )
            flow_slots(source.flows, 64, return_tuple_ids=True)

    def test_makes_no_per_flow_hash_call(self, monkeypatch):
        import repro.switch.hashing as hashing

        for name in ("register_index", "hash_five_tuple", "crc32"):
            monkeypatch.setattr(hashing, name, lambda *a, **k: pytest.fail("per-flow hash"))
        flow_slots(_flows_of(self.TUPLES), 64, return_tuple_ids=True)

    def test_empty_sources(self):
        for handed in ([], PacketArrays.from_flows([])):
            slots, tuple_ids = flow_slots(handed, 8, return_tuple_ids=True)
            assert slots.shape == tuple_ids.shape == (0,)
            assert slots.dtype == np.intp

    @pytest.mark.parametrize("table_size", [0, -4])
    def test_table_size_is_validated_even_with_no_flows(self, table_size):
        # Used to be checked only inside the per-flow register_index call,
        # so an empty flow list slipped through with an empty array.
        for handed in ([], _flows_of(self.TUPLES), PacketArrays.from_flows([])):
            with pytest.raises(ValueError, match="table_size"):
                flow_slots(handed, table_size)

    def test_worker_view_hashes_like_the_parent(self, small_dataset):
        # What a sharded-mp worker holds: columns attached from the pickled
        # layout and a lazy flow list over them; the columns, the list and the
        # flows it materialises must all name flows as the parent does.
        soa = small_dataset.packet_arrays()
        expected = flow_slots(small_dataset.flows, 1021, return_tuple_ids=True)
        shared = SharedPacketArrays.create(soa)
        try:
            view = SharedPacketArrays.attach(pickle.loads(pickle.dumps(shared.layout)))
            arrays = view.arrays
            assert np.array_equal(arrays.src_ips, soa.src_ips)
            assert np.array_equal(arrays.dst_ips, soa.dst_ips)
            lazy = LazyFlowList(arrays)
            for handed in (arrays, lazy, list(lazy)):
                slots, tuple_ids = flow_slots(handed, 1021, return_tuple_ids=True)
                assert np.array_equal(slots, expected[0])
                assert np.array_equal(tuple_ids, expected[1])
            del arrays, lazy, handed
            view.close()
        finally:
            shared.unlink()
            shared.close()


def _fields(five_tuple: FiveTuple) -> tuple[int, ...]:
    t = five_tuple
    return (t.src_ip, t.dst_ip, t.src_port, t.dst_port, t.protocol)


class TestFlowIndexer:
    def test_same_flow_same_slot(self):
        indexer = FlowIndexer(1024)
        five_tuple = FiveTuple(1, 2, 3, 4, 6)
        assert indexer.index_for(five_tuple) == indexer.index_for(five_tuple)
        assert indexer.index_for(five_tuple) == register_index(five_tuple, 1024)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            FlowIndexer(0)
