"""Chunked packet iteration (`repro.datasets.streams`, `PacketArrays.iter_chunks`)."""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.datasets.flows import FiveTuple, Flow, Packet, PacketArrays
from repro.datasets.streams import (
    LazyFlowList,
    PacketChunk,
    StreamedPacketWriter,
    iter_packet_chunks,
)


class TestIterChunks:
    def test_chunks_partition_interleave_order(self, small_dataset):
        soa = small_dataset.packet_arrays()
        pieces = list(soa.iter_chunks(97))
        assert np.array_equal(np.concatenate(pieces), soa.interleave_order)
        assert all(len(piece) <= 97 for piece in pieces)
        assert sum(len(piece) for piece in pieces) == soa.n_packets

    def test_none_yields_whole_stream(self, small_dataset):
        soa = small_dataset.packet_arrays()
        pieces = list(soa.iter_chunks(None))
        assert len(pieces) == 1
        assert np.array_equal(pieces[0], soa.interleave_order)

    def test_empty_source_yields_one_empty_chunk(self):
        soa = PacketArrays.from_flows([])
        pieces = list(soa.iter_chunks(8))
        assert len(pieces) == 1 and pieces[0].size == 0


class TestIterPacketChunks:
    def test_accepts_dataset_and_flow_list(self, small_dataset):
        from_dataset = list(iter_packet_chunks(small_dataset, 256))
        from_flows = list(iter_packet_chunks(small_dataset.flows, 256))
        assert len(from_dataset) == len(from_flows)
        for a, b in zip(from_dataset, from_flows):
            assert np.array_equal(a.positions, b.positions)

    def test_chunks_share_one_source(self, small_dataset):
        chunks = list(iter_packet_chunks(small_dataset, 500))
        assert len(chunks) > 1
        assert all(chunk.soa is chunks[0].soa for chunk in chunks)
        assert all(chunk.flows is chunks[0].flows for chunk in chunks)

    def test_chunk_timestamps_are_globally_ordered(self, small_dataset):
        previous = float("-inf")
        for chunk in iter_packet_chunks(small_dataset, 73):
            timestamps = chunk.timestamps()
            assert np.all(np.diff(timestamps) >= 0)
            if timestamps.size:
                assert timestamps[0] >= previous
                previous = float(timestamps[-1])

    def test_reuses_provided_soa(self, small_dataset):
        soa = small_dataset.packet_arrays()
        chunk = next(iter_packet_chunks(small_dataset.flows, None, soa=soa))
        assert chunk.soa is soa
        assert chunk.n_packets == soa.n_packets

    def test_rejects_bad_chunk_size(self, small_dataset):
        with pytest.raises(ValueError, match="chunk_size"):
            next(iter_packet_chunks(small_dataset, 0))

    def test_packet_chunk_helpers(self, small_dataset):
        chunk = next(iter_packet_chunks(small_dataset, 11))
        assert isinstance(chunk, PacketChunk)
        assert chunk.n_packets == 11
        assert chunk.timestamps().shape == (11,)


@pytest.fixture(scope="module")
def streamed_source(small_dataset):
    """The small dataset spilled through a StreamedPacketWriter."""
    writer = StreamedPacketWriter()
    for flow in small_dataset.flows:
        writer.add_flow(
            flow.five_tuple,
            flow.label,
            timestamps=[p.timestamp for p in flow.packets],
            sizes=[p.size for p in flow.packets],
            flags=[p.flags for p in flow.packets],
            directions=[p.direction for p in flow.packets],
            payloads=[p.payload for p in flow.packets],
            flow_id=flow.flow_id,
        )
    source = writer.finish(name="streamed-d3", class_names=small_dataset.class_names)
    yield source
    source.close()


_ALL_COLUMNS = (
    "timestamps", "sizes", "flags", "directions", "payloads", "packet_flow",
    "flow_starts", "flow_ids", "labels", "n_packets_per_flow",
    "src_ports", "dst_ports", "protocols",
    "first_sizes", "first_timestamps", "interleave_order",
)


class TestStreamedPacketWriter:
    def test_columns_bit_identical_to_from_flows(self, small_dataset, streamed_source):
        reference = PacketArrays.from_flows(small_dataset.flows)
        for column in _ALL_COLUMNS:
            got = np.asarray(getattr(streamed_source.soa, column))
            want = np.asarray(getattr(reference, column))
            assert np.array_equal(got, want), column

    def test_lazy_flows_round_trip(self, small_dataset, streamed_source):
        assert len(streamed_source.flows) == small_dataset.n_flows
        for index in (0, 17, small_dataset.n_flows - 1):
            lazy, real = streamed_source.flows[index], small_dataset.flows[index]
            assert lazy.five_tuple == real.five_tuple
            assert lazy.label == real.label
            assert lazy.flow_id == real.flow_id
            assert lazy.class_name == real.class_name
            assert lazy.n_packets == real.n_packets
            assert lazy.packets[-1].timestamp == real.packets[-1].timestamp  # negative index
            assert lazy.packets[0].size == real.packets[0].size

    def test_lazy_flows_negative_and_out_of_range(self, streamed_source):
        n = len(streamed_source.flows)
        assert streamed_source.flows[-1].flow_id == streamed_source.flows[n - 1].flow_id
        with pytest.raises(IndexError):
            streamed_source.flows[n]
        first = streamed_source.flows[0]
        with pytest.raises(IndexError):
            first.packets[first.n_packets]

    def test_iter_packet_chunks_does_not_materialise(self, streamed_source):
        chunks = list(streamed_source.iter_chunks(97))
        assert all(chunk.flows is streamed_source.flows for chunk in chunks)
        assert isinstance(chunks[0].flows, LazyFlowList)
        total = sum(chunk.n_packets for chunk in chunks)
        assert total == streamed_source.n_packets

    def test_block_append_matches_per_flow_append(self, small_dataset):
        flows = small_dataset.flows[:40]
        per_flow = StreamedPacketWriter()
        for flow in flows:
            per_flow.add_flow(
                flow.five_tuple,
                flow.label,
                timestamps=[p.timestamp for p in flow.packets],
                sizes=[p.size for p in flow.packets],
                flags=[p.flags for p in flow.packets],
                directions=[p.direction for p in flow.packets],
                payloads=[p.payload for p in flow.packets],
                flow_id=flow.flow_id,
            )
        block = StreamedPacketWriter()
        block.add_flow_block(
            src_ips=np.array([f.five_tuple.src_ip for f in flows]),
            dst_ips=np.array([f.five_tuple.dst_ip for f in flows]),
            src_ports=np.array([f.five_tuple.src_port for f in flows]),
            dst_ports=np.array([f.five_tuple.dst_port for f in flows]),
            protocols=np.array([f.five_tuple.protocol for f in flows]),
            labels=np.array([f.label for f in flows]),
            counts=np.array([f.n_packets for f in flows]),
            timestamps=np.array([p.timestamp for f in flows for p in f.packets]),
            sizes=np.array([p.size for f in flows for p in f.packets]),
            flags=np.array([p.flags for f in flows for p in f.packets]),
            directions=np.array([p.direction for f in flows for p in f.packets]),
            payloads=np.array([p.payload for f in flows for p in f.packets]),
            flow_ids=np.array([f.flow_id for f in flows]),
        )
        with per_flow.finish() as a, block.finish() as b:
            for column in _ALL_COLUMNS:
                assert np.array_equal(
                    np.asarray(getattr(a.soa, column)), np.asarray(getattr(b.soa, column))
                ), column

    def test_non_monotonic_flow_ids_still_match_lexsort(self):
        # Two flows sharing one timestamp but appended in descending-id order
        # force the full lexsort path; the interleave must order the tie by
        # flow id, not append order.
        writer = StreamedPacketWriter()
        writer.add_flow(
            FiveTuple(1, 2, 3, 4, 6), 0, timestamps=[5.0], sizes=[100], flow_id=9
        )
        writer.add_flow(
            FiveTuple(5, 6, 7, 8, 6), 1, timestamps=[5.0], sizes=[200], flow_id=2
        )
        with writer.finish() as source:
            assert list(source.soa.interleave_order) == [1, 0]

    def test_empty_writer_finishes(self):
        with StreamedPacketWriter().finish() as source:
            assert source.n_flows == 0 and source.n_packets == 0
            chunks = list(source.iter_chunks(8))
            assert len(chunks) == 1 and chunks[0].n_packets == 0

    def test_writer_rejects_use_after_finish(self):
        writer = StreamedPacketWriter()
        source = writer.finish()
        try:
            with pytest.raises(RuntimeError, match="finished"):
                writer.add_flow(FiveTuple(1, 2, 3, 4, 6), 0, timestamps=[], sizes=[])
        finally:
            source.close()

    def test_close_removes_backing_directory(self):
        writer = StreamedPacketWriter()
        writer.add_flow(FiveTuple(1, 2, 3, 4, 6), 0, timestamps=[0.0], sizes=[64])
        source = writer.finish()
        directory = source.directory
        assert directory.exists() and source.spilled_bytes() > 0
        source.close()
        assert not directory.exists()
        source.close()  # idempotent

    def test_materialised_estimate_dominates_spilled(self, streamed_source):
        # The object-form estimate must exceed the raw spilled bytes by a
        # healthy margin — that gap is the whole point of streaming.
        assert streamed_source.materialised_bytes_estimate() > streamed_source.spilled_bytes()

    def test_object_estimate_matches_tracemalloc(self, streamed_source):
        # The object term counts what holding the same D3 traffic as
        # Flow/Packet objects really allocates (slotted packets, unique
        # timestamp floats, sizes and payloads past the small-int cache).
        # Generated flows view columns, so the objects are built here.
        dataset = load_dataset("D3", n_flows=360, seed=11)
        views = list(dataset.flows)
        gc.collect()
        tracemalloc.start()
        try:
            flows = [
                Flow(
                    FiveTuple(*dataclasses.astuple(view.five_tuple)),
                    [
                        Packet(p.timestamp, int(p.size), p.flags, p.direction, int(p.payload))
                        for p in view.packets
                    ],
                    view.label, view.class_name, view.flow_id,
                )
                for view in views
            ]
            gc.collect()
            measured = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        n_packets = sum(flow.n_packets for flow in flows)
        assert n_packets == streamed_source.n_packets
        estimated = streamed_source._object_bytes()
        assert estimated / n_packets == pytest.approx(measured / n_packets, rel=0.2)


class TestStreamedReplayParity:
    def test_fused_replay_matches_materialised(
        self, small_dataset, streamed_source, splidt_model, splidt_rules
    ):
        from repro.dataplane import SpliDTDataPlane
        from repro.dataplane import vectorized as vz

        def run(flows, soa):
            program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=64)
            vz.replay_arrays(program, flows, soa=soa)
            return dict(program.verdicts), program.recirculation_stats()

        want = run(small_dataset.flows, small_dataset.packet_arrays())
        got = run(streamed_source.flows, streamed_source.soa)
        assert got == want

    def test_serve_engine_accepts_streamed_chunks(
        self, streamed_source, splidt_model, splidt_rules
    ):
        from repro.dataplane import SpliDTDataPlane
        from repro.serve import MicroBatchEngine

        program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=64)
        engine = MicroBatchEngine(program).open()
        for chunk in streamed_source.iter_chunks(256):
            engine.ingest(chunk)
        result = engine.close()
        assert engine.verdicts()  # flows decided through the streamed path
        assert len(result.labels) == streamed_source.n_flows
