"""Streaming-parity tests for the serving engines (`repro.serve`).

The contract (see ``repro/serve/engine.py``): for a time-ordered stream,
every engine — micro-batch in any chunking (the process-sharded engine's
half is ``tests/test_serve_process_sharded.py``), and the per-packet oracle's
own session, ``StreamingEngine`` — produces verdicts, TTD arrays and
recirculation statistics **bit-identical** to ``oracle.replay_dataset(...)``
over the same packets.  The
parameterised suite covers chunk sizes {1, 7, window-aligned, whole-dataset},
hash-collision flows (tiny register files), and the IAT accumulation-order
guarantee (configs whose subtrees use the mean/std inter-arrival features),
plus the protocol/lifecycle and backpressure behaviour, and ``stats()``
scoring the verdict snapshot exactly as ``close()`` scores its result.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro import core
from repro.analysis.ttd import summarize_ttd
from repro.core.range_marking import generate_rules, stacked_training_matrix
from repro.dataplane import SpliDTDataPlane, oracle, replay_dataset
from repro.dataplane.runtime import score_verdicts
from repro.datasets.flows import FiveTuple, Flow, FlowDataset, Packet, PacketArrays
from repro.datasets.streams import PacketChunk, iter_packet_chunks
from repro.features.window import window_boundaries
from repro.serve import (
    BackpressureError,
    SERVE_ENGINES,
    MicroBatchEngine,
    ProcessShardedEngine,
    ServeError,
    StreamingEngine,
    create_engine,
)

#: Chunk-size axis of the parity matrix; ``"window"`` splits the stream at
#: every packet that completes some flow's window, ``None`` is the whole
#: dataset in one chunk.
CHUNKINGS = (1, 7, "window", None)


def _window_aligned_chunks(flows, n_partitions: int):
    """Chunks that end exactly where some flow completes a window."""
    soa = PacketArrays.from_flows(flows)
    boundary = np.zeros(soa.n_packets, dtype=bool)
    for index, flow in enumerate(flows):
        if flow.n_packets == 0:
            continue
        start = int(soa.flow_starts[index])
        for count in window_boundaries(flow.n_packets, n_partitions):
            boundary[start + count - 1] = True
    order = soa.interleave_order
    cut_after = np.flatnonzero(boundary[order])
    pieces = np.split(order, cut_after + 1)
    return [PacketChunk(soa=soa, flows=flows, positions=piece)
            for piece in pieces if piece.size]


def _chunks(flows, chunking, n_partitions: int = 3):
    if chunking == "window":
        return _window_aligned_chunks(flows, n_partitions)
    return list(iter_packet_chunks(flows, chunking))


def _stream(engine, chunks):
    engine.open()
    for chunk in chunks:
        engine.ingest(chunk)
    engine.drain()
    return engine.close()


def _assert_identical(reference, served):
    """Field-by-field equality of a reference replay and a served result."""
    assert set(reference.verdicts) == set(served.verdicts)
    for flow_id, ref_verdict in reference.verdicts.items():
        verdict = served.verdicts[flow_id]
        assert ref_verdict.label == verdict.label
        assert ref_verdict.decided_at == verdict.decided_at
        assert ref_verdict.first_packet_at == verdict.first_packet_at
        assert ref_verdict.n_recirculations == verdict.n_recirculations
        assert ref_verdict.early_exit == verdict.early_exit
    assert np.array_equal(reference.time_to_detection(), served.time_to_detection())
    assert np.array_equal(reference.truth_ids, served.truth_ids)
    assert np.array_equal(reference.truth_labels, served.truth_labels)
    assert reference.report.f1_score == served.report.f1_score
    assert reference.recirculation == served.recirculation


class TestMicroBatchParity:
    """MicroBatchEngine == reference, for every chunking of the stream."""

    @pytest.fixture(scope="class")
    def reference(self, splidt_model, splidt_rules, small_dataset):
        program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192)
        return oracle.replay_dataset(program, small_dataset)

    @pytest.mark.parametrize("chunking", CHUNKINGS)
    def test_chunking_invariance(
        self, chunking, splidt_model, splidt_rules, small_dataset, reference
    ):
        program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192)
        engine = MicroBatchEngine(program, flush_flows=4)
        result = _stream(engine, _chunks(small_dataset.flows, chunking))
        _assert_identical(reference, result)

    @pytest.mark.parametrize("chunking", CHUNKINGS)
    def test_hash_collisions(self, chunking, splidt_model, splidt_rules, small_dataset):
        # 64 slots for 360 flows: most flows collide; undecided collision
        # flows leave dirty slots that later flows must inherit bit-exactly.
        reference = oracle.replay_dataset(
            SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=64),
            small_dataset,
        )
        program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=64)
        result = _stream(
            MicroBatchEngine(program, flush_flows=2),
            _chunks(small_dataset.flows, chunking),
        )
        _assert_identical(reference, result)

    def test_deferred_mode_equals_vectorized_replay(
        self, splidt_model, splidt_rules, small_dataset
    ):
        vectorized = replay_dataset(
            SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192),
            small_dataset,
        )
        program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192)
        # A flush threshold above the flow count defers every flow to drain:
        # the session is one big flush.
        drain_only = MicroBatchEngine(program, flush_flows=len(small_dataset.flows) + 1)
        result = _stream(drain_only, _chunks(small_dataset.flows, 64))
        _assert_identical(vectorized, result)

    def test_truncated_stream_matches_reference_prefix(
        self, splidt_model, splidt_rules, small_dataset
    ):
        # Stop the stream mid-trace: flows with buffered prefixes must replay
        # exactly as the reference loop over the same packet subset (full
        # flow sizes in the headers, no verdicts for flows that never reach
        # their final window).
        flows = small_dataset.flows
        chunks = list(iter_packet_chunks(flows, 500))
        half = chunks[: len(chunks) // 2]

        reference_program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192)
        reference = _stream(StreamingEngine(reference_program), half)

        # Eager flushes, then a threshold only drain can satisfy (every
        # buffered prefix is replayed by the one flush at drain).
        for flush_flows in (4, len(flows) + 1):
            program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192)
            result = _stream(MicroBatchEngine(program, flush_flows=flush_flows), half)
            _assert_identical(reference, result)


    def test_five_tuple_repeated_across_two_flushes(self, splidt_model, splidt_rules):
        # The second flow of tuple A arrives long after the first was flushed
        # with a verdict.  The reference engine forwards it without inference
        # (its tuple still owns the decided slot), so the slot turns contended
        # at that flow's first packet — not before, and no other slot does.
        def flow(src_ip, flow_id, start):
            packets = [
                Packet(timestamp=start + 0.1 * j, size=100 + j, flags=0x10,
                       direction=1, payload=10)
                for j in range(6)
            ]
            return Flow(five_tuple=FiveTuple(src_ip, 2, 3, 4, 6), packets=packets,
                        label=0, class_name="", flow_id=flow_id)

        flows = [flow(1, 0, 0.0), flow(7, 1, 10.0), flow(1, 2, 20.0), flow(8, 3, 30.0)]
        dataset = FlowDataset(name="t", description="", flows=flows, class_names=["a", "b"])
        reference = oracle.replay_dataset(
            SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192),
            dataset,
        )
        assert set(reference.verdicts) == {0, 1, 3}

        engine = MicroBatchEngine(
            SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192), flush_flows=1
        )
        chunks = _chunks(flows, 1)
        engine.open()
        contended_at = []
        for index, chunk in enumerate(chunks):
            engine.ingest(chunk)
            contended_at.append(int(np.count_nonzero(engine._contended)))
        result = engine.close()
        _assert_identical(reference, result)
        # Packet 12 is the first of flow 2: the slot is solo up to it.
        assert contended_at == [0] * 12 + [1] * 12
        assert engine._slots[0] == engine._slots[2]
        assert np.flatnonzero(engine._contended).tolist() == [engine._slots[0]]


@pytest.mark.parametrize(
    "key,depth,k,partitions",
    [("D1", 8, 6, 4), ("D2", 10, 5, 5)],
)
def test_microbatch_parity_across_datasets(key, depth, k, partitions):
    """Different configs activate different kernels — including the IAT
    features whose left-to-right accumulation order the vectorized machinery
    must reproduce bit for bit."""
    from test_dataplane_vectorized import _splidt_artifacts

    dataset, model, rules = _splidt_artifacts(
        key, n_flows=120, depth=depth, k=k, partitions=partitions, seed=13
    )
    reference = oracle.replay_dataset(
        SpliDTDataPlane(model, rules, flow_slots=8192), dataset)
    program = SpliDTDataPlane(model, rules, flow_slots=8192)
    result = _stream(
        MicroBatchEngine(program, flush_flows=4), _chunks(dataset.flows, 7, partitions)
    )
    _assert_identical(reference, result)


class TestStreamingAndTopK:
    def test_streaming_chunking_invariance(
        self, splidt_model, splidt_rules, small_dataset
    ):
        reference = oracle.replay_dataset(
            SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192),
            small_dataset,
        )
        program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192)
        result = _stream(StreamingEngine(program), _chunks(small_dataset.flows, 13))
        _assert_identical(reference, result)

    @pytest.mark.parametrize("chunking", (1, 7, None))
    def test_topk_microbatch(self, chunking, netbeacon_factory, small_dataset):
        reference = oracle.replay_dataset(
            netbeacon_factory(8192)(), small_dataset)
        result = _stream(
            MicroBatchEngine(netbeacon_factory(8192)(), flush_flows=4),
            _chunks(small_dataset.flows, chunking),
        )
        _assert_identical(reference, result)

    def test_topk_sharded(self, netbeacon_factory, small_dataset):
        reference = oracle.replay_dataset(netbeacon_factory(64)(), small_dataset)
        # The system's ProgramFactory, not a lambda: it is pickled into the workers.
        engine = ProcessShardedEngine(netbeacon_factory(64), workers=2)
        result = _stream(engine, _chunks(small_dataset.flows, 64))
        _assert_identical(reference, result)


class TestProtocol:
    @pytest.fixture()
    def program(self, splidt_model, splidt_rules):
        return SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192)

    def test_ingest_requires_open(self, program, small_dataset):
        engine = MicroBatchEngine(program)
        chunk = next(iter_packet_chunks(small_dataset.flows, 8))
        with pytest.raises(ServeError, match="open"):
            engine.ingest(chunk)

    def test_ingest_after_drain_rejected(self, program, small_dataset):
        engine = MicroBatchEngine(program).open()
        chunks = list(iter_packet_chunks(small_dataset.flows, 1000))
        engine.ingest(chunks[0])
        engine.drain()
        with pytest.raises(ServeError, match="drained"):
            engine.ingest(chunks[1])

    def test_out_of_order_stream_rejected(self, program, small_dataset):
        engine = MicroBatchEngine(program).open()
        chunks = list(iter_packet_chunks(small_dataset.flows, 100))
        engine.ingest(chunks[0])
        engine.ingest(chunks[1])
        with pytest.raises(ServeError, match="time-ordered"):
            engine.ingest(chunks[0])

    def test_single_source_enforced(self, program, small_dataset):
        engine = MicroBatchEngine(program).open()
        engine.ingest(next(iter_packet_chunks(small_dataset.flows, 50)))
        with pytest.raises(ServeError, match="single-source"):
            engine.ingest(next(iter_packet_chunks(small_dataset.flows[:5], 50)))

    def test_backpressure(self, program, small_dataset):
        engine = MicroBatchEngine(program, backpressure=50, flush_flows=10_000).open()
        chunks = iter_packet_chunks(small_dataset.flows, 40)
        engine.ingest(next(chunks))
        with pytest.raises(BackpressureError):
            engine.ingest(next(chunks))

    def test_close_is_idempotent_and_drains(self, program, small_dataset):
        engine = MicroBatchEngine(program).open()
        for chunk in iter_packet_chunks(small_dataset.flows, 500):
            engine.ingest(chunk)
        result = engine.close()  # implicit drain
        assert engine.close() is result
        assert engine.result() is result
        assert len(result.verdicts) > 0

    def test_stats_roll_forward(self, program, small_dataset):
        engine = MicroBatchEngine(program, flush_flows=2).open()
        seen_packets = 0
        last_decided = 0
        for chunk in iter_packet_chunks(small_dataset.flows, 2000):
            engine.ingest(chunk)
            stats = engine.stats()
            seen_packets += chunk.n_packets
            assert stats.packets == seen_packets
            assert stats.flows_decided >= last_decided
            last_decided = stats.flows_decided
        engine.drain()
        stats = engine.stats()
        assert stats.engine == "microbatch"
        assert stats.buffered_packets == 0
        assert stats.flows_decided == len(engine.verdicts())
        assert 0.0 <= stats.accuracy <= 1.0
        assert stats.ttd["max"] >= stats.ttd["median"] >= 0.0

    def test_batching_counters_follow_the_flush_sequence(self, program, small_dataset):
        engine = MicroBatchEngine(program, flush_flows=16)
        calls = {"flush": [], "eligible": 0}
        flush, eligible = engine._flush, engine._eligible
        engine._flush = lambda indices: (calls["flush"].append(indices.tolist()), flush(indices))[1]

        def counting_eligible():
            calls["eligible"] += 1
            return eligible()

        engine._eligible = counting_eligible
        engine.open()
        assert engine.stats().batching == {"flushes": 0, "flushed_flows": 0, "eligible_scans": 0}
        for chunk in iter_packet_chunks(small_dataset.flows, 700):
            engine.ingest(chunk)
            assert engine.stats().batching == {
                "flushes": len(calls["flush"]),
                "flushed_flows": sum(map(len, calls["flush"])),
                "eligible_scans": calls["eligible"],
            }
        eager = len(calls["flush"])
        assert eager > 1 and calls["eligible"] >= eager
        # An eager flush lists each flow with a ready window once, and at
        # least the floor of them.
        assert all(len(set(flushed)) == len(flushed) >= 16 for flushed in calls["flush"])
        engine.drain()
        batching = engine.stats().batching
        assert batching["flushes"] == len(calls["flush"]) in (eager, eager + 1)
        # Every flow with packets has a window, so it is in some flush.
        flushed = set().union(*calls["flush"])
        assert len(flushed) == engine.stats().flows_seen == len(small_dataset.flows)
        assert batching["flushed_flows"] == sum(map(len, calls["flush"]))
        engine.close()

    def test_batching_counters_merge_over_shards(self, splidt_model, splidt_rules, small_dataset):
        factory = partial(SpliDTDataPlane, splidt_model, splidt_rules, flow_slots=8192)
        engine = ProcessShardedEngine(factory, workers=3, flush_flows=16)
        _stream(engine, _chunks(small_dataset.flows, 700))
        batching = engine.stats().batching
        # Every flow is flushed once per flush that closes one of its windows.
        assert batching["flushed_flows"] >= len(small_dataset.flows)
        assert batching["flushes"] >= 3 and batching["eligible_scans"] > 0
        streaming = StreamingEngine(factory())
        _stream(streaming, _chunks(small_dataset.flows, None))
        assert streaming.stats().batching == {}

    def test_create_engine_dispatch(self, splidt_model, splidt_rules):
        factory = lambda: SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=256)
        assert create_engine(factory, engine="microbatch").name == "microbatch"
        assert SERVE_ENGINES == ("microbatch", "sharded-mp")
        # Removed engine names: rejected (listing the survivors), not aliased.
        # "streaming" is the per-packet oracle's session: a reference, not an
        # engine to serve with.
        for removed in ("sharded", "streaming"):
            with pytest.raises(ServeError, match=f"unknown serve engine '{removed}'.*sharded-mp"):
                create_engine(factory, engine=removed)
        with pytest.raises(TypeError, match="shards"):
            create_engine(factory, engine="microbatch", shards=2)
        with pytest.raises(ServeError, match="unknown serve engine"):
            create_engine(factory, engine="warp")


@pytest.fixture(scope="module")
def swap_factory(windowed3, splidt_config):
    """A second model (another training seed) to swap in mid-stream."""
    model = core.train_partitioned_tree(windowed3, splidt_config, random_state=17)
    rules = generate_rules(model, stacked_training_matrix(windowed3, 3))
    return partial(SpliDTDataPlane, model, rules, flow_slots=64)


class TestStatsScoreTheSnapshot:
    """``stats()`` scores the verdict snapshot exactly as ``close()`` scores its report."""

    @pytest.mark.parametrize("swap", (False, True), ids=["no-swap", "swap"])
    @pytest.mark.parametrize("kind", ("microbatch", "sharded-mp", "streaming"))
    def test_stats_equal_the_scorer(
        self, kind, swap, splidt_model, splidt_rules, small_dataset, swap_factory
    ):
        factory = partial(SpliDTDataPlane, splidt_model, splidt_rules, flow_slots=64)
        engine = {
            "microbatch": lambda: MicroBatchEngine(factory(), flush_flows=4),
            "sharded-mp": lambda: ProcessShardedEngine(factory, workers=2, flush_flows=4),
            "streaming": lambda: StreamingEngine(factory()),
        }[kind]()
        # Record the snapshot each stats() call scores (a sharded-mp
        # snapshot may grow between two calls while the stream is open).
        snapshots = []
        verdicts = engine.verdicts
        engine.verdicts = lambda: snapshots.append(verdicts()) or snapshots[-1]
        chunks = _chunks(small_dataset.flows, 97)
        engine.open()
        for index, chunk in enumerate(chunks):
            if swap and index == len(chunks) // 2:
                engine.swap_model(swap_factory)
            engine.ingest(chunk)
            stats = engine.stats()
            scored = snapshots[-1]
            truth = (chunk.soa.flow_ids, chunk.soa.labels)
            assert stats.accuracy == score_verdicts(scored, *truth).accuracy
            assert stats.ttd == summarize_ttd(scored.time_to_detection())
            assert stats.flows_decided == len(scored)
        assert stats.flows_decided > 0
        engine.drain()
        stats = engine.stats()
        result = engine.close()
        assert len(engine._epoch_children) == swap
        assert stats.flows_decided == len(result.verdicts)
        assert stats.accuracy == result.report.accuracy
        assert stats.ttd == summarize_ttd(result.time_to_detection())
