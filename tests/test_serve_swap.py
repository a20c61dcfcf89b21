"""Parity suite for `InferenceEngine.swap_model` across the engines and the oracle session.

The swap contract (see ``repro/serve/engine.py``):

* swapping to an *identical* model is fully invisible — verdicts, TTD
  arrays and merged recirculation counters match the no-swap session
  bit-for-bit, for any chunking, at collision pressure, and mid-micro-batch
  with buffered undecided flows;
* flows that began before the swap produce verdicts bit-identical to a
  no-swap replay of the **old** model, even when the successor is a
  different model;
* the pin/rebind decision is a pure function of the stream prefix, so the
  micro-batch and process-sharded engines and the per-packet oracle's
  session (``StreamingEngine``) all partition flows across model epochs
  identically — the cross-engine parity contract survives the swap.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import core
from repro.core.range_marking import generate_rules, stacked_training_matrix
from repro.dataplane import SpliDTDataPlane
from repro.dataplane.oracle import replay_dataset as oracle_replay
from repro.datasets.flows import FiveTuple, Flow, Packet, PacketArrays
from repro.serve import (
    InferenceEngine,
    MicroBatchEngine,
    ProcessShardedEngine,
    ServeError,
    StreamingEngine,
)
from repro.switch.eviction import IdleTimeoutEviction
from test_serve_engines import _assert_identical, _chunks, _stream
from test_serve_process_sharded import ProgramFactory


@pytest.fixture(scope="module")
def alt_model(windowed3, splidt_config):
    """A second model (different training seed) to swap in mid-stream."""
    return core.train_partitioned_tree(windowed3, splidt_config, random_state=17)


@pytest.fixture(scope="module")
def alt_rules(alt_model, windowed3):
    return generate_rules(alt_model, stacked_training_matrix(windowed3, 3))


def _make_engine(kind, factory, *, flush_flows=4):
    if kind == "streaming":
        return StreamingEngine(factory())
    if kind == "microbatch":
        return MicroBatchEngine(factory(), flush_flows=flush_flows)
    if kind == "sharded-mp":
        return ProcessShardedEngine(factory, workers=2, flush_flows=flush_flows)
    raise AssertionError(kind)


def _stream_with_swaps(engine, chunks, swaps):
    """Stream ``chunks``, calling swap_model(factory) at given chunk indices.

    ``swaps`` maps chunk index -> program factory; the swap happens *before*
    the chunk with that index is ingested.  Returns (result, swap events).
    """
    engine.open()
    events = []
    for index, chunk in enumerate(chunks):
        if index in swaps:
            events.append(engine.swap_model(swaps[index]))
        engine.ingest(chunk)
    if len(chunks) in swaps:
        events.append(engine.swap_model(swaps[len(chunks)]))
    engine.drain()
    return engine.close(), events


ENGINES = ("streaming", "microbatch", "sharded-mp")


class TestSameModelSwapInvisible:
    """Swapping in an identical model changes nothing, bit for bit."""

    @pytest.mark.parametrize("kind", ENGINES)
    @pytest.mark.parametrize("flow_slots", (8192, 64))
    def test_mid_stream_swap(
        self, kind, flow_slots, splidt_model, splidt_rules, small_dataset
    ):
        reference = oracle_replay(
            SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=flow_slots),
            small_dataset,
        )
        factory = ProgramFactory(splidt_model, splidt_rules, flow_slots)
        chunks = _chunks(small_dataset.flows, 64)
        engine = _make_engine(kind, factory)
        result, events = _stream_with_swaps(
            engine, chunks, {len(chunks) // 2: factory}
        )
        _assert_identical(reference, result)
        assert len(events) == 1 and events[0].epoch == 1
        # 64 slots for 360 flows: the swap lands amid undecided collision
        # flows, which must pin their slots to the old program.
        if flow_slots == 64:
            assert events[0].pinned_slots > 0

    def test_swap_mid_micro_batch(self, splidt_model, splidt_rules, small_dataset):
        # A flush threshold the stream never reaches keeps every packet
        # buffered: the swap hits mid-batch with the whole backlog in flight.
        reference = oracle_replay(
            SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=64),
            small_dataset,
        )
        factory = ProgramFactory(splidt_model, splidt_rules, 64)
        chunks = _chunks(small_dataset.flows, 64)
        engine = MicroBatchEngine(factory(), flush_flows=10_000)
        result, events = _stream_with_swaps(engine, chunks, {len(chunks) // 2: factory})
        _assert_identical(reference, result)
        assert events[0].buffered_packets > 0
        assert events[0].pinned_flows > 0

    @pytest.mark.parametrize("kind", ENGINES)
    def test_repeated_swaps(self, kind, splidt_model, splidt_rules, small_dataset):
        reference = oracle_replay(
            SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=64),
            small_dataset,
        )
        factory = ProgramFactory(splidt_model, splidt_rules, 64)
        chunks = _chunks(small_dataset.flows, 64)
        third = max(1, len(chunks) // 3)
        engine = _make_engine(kind, factory)
        result, events = _stream_with_swaps(
            engine, chunks, {third: factory, 2 * third: factory}
        )
        _assert_identical(reference, result)
        assert [event.epoch for event in events] == [1, 2]

    def test_window_aligned_chunking(self, splidt_model, splidt_rules, small_dataset):
        reference = oracle_replay(
            SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192),
            small_dataset,
        )
        factory = ProgramFactory(splidt_model, splidt_rules, 8192)
        chunks = _chunks(small_dataset.flows, "window")
        engine = MicroBatchEngine(factory(), flush_flows=4)
        result, _ = _stream_with_swaps(engine, chunks, {len(chunks) // 2: factory})
        _assert_identical(reference, result)


class TestCrossEngineParityAfterSwap:
    """All four engines partition flows across epochs identically."""

    @pytest.fixture(scope="class")
    def oracle(self, splidt_model, splidt_rules, alt_model, alt_rules, small_dataset):
        """Streaming-engine session with a real model change mid-stream."""
        chunks = _chunks(small_dataset.flows, 64)
        engine = StreamingEngine(
            SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=64)
        )
        result, events = _stream_with_swaps(
            engine,
            chunks,
            {len(chunks) // 2: ProgramFactory(alt_model, alt_rules, 64)},
        )
        return result, events[0]

    @pytest.mark.parametrize("kind", ("microbatch", "sharded-mp"))
    def test_engine_matches_streaming_oracle(
        self, kind, splidt_model, splidt_rules, alt_model, alt_rules,
        small_dataset, oracle
    ):
        oracle_result, oracle_event = oracle
        chunks = _chunks(small_dataset.flows, 64)
        engine = _make_engine(
            kind, ProgramFactory(splidt_model, splidt_rules, 64)
        )
        result, events = _stream_with_swaps(
            engine,
            chunks,
            {len(chunks) // 2: ProgramFactory(alt_model, alt_rules, 64)},
        )
        _assert_identical(oracle_result, result)
        assert events[0].started_flow_ids == oracle_event.started_flow_ids
        assert events[0].pinned_slots == oracle_event.pinned_slots

    def test_swap_under_idle_timeout_eviction_matches_streaming_oracle(
        self, splidt_model, splidt_rules, alt_model, alt_rules, small_dataset
    ):
        # A real model change mid-stream on 64 slots while residents are
        # being evicted: the micro-batch engine pins, rebinds and evicts
        # exactly as the per-packet session does.
        eviction = IdleTimeoutEviction(timeout=0.5)
        chunks = _chunks(small_dataset.flows, 64)
        sessions = []
        for engine in (
            StreamingEngine(SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=64,
                                            eviction=eviction)),
            MicroBatchEngine(ProgramFactory(splidt_model, splidt_rules, 64, eviction)(),
                             flush_flows=4),
        ):
            engine.open()
            for index, chunk in enumerate(chunks):
                if index == len(chunks) // 2:
                    event = engine.swap_model(
                        ProgramFactory(alt_model, alt_rules, 64, eviction)
                    )
                engine.ingest(chunk)
            engine.drain()
            evictions = engine.stats().counters["switch.evictions"]
            sessions.append((engine.close(), event, evictions))
        (oracle_result, oracle_event, oracle_evictions), (result, event, evictions) = sessions
        assert oracle_evictions >= 1
        _assert_identical(oracle_result, result)
        assert event.started_flow_ids == oracle_event.started_flow_ids
        assert event.pinned_slots == oracle_event.pinned_slots
        assert evictions == oracle_evictions

    def test_pre_swap_flows_match_old_model_replay(
        self, splidt_model, splidt_rules, alt_model, alt_rules, small_dataset, oracle
    ):
        """Flows that began before the swap == no-swap replay of the old model."""
        oracle_result, event = oracle
        old = oracle_replay(
            SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=64),
            small_dataset,
        )
        assert event.flows_started == len(event.started_flow_ids) > 0
        checked = 0
        for flow_id in event.started_flow_ids:
            swapped = oracle_result.verdicts.get(flow_id)
            static = old.verdicts.get(flow_id)
            assert (swapped is None) == (static is None)
            if static is not None:
                assert swapped.label == static.label
                assert swapped.decided_at == static.decided_at
                assert swapped.first_packet_at == static.first_packet_at
                assert swapped.n_recirculations == static.n_recirculations
                assert swapped.early_exit == static.early_exit
                checked += 1
        assert checked > 0

    def test_post_swap_new_flows_use_new_model(
        self, splidt_model, splidt_rules, alt_model, alt_rules, small_dataset, oracle
    ):
        """Some post-swap flow verdict must come from the new model's replay."""
        oracle_result, event = oracle
        new = oracle_replay(
            SpliDTDataPlane(alt_model, alt_rules, flow_slots=64),
            small_dataset,
        )
        post = set(oracle_result.verdicts) - set(event.started_flow_ids)
        assert post, "expected flows that started after the swap"
        matching_new = sum(
            1
            for flow_id in post
            if flow_id in new.verdicts
            and oracle_result.verdicts[flow_id].label == new.verdicts[flow_id].label
        )
        assert matching_new > 0


class TestSwapProtocol:
    def test_swap_before_first_chunk_uses_new_model_throughout(
        self, splidt_model, splidt_rules, alt_model, alt_rules, small_dataset
    ):
        new_reference = oracle_replay(
            SpliDTDataPlane(alt_model, alt_rules, flow_slots=8192),
            small_dataset,
        )
        engine = MicroBatchEngine(
            SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192),
            flush_flows=4,
        )
        chunks = _chunks(small_dataset.flows, 64)
        result, events = _stream_with_swaps(
            engine, chunks, {0: ProgramFactory(alt_model, alt_rules, 8192)}
        )
        _assert_identical(new_reference, result)
        assert events[0].flows_started == 0
        assert events[0].pinned_slots == 0

    def test_swap_requires_open_state(self, splidt_model, splidt_rules, small_dataset):
        factory = ProgramFactory(splidt_model, splidt_rules, 8192)
        engine = MicroBatchEngine(factory())
        with pytest.raises(ServeError, match="created"):
            engine.swap_model(factory)
        engine.open()
        for chunk in _chunks(small_dataset.flows, None):
            engine.ingest(chunk)
        engine.drain()
        with pytest.raises(ServeError, match="drained"):
            engine.swap_model(factory)
        engine.close()

    def test_swap_events_recorded(self, splidt_model, splidt_rules, small_dataset):
        factory = ProgramFactory(splidt_model, splidt_rules, 8192)
        engine = MicroBatchEngine(factory(), flush_flows=4)
        chunks = _chunks(small_dataset.flows, 64)
        _, events = _stream_with_swaps(engine, chunks, {len(chunks) // 2: factory})
        assert engine.swap_events == events
        event = events[0]
        assert event.latency_s >= 0.0
        assert np.isfinite(event.watermark)
        assert event.flows_started == len(event.started_flow_ids)

    def test_table_size_mismatch_rejected(
        self, splidt_model, splidt_rules, small_dataset
    ):
        engine = MicroBatchEngine(
            SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192),
            flush_flows=4,
        ).open()
        for chunk in _chunks(small_dataset.flows, 64)[:2]:
            engine.ingest(chunk)
        with pytest.raises(ServeError, match="table size"):
            engine.swap_model(ProgramFactory(splidt_model, splidt_rules, 64))
        engine.close()

    @pytest.mark.parametrize("kind", ("microbatch", "sharded-mp"))
    def test_swap_reuses_the_first_ingests_hashing_pass(
        self, kind, splidt_model, splidt_rules, small_dataset, monkeypatch
    ):
        from repro.switch import hashing

        passes = []
        crc32_columns = hashing.crc32_columns
        monkeypatch.setattr(
            hashing, "crc32_columns",
            lambda *columns: passes.append(1) or crc32_columns(*columns),
        )
        factory = ProgramFactory(splidt_model, splidt_rules, 8192)
        chunks = _chunks(small_dataset.flows, 64)
        engine = _make_engine(kind, factory).open()
        try:
            engine.ingest(chunks[0])
            assert len(passes) == 1
            event = engine.swap_model(factory)
            assert event.flows_started > 0  # the slot routing tables were built
            assert len(passes) == 1
        finally:
            engine.close()

    def test_stats_absorb_both_epochs(self, splidt_model, splidt_rules, small_dataset):
        factory = ProgramFactory(splidt_model, splidt_rules, 8192)
        engine = MicroBatchEngine(factory(), flush_flows=4)
        chunks = _chunks(small_dataset.flows, 64)
        result, _ = _stream_with_swaps(engine, chunks, {len(chunks) // 2: factory})
        stats = engine.stats()
        assert stats.flows_decided == len(result.verdicts)
        assert stats.buffered_packets == 0
        assert stats.packets == sum(chunk.n_packets for chunk in chunks)


class _PinProbe(InferenceEngine):
    """Just enough engine to ask ``_pinned_slots`` about a hand-built prefix."""

    def __init__(self, flows, delivered, table_size: int) -> None:
        super().__init__()
        self._soa = PacketArrays.from_flows(flows)
        self._flows = flows
        self._delivered = np.asarray(delivered, dtype=np.int64)
        self._table_size = table_size

    def _swap_table_size(self) -> int:
        return self._table_size

    def _engine_verdicts(self) -> dict:
        return {}

    def _ingest(self, chunk) -> None:
        pass


@st.composite
def _pin_cases(draw):
    table_size = draw(st.integers(4, 16))
    n_flows = draw(st.integers(2, 40))
    # A small tuple pool: repeats and slot collisions are the common case.
    pool = draw(st.integers(1, n_flows))
    flows, delivered, stale = [], [], []
    for flow_id in range(n_flows):
        tuple_index = draw(st.integers(0, pool - 1))
        timestamp = float(draw(st.integers(0, 30)))
        packets = []
        for _ in range(draw(st.integers(1, 5))):
            packets.append(Packet(timestamp=timestamp, size=60, flags=0, direction=1, payload=0))
            timestamp += float(draw(st.integers(0, 3)))
        flows.append(Flow(
            five_tuple=FiveTuple(10 + tuple_index, 20, 1000 + 7 * tuple_index, 443, 6),
            packets=packets, label=0, class_name="", flow_id=flow_id,
        ))
        delivered.append(draw(st.integers(0, len(packets))))
        stale.append(draw(st.integers(0, 3)) == 0)
    return table_size, flows, delivered, stale


class TestPinnedSlotsRule:
    @settings(max_examples=150, deadline=None)
    @given(_pin_cases())
    def test_equals_an_all_pairs_statement_of_the_rule(self, case):
        table_size, flows, delivered, stale = case
        probe = _PinProbe(flows, delivered, table_size)
        probe._ensure_epoch_arrays()
        # Some delivered flows belong to an older epoch than their slot:
        # they are not members, whatever they overlap.
        probe._flow_epoch[np.flatnonzero(np.array(stale) & (probe._delivered > 0))] = 7

        members: dict[int, list[int]] = {}
        for f, flow in enumerate(flows):
            slot = int(probe._swap_slots[f])
            if delivered[f] > 0 and probe._flow_epoch[f] == probe._slot_epoch[slot]:
                members.setdefault(slot, []).append(f)

        def span(f):
            packets = flows[f].packets
            return packets[0].timestamp, packets[delivered[f] - 1].timestamp

        expected = set()
        for slot, group in members.items():
            pairs = [(a, b) for i, a in enumerate(group) for b in group[i + 1:]]
            if (
                any(delivered[f] < len(flows[f].packets) for f in group)
                or any(flows[a].five_tuple == flows[b].five_tuple for a, b in pairs)
                or any(
                    span(a)[0] <= span(b)[1] and span(b)[0] <= span(a)[1]
                    for a, b in pairs
                )
            ):
                expected.add(slot)
        assert set(probe._pinned_slots().tolist()) == expected
