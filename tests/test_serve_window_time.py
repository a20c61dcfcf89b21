"""Window-time serving: the micro-batch engine decides flows as their windows close.

``MicroBatchEngine`` advances every flow window by window.  A flow alone in
its register slot closes each window on the flow-lockstep plane as soon as
the window's last packet is in; a slot another flow reaches while its
resident is live (or that a new flow of the resident's five-tuple reaches)
turns contended, hands the resident's state to the program and replays on
the slot-stream plane from then on.  These tests pin what that buys and
what it must not break:

* **visibility** — with a flush floor of one flow, a solo flow's verdict
  is in the first ``verdicts()`` poll after the chunk holding its deciding
  packet, for chunk sizes 1, 7, window-aligned and whole;
* **contention after progress** — residents that closed windows (decided
  and undecided), successors reusing a resident's five-tuple, and an
  eviction policy all end bit-identical to ``StreamingEngine``, eviction
  counters included;
* **causality** — the verdicts after the first ``k`` packets depend on
  those packets (and their flows' size headers) only;
* **swap** — ``swap_model`` while a solo flow is mid-window, with its slot
  contended afterwards, stays invisible;
* **stream order** — ties out of flow-id order and a flow's packets out of
  order are rejected, not replayed in an order the planes cannot reproduce.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplane import SpliDTDataPlane
from repro.dataplane import vectorized as vz
from repro.datasets.flows import FiveTuple, Flow, Packet, PacketArrays
from repro.datasets.streams import PacketChunk, iter_packet_chunks
from repro.serve import MicroBatchEngine, ServeError, StreamingEngine
from repro.serve.microbatch import _FORWARDING, _SOLO
from repro.switch.eviction import make_eviction_policy
from test_serve_engines import _assert_identical, _chunks, _stream
from test_serve_process_sharded import ProgramFactory

#: Chunk-size axis: 1 packet, 7 packets, cut where some window closes, whole.
CHUNKINGS = (1, 7, "window", None)


def _snapshot(verdicts) -> tuple:
    """Every verdict column, in flow-id order."""
    return tuple(column.tolist() for column in verdicts.columns)


def _with_packets(flow: Flow, packets, **changes) -> Flow:
    fields = dict(
        five_tuple=flow.five_tuple, packets=packets, label=flow.label,
        class_name=flow.class_name, flow_id=flow.flow_id,
    )
    fields.update(changes)
    return Flow(**fields)


def _shifted(packets, start: float) -> list[Packet]:
    offset = start - packets[0].timestamp
    return [
        Packet(timestamp=p.timestamp + offset, size=p.size, flags=p.flags,
               direction=p.direction, payload=p.payload)
        for p in packets
    ]


class TestVisibility:
    @settings(max_examples=24, deadline=None)
    @given(
        chunking=st.sampled_from(CHUNKINGS),
        first=st.integers(0, 300),
        n_flows=st.integers(5, 60),
    )
    def test_solo_verdict_shows_at_the_first_poll_after_its_deciding_packet(
        self, splidt_model, splidt_rules, small_dataset, chunking, first, n_flows
    ):
        flows = small_dataset.flows[first:first + n_flows]
        chunks = _chunks(flows, chunking)
        engine = MicroBatchEngine(
            SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192), flush_flows=1
        ).open()
        shown_after: dict[int, int] = {}
        for index, chunk in enumerate(chunks):
            engine.ingest(chunk)
            for flow_id in engine.verdicts().keys() - shown_after.keys():
                shown_after[flow_id] = index
        engine.drain()
        verdicts = engine.verdicts()
        assert verdicts.keys() == shown_after.keys()

        soa = chunks[0].soa
        rank = np.empty(soa.n_packets, dtype=np.int64)
        for index, chunk in enumerate(chunks):
            rank[chunk.positions] = index  # the chunk each packet arrives in
        ends = vz.window_ends(soa, splidt_model.config.n_partitions)
        index_of = {flow_id: i for i, flow_id in enumerate(soa.flow_ids.tolist())}
        solo = ~engine._contended[engine._slots]
        checked = 0
        for flow_id, window in zip(verdicts.flow_ids.tolist(), verdicts.n_recirculations.tolist()):
            flow = index_of[flow_id]
            if not solo[flow]:
                continue
            deciding = soa.flow_starts[flow] + ends[flow, window] - 1
            assert shown_after[flow_id] == rank[deciding], flow_id
            checked += 1
        assert checked > 0


def _successor_traffic(small_dataset, n_flows: int, table_size: int, seed: int) -> list[Flow]:
    """``n_flows`` D3 flows plus later flows that reuse some residents' five-tuples.

    Each successor follows a flow alone in its slot, after that flow's last
    packet, carrying another flow's packets: the slot is solo up to it.
    """
    rng = random.Random(seed)
    flows = list(small_dataset.flows[:n_flows])
    slots = vz.cached_flow_slots(PacketArrays.from_flows(flows), table_size)
    alone = [i for i in range(n_flows) if np.count_nonzero(slots == slots[i]) == 1]
    next_id = max(flow.flow_id for flow in flows) + 1
    for offset, index in enumerate(rng.sample(alone, min(8, len(alone)))):
        before = flows[index]
        donor = flows[rng.randrange(n_flows)]
        start = before.packets[-1].timestamp + rng.choice((0.0, 0.05, 3.0))
        flows.append(_with_packets(
            donor, _shifted(donor.packets, start), five_tuple=before.five_tuple,
            flow_id=next_id + offset,
        ))
    return flows


def _contended_session(model, rules, small_dataset, seed, chunking, policy) -> tuple:
    """Serve successor traffic on 64 slots; assert it equals ``StreamingEngine``.

    Returns the traffic and ``(flow, decided, window)`` of every resident
    handed over mid-stream.
    """
    flows = _successor_traffic(small_dataset, 120, 64, seed)

    def program():
        return SpliDTDataPlane(
            model, rules, flow_slots=64, eviction=make_eviction_policy(policy, timeout=0.5)
        )

    reference_program = program()
    reference = _stream(StreamingEngine(reference_program), _chunks(flows, None))

    served_program = program()
    engine = MicroBatchEngine(served_program, flush_flows=2)
    handed, draining = [], []
    hand_over, drain = engine._hand_over, engine._drain

    def spy(residents, cuts):
        if not draining:  # not the drain's final hand-over of every solo slot
            handed.extend(
                zip(residents.tolist(), engine._decided[residents].tolist(),
                    engine._window[residents].tolist())
            )
        hand_over(residents, cuts)

    engine._hand_over = spy
    engine._drain = lambda: (draining.append(True), drain())[1]
    result = _stream(engine, _chunks(flows, chunking))
    _assert_identical(reference, result)
    assert served_program.eviction_stats() == reference_program.eviction_stats()
    return flows, handed


class TestContentionAfterProgress:
    @pytest.mark.parametrize("chunking", (1, 7, "window"))
    @pytest.mark.parametrize("policy", ("idle-timeout", "lru"))
    def test_every_case_occurs_and_matches_streaming(
        self, splidt_model, splidt_rules, small_dataset, chunking, policy
    ):
        flows, handed = _contended_session(
            splidt_model, splidt_rules, small_dataset, 5, chunking, policy
        )
        # Residents handed over undecided after closing a window, and
        # decided; a slot contended by a successor of its resident's tuple.
        assert any(not decided and window >= 1 for _, decided, window in handed)
        assert any(decided for _, decided, _ in handed)
        successors = {flow.five_tuple for flow in flows[120:]}
        assert any(flows[resident].five_tuple in successors for resident, _, _ in handed)

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        chunking=st.sampled_from(CHUNKINGS),
        policy=st.sampled_from(("idle-timeout", "lru")),
    )
    def test_matches_streaming_for_any_successors(
        self, splidt_model, splidt_rules, small_dataset, seed, chunking, policy
    ):
        _contended_session(splidt_model, splidt_rules, small_dataset, seed, chunking, policy)


    @pytest.mark.parametrize("policy", (None, "idle-timeout"))
    def test_reclaim_then_contention_in_one_chunk(
        self, splidt_model, splidt_rules, small_dataset, policy
    ):
        # One 7-packet chunk: the last packets of a resident R that decided in
        # an earlier flush, then the first packets of new flows A and B in
        # R's slot.  A reclaims the slot and B contends with A; R's packets
        # are only forwarded, never replayed against A's state.
        table_size = 64
        flows = small_dataset.flows
        soa = small_dataset.packet_arrays()
        slots = vz.cached_flow_slots(soa, table_size)
        ends = vz.window_ends(soa, splidt_model.config.n_partitions)
        solo = StreamingEngine(SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192))
        alone = _stream(solo, _chunks(flows, None)).verdicts
        checked = 0
        for r, flow in enumerate(flows):
            verdict = alone.get(flow.flow_id)
            if verdict is None or not verdict.early_exit:
                continue
            if ends[r, verdict.n_recirculations] > len(flow.packets) - 3:
                continue  # R must decide before its last three packets
            others = [i for i in np.flatnonzero(slots == slots[r]).tolist()
                      if flows[i].five_tuple != flow.five_tuple]
            if len(others) < 2:
                continue
            start = flow.packets[-1].timestamp + 0.01
            traffic = [_with_packets(flow, flow.packets, flow_id=1)] + [
                _with_packets(flows[i], _shifted(flows[i].packets, start + 1e-6 * j),
                              flow_id=10_000 + j)
                for j, i in enumerate(others[:2])
            ]
            source = PacketArrays.from_flows(traffic)
            order = source.interleave_order
            n = len(flow.packets)
            assert source.packet_flow[order[n:n + 2]].tolist() == [1, 2]
            # Single packets up to R's last three, then the 7-packet chunk.
            cuts = list(range(1, n - 2)) + [n + 4, order.size]
            chunks = [
                PacketChunk(soa=source, flows=traffic, positions=order[lo:hi])
                for lo, hi in zip([0] + cuts[:-1], cuts)
            ]

            def program():
                return SpliDTDataPlane(
                    splidt_model, splidt_rules, flow_slots=table_size,
                    eviction=policy and make_eviction_policy(policy, timeout=0.5),
                )

            reference_program, served_program = program(), program()
            reference = _stream(StreamingEngine(reference_program), _chunks(traffic, None))
            engine = MicroBatchEngine(served_program, flush_flows=1)
            result = _stream(engine, chunks)
            assert engine._contended[slots[r]]
            assert engine._phase[0] == _FORWARDING
            _assert_identical(reference, result)
            assert served_program.eviction_stats() == reference_program.eviction_stats()
            checked += 1
            if checked == 6:
                break
        assert checked == 6


class TestCausality:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        cut=st.floats(0.1, 0.9),
        chunk_size=st.sampled_from((1, 7, 64)),
    )
    def test_verdicts_follow_from_the_delivered_prefix(
        self, splidt_model, splidt_rules, small_dataset, seed, cut, chunk_size
    ):
        rng = random.Random(seed)
        flows = list(small_dataset.flows[:60])
        soa = PacketArrays.from_flows(flows)
        order = soa.interleave_order
        k = max(1, int(cut * order.size))
        late = np.zeros(soa.n_packets, dtype=bool)
        late[order[k:]] = True
        # After the first k packets the second source differs: other packet
        # contents, and new flows — some repeating an early flow's five-tuple.
        other = []
        for index, flow in enumerate(flows):
            start = int(soa.flow_starts[index])
            other.append(_with_packets(flow, [
                Packet(timestamp=p.timestamp, size=rng.randint(40, 1500), flags=0x18,
                       direction=-p.direction, payload=rng.randint(0, 1400))
                if late[start + j] else p
                for j, p in enumerate(flow.packets)
            ]))
        horizon = float(soa.timestamps[order[k - 1]]) + 1e-3
        for offset in range(10):
            donor = rng.choice(flows)
            other.append(_with_packets(
                donor, _shifted(donor.packets, horizon + rng.random()),
                five_tuple=rng.choice(flows).five_tuple if offset % 2 else donor.five_tuple,
                flow_id=10_000 + offset,
            ))
        other_soa = PacketArrays.from_flows(other)
        assert np.array_equal(other_soa.interleave_order[:k], order[:k])

        sessions = []
        for source, source_flows in ((soa, flows), (other_soa, other)):
            engine = MicroBatchEngine(
                SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=64), flush_flows=1
            ).open()
            polls = []
            for start in range(0, k, chunk_size):
                positions = order[start:min(start + chunk_size, k)]
                engine.ingest(PacketChunk(soa=source, flows=source_flows, positions=positions))
                polls.append((_snapshot(engine.verdicts()), engine.recirculation_stats()))
            sessions.append(polls)
        assert sessions[0] == sessions[1]


def test_swap_while_a_solo_flow_is_mid_window_then_contended(
    splidt_model, splidt_rules, small_dataset
):
    flows = small_dataset.flows
    factory = ProgramFactory(splidt_model, splidt_rules, 64)
    reference = _stream(StreamingEngine(factory()), _chunks(flows, None))
    chunks = _chunks(flows, 64)
    engine = MicroBatchEngine(factory(), flush_flows=1).open()
    swap_at = len(chunks) // 3
    for chunk in chunks[:swap_at]:
        engine.ingest(chunk)
    # Solo flows with an open window holding packets: their slots are pinned.
    delivered = engine._delivered
    mid_window = np.flatnonzero(
        (engine._phase == _SOLO) & (engine._done < delivered)
        & (delivered < chunks[0].soa.n_packets_per_flow)
    )
    mid_window = mid_window[engine._resident[engine._slots[mid_window]] == mid_window]
    assert mid_window.size
    event = engine.swap_model(factory)
    assert event.pinned_slots > 0
    for chunk in chunks[swap_at:]:
        engine.ingest(chunk)
    result = engine.close()
    # Some of them were still alone at the swap and met another flow after it.
    assert engine._contended[engine._slots[mid_window]].any()
    _assert_identical(reference, result)


class TestStreamOrder:
    """Equal timestamps in flow-id order, each flow's packets in order: else ServeError."""

    @staticmethod
    def _tied_flows():
        def flow(flow_id, src_ip, times):
            return Flow(
                five_tuple=FiveTuple(src_ip, 2, 3, 4, 6),
                packets=[
                    Packet(timestamp=t, size=100 + j, flags=0x10) for j, t in enumerate(times)
                ],
                label=0, class_name="", flow_id=flow_id,
            )

        return [flow(0, 1, [0.0, 1.0, 1.0]), flow(1, 9, [0.5, 1.0, 2.0])]

    def _engine(self, splidt_model, splidt_rules, kind):
        program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=64)
        engine = StreamingEngine(program) if kind == "streaming" else MicroBatchEngine(program)
        return engine.open()

    @pytest.mark.parametrize("kind", ("streaming", "microbatch"))
    def test_ties_out_of_flow_id_order_rejected(self, splidt_model, splidt_rules, kind):
        flows = self._tied_flows()
        soa = PacketArrays.from_flows(flows)
        # Canonical: 0.0(f0) 0.5(f1) 1.0(f0) 1.0(f0) 1.0(f1) 2.0(f1); positions
        # are flow-major (f0: 0-2, f1: 3-5).
        canonical = soa.interleave_order.tolist()
        assert canonical == [0, 3, 1, 2, 4, 5]
        swapped = [0, 3, 4, 1, 2, 5]  # flow 1's tied packet ahead of flow 0's
        engine = self._engine(splidt_model, splidt_rules, kind)
        with pytest.raises(ServeError, match="flow-id order"):
            engine.ingest(PacketChunk(soa=soa, flows=flows, positions=np.array(swapped)))
        # Across chunks too: the tie straddles the chunk boundary.
        engine = self._engine(splidt_model, splidt_rules, kind)
        engine.ingest(PacketChunk(soa=soa, flows=flows, positions=np.array([0, 3, 4])))
        with pytest.raises(ServeError, match="flow-id order"):
            engine.ingest(PacketChunk(soa=soa, flows=flows, positions=np.array([1, 2, 5])))
        # The canonical order, cut anywhere, is accepted.
        engine = self._engine(splidt_model, splidt_rules, kind)
        for piece in ([0, 3, 1], [2], [4, 5]):
            engine.ingest(PacketChunk(soa=soa, flows=flows, positions=np.array(piece)))
        engine.close()

    @pytest.mark.parametrize("kind", ("streaming", "microbatch"))
    def test_a_flows_packets_out_of_order_rejected(self, splidt_model, splidt_rules, kind):
        flows = self._tied_flows()
        soa = PacketArrays.from_flows(flows)
        cases = (
            [[0, 3, 2, 1, 4, 5]],  # flow 0's tied packets swapped
            [[0, 3], [2, 4, 5]],  # flow 0's second packet skipped
            [[0, 3, 1], [1]],  # a packet delivered twice
            [[0, 4]],  # flow 1 starting at its second packet
        )
        for pieces in cases:
            engine = self._engine(splidt_model, splidt_rules, kind)
            with pytest.raises(ServeError, match="packets in order|arrive in order"):
                for piece in pieces:
                    engine.ingest(PacketChunk(soa=soa, flows=flows, positions=np.array(piece)))

    def test_rejected_chunk_changes_nothing(self, splidt_model, splidt_rules):
        flows = self._tied_flows()
        soa = PacketArrays.from_flows(flows)
        engine = self._engine(splidt_model, splidt_rules, "microbatch")
        engine.ingest(PacketChunk(soa=soa, flows=flows, positions=np.array([0, 3])))
        with pytest.raises(ServeError):
            engine.ingest(PacketChunk(soa=soa, flows=flows, positions=np.array([2, 1])))
        for piece in ([1, 2], [4, 5]):
            engine.ingest(PacketChunk(soa=soa, flows=flows, positions=np.array(piece)))
        assert engine.stats().packets == 6
        engine.close()

    def test_source_flow_out_of_time_order_rejected(self, splidt_model, splidt_rules):
        flows = [Flow(
            five_tuple=FiveTuple(1, 2, 3, 4, 6),
            packets=[Packet(timestamp=1.0, size=60), Packet(timestamp=0.5, size=60)],
            label=0, class_name="", flow_id=0,
        )]
        engine = self._engine(splidt_model, splidt_rules, "microbatch")
        with pytest.raises(ServeError, match="time order in the source"):
            engine.ingest(next(iter_packet_chunks(flows, 1)))

    @pytest.mark.parametrize("table_size", (64, 16))
    def test_rounded_timestamps_in_canonical_order_match_streaming(
        self, splidt_model, splidt_rules, small_dataset, table_size
    ):
        # Timestamps rounded to 0.1 s: ties everywhere.  Delivered with ties in
        # descending flow id the stream is rejected; in flow-id order the
        # micro-batch engine equals the per-packet one.
        flows = [
            _with_packets(flow, [
                Packet(timestamp=round(p.timestamp, 1), size=p.size, flags=p.flags,
                       direction=p.direction, payload=p.payload)
                for p in flow.packets
            ])
            for flow in small_dataset.flows[:120]
        ]
        soa = PacketArrays.from_flows(flows)
        descending = np.lexsort((-soa.flow_ids[soa.packet_flow], soa.timestamps))
        engine = MicroBatchEngine(
            SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=table_size), flush_flows=4
        ).open()
        with pytest.raises(ServeError, match="flow-id order"):
            for start in range(0, descending.size, 97):
                engine.ingest(PacketChunk(
                    soa=soa, flows=flows, positions=descending[start:start + 97]
                ))
        reference = _stream(
            StreamingEngine(SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=table_size)),
            _chunks(flows, None),
        )
        served = _stream(
            MicroBatchEngine(
                SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=table_size),
                flush_flows=4,
            ),
            _chunks(flows, 97),
        )
        _assert_identical(reference, served)
