"""Ring-transport fault injection, backpressure, and deterministic merge.

The SPSC ring transport (``repro.serve.ring``) moves the sharded-mp serving
path off ``multiprocessing.Queue``; this suite covers what the parity tests
cannot: the unit-level ring contract, crash semantics (a SIGKILLed worker
must surface as ``ServeError`` and leave **no** ``/dev/shm`` residue —
neither packet segments nor rings), full-ring backpressure with a 1-slot
ring, idempotent teardown, both start methods, the deterministic-merge
guarantee (verdict streams must not depend on worker finish order, asserted
with a factory whose program makes one chosen worker late), and the
coalescing of a worker's ring backlog into one ingest (bit-exact, and never
a backpressure failure that one ingest per message would have avoided).
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.dataplane import SpliDTDataPlane, oracle
from repro.dataplane import vectorized as vz
from repro.datasets.shm import SEGMENT_PREFIX
from repro.datasets.streams import PacketChunk, iter_packet_chunks
from repro.serve import BackpressureError, MicroBatchEngine, ProcessShardedEngine, ServeError
from repro.serve.process_sharded import _pop_batch
from repro.serve.ring import (
    KIND_CHUNK,
    KIND_DRAIN,
    KIND_SNAPSHOT,
    KIND_STOP,
    RING_PREFIX,
    RingFullError,
    SpscRing,
)
from test_serve_engines import _assert_identical, _stream
from test_serve_process_sharded import ProgramFactory, _leaked_segments


# ----------------------------------------------------------------------
# SpscRing unit contract
# ----------------------------------------------------------------------
class TestSpscRing:
    def test_roundtrip_preserves_kind_payload_and_sequence(self):
        with SpscRing.create(slots=4, span=16) as ring:
            ring.push(KIND_CHUNK, np.arange(5, dtype=np.int64))
            ring.push(KIND_DRAIN)
            kind, positions, seq = ring.pop()
            assert kind == KIND_CHUNK and seq == 0
            assert positions.dtype == np.intp
            assert positions.tolist() == [0, 1, 2, 3, 4]
            kind, positions, seq = ring.pop()
            assert kind == KIND_DRAIN and seq == 1 and positions.size == 0

    def test_wraparound_and_slot_reuse(self):
        with SpscRing.create(slots=2, span=4) as ring:
            for round_ in range(7):  # 7 messages through 2 slots
                ring.push(KIND_CHUNK, np.full(4, round_, dtype=np.int64))
                kind, positions, seq = ring.pop()
                assert seq == round_
                assert positions.tolist() == [round_] * 4
            assert ring.occupancy() == 0

    def test_pop_copies_before_release(self):
        # The popped positions must survive the producer overwriting the slot.
        with SpscRing.create(slots=1, span=4) as ring:
            ring.push(KIND_CHUNK, np.array([1, 2, 3], dtype=np.int64))
            _, first, _ = ring.pop()
            ring.push(KIND_CHUNK, np.array([9, 9, 9], dtype=np.int64))
            assert first.tolist() == [1, 2, 3]

    def test_oversized_payload_rejected(self):
        with SpscRing.create(slots=2, span=4) as ring:
            with pytest.raises(ValueError, match="span"):
                ring.push(KIND_CHUNK, np.arange(5, dtype=np.int64))

    def test_full_ring_raises_on_timeout_and_counts_stall(self):
        with SpscRing.create(slots=1, span=4) as ring:
            ring.push(KIND_STOP)
            with pytest.raises(RingFullError):
                ring.push(KIND_STOP, timeout=0.05)
            assert ring.producer_stalls() == 1
            assert ring.occupancy() == 1

    def test_empty_ring_pop_times_out_and_counts_stall(self):
        with SpscRing.create(slots=2, span=4) as ring:
            assert ring.pop(timeout=0.05) is None
            assert ring.consumer_stalls() == 1

    def test_poll_callback_can_abort_a_blocked_push(self):
        class Dead(RuntimeError):
            pass

        def poll():
            raise Dead

        with SpscRing.create(slots=1, span=4) as ring:
            ring.push(KIND_STOP)
            with pytest.raises(Dead):
                ring.push(KIND_STOP, poll=poll)

    def test_attach_sees_producer_messages(self):
        ring = SpscRing.create(slots=4, span=8)
        try:
            view = SpscRing.attach(ring.layout)
            ring.push(KIND_CHUNK, np.array([7, 8], dtype=np.int64))
            kind, positions, _ = view.pop()
            assert kind == KIND_CHUNK and positions.tolist() == [7, 8]
            view.close()
        finally:
            ring.unlink()
            ring.close()
        assert not _leaked_segments()

    def test_close_and_unlink_are_idempotent(self):
        ring = SpscRing.create(slots=2, span=4)
        name = ring.layout.segment
        ring.close()
        ring.close()  # double close: no-op
        assert ring.closed
        ring.unlink()
        ring.unlink()  # double unlink: no-op
        assert not os.path.exists(os.path.join("/dev/shm", name))

    def test_peek_reads_the_next_kind_without_consuming_or_stalling(self):
        with SpscRing.create(slots=2, span=4) as ring:
            assert ring.peek() is None
            ring.push(KIND_SNAPSHOT)
            ring.push(KIND_CHUNK, np.arange(2, dtype=np.int64))
            assert ring.peek() == ring.peek() == KIND_SNAPSHOT
            assert ring.occupancy() == 2
            ring.pop()
            assert ring.peek() == KIND_CHUNK
            ring.pop()
            assert ring.peek() is None
            assert ring.consumer_stalls() == 0

    def test_batch_joins_back_to_back_chunks_up_to_the_next_message(self):
        with SpscRing.create(slots=4, span=4) as ring:
            ring.push(KIND_CHUNK, np.array([5, 1], dtype=np.int64))
            ring.push(KIND_CHUNK, np.array([3], dtype=np.int64))
            ring.push(KIND_SNAPSHOT)
            ring.push(KIND_CHUNK, np.array([8, 9], dtype=np.int64))
            kind, positions, messages = _pop_batch(ring)
            assert (kind, positions.tolist(), messages) == (KIND_CHUNK, [5, 1, 3], 2)
            assert positions.dtype == np.intp
            kind, positions, messages = _pop_batch(ring)
            assert (kind, positions.size, messages) == (KIND_SNAPSHOT, 0, 1)
            kind, positions, messages = _pop_batch(ring)
            assert (kind, positions.tolist(), messages) == (KIND_CHUNK, [8, 9], 1)
            assert ring.occupancy() == 0

    @pytest.mark.parametrize("kind", [KIND_DRAIN, KIND_STOP], ids=["drain", "stop"])
    def test_batch_never_absorbs_drain_or_stop(self, kind):
        with SpscRing.create(slots=4, span=4) as ring:
            ring.push(KIND_CHUNK, np.array([1], dtype=np.int64))
            ring.push(kind)
            ring.push(KIND_CHUNK, np.array([2], dtype=np.int64))
            ring.push(KIND_CHUNK, np.array([3], dtype=np.int64))
            assert _pop_batch(ring)[2] == 1
            # Popped first, the message stays alone whatever follows it.
            assert _pop_batch(ring)[::2] == (kind, 1)
            _, positions, messages = _pop_batch(ring)
            assert (positions.tolist(), messages) == ([2, 3], 2)

    def test_batch_concatenates_across_slot_wraparound(self):
        with SpscRing.create(slots=3, span=2) as ring:
            for _ in range(2):  # move the cursors to the last slot
                ring.push(KIND_SNAPSHOT)
                ring.pop()
            for first in range(0, 6, 2):  # slots 2, 0, 1
                ring.push(KIND_CHUNK, np.array([first, first + 1], dtype=np.int64))
            kind, positions, messages = _pop_batch(ring)
            assert (kind, positions.tolist(), messages) == (KIND_CHUNK, list(range(6)), 3)
            assert ring.occupancy() == 0

    def test_batch_of_one_when_the_ring_empties(self):
        with SpscRing.create(slots=4, span=4) as ring:
            ring.push(KIND_CHUNK, np.array([4, 2], dtype=np.int64))
            kind, positions, messages = _pop_batch(ring)
            assert (kind, positions.tolist(), messages) == (KIND_CHUNK, [4, 2], 1)
            assert ring.occupancy() == 0 and ring.consumer_stalls() == 0

    def test_attacher_never_unlinks(self):
        ring = SpscRing.create(slots=2, span=4)
        view = SpscRing.attach(ring.layout)
        view.unlink()  # not the owner: must be a no-op
        assert os.path.exists(os.path.join("/dev/shm", ring.layout.segment))
        view.close()
        ring.unlink()
        ring.close()


# ----------------------------------------------------------------------
# Engine-level fault injection and backpressure
# ----------------------------------------------------------------------
class TestRingFaultInjection:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_sigkilled_worker_surfaces_and_leaves_no_shm_residue(
        self, splidt_model, splidt_rules, small_dataset, start_method
    ):
        import multiprocessing

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} start method unavailable")
        engine = ProcessShardedEngine(
            ProgramFactory(splidt_model, splidt_rules, 8192),
            workers=2,
            start_method=start_method,
            flush_flows=4,
        ).open()
        chunks = list(iter_packet_chunks(small_dataset.flows, 64))
        engine.ingest(chunks[0])
        residue_before = {
            engine._shared.layout.segment,
            *(ring.layout.segment for ring in engine._rings),
        }
        os.kill(engine._processes[0].pid, signal.SIGKILL)
        time.sleep(0.2)
        with pytest.raises(ServeError, match="exited|failed|torn down"):
            for chunk in chunks[1:]:
                engine.ingest(chunk)
            engine.drain()
        assert engine._cleaned
        for segment in residue_before:
            assert not os.path.exists(os.path.join("/dev/shm", segment))
        assert not _leaked_segments()
        with pytest.raises(ServeError):
            engine.close()

    def test_one_slot_ring_backpressure_end_to_end(
        self, splidt_model, splidt_rules, small_dataset
    ):
        # A 1-slot ring forces a producer stall on essentially every span:
        # the session must still complete with reference-identical results.
        reference = oracle.replay_dataset(
            SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192),
            small_dataset,
        )
        engine = ProcessShardedEngine(
            ProgramFactory(splidt_model, splidt_rules, 8192),
            workers=2,
            ring_slots=1,
            ring_span=64,
        )
        result = _stream(engine, iter_packet_chunks(small_dataset.flows, 500))
        _assert_identical(reference, result)
        assert not _leaked_segments()

    def test_constructor_validation(self, splidt_model, splidt_rules, monkeypatch):
        factory = ProgramFactory(splidt_model, splidt_rules, 256)
        # The ring is the only transport: no argument and no environment
        # variable selects another.
        for removed in ({"transport": "queue"}, {"transport": "ring"}, {"queue_depth": 8},
                        {"affinity": True}):
            with pytest.raises(TypeError):
                ProcessShardedEngine(factory, **removed)
        monkeypatch.setenv("SPLIDT_SERVE_TRANSPORT", "queue")
        engine = ProcessShardedEngine(factory)
        assert not hasattr(engine, "transport")
        with pytest.raises(ServeError, match="ring_slots"):
            ProcessShardedEngine(factory, ring_slots=0)
        with pytest.raises(ServeError, match="ring_span"):
            ProcessShardedEngine(factory, ring_span=0)

    def test_double_close_and_post_close_stats(
        self, splidt_model, splidt_rules, small_dataset
    ):
        engine = ProcessShardedEngine(
            ProgramFactory(splidt_model, splidt_rules, 8192),
            workers=2,
        ).open()
        for chunk in iter_packet_chunks(small_dataset.flows, 1000):
            engine.ingest(chunk)
        result = engine.close()
        assert engine.close() is result  # idempotent: cached, no worker I/O
        stats = engine.stats()  # post-mortem: last captured ring counters
        assert stats.transport["ring_slots"] == engine.ring_slots
        assert stats.transport["ring_occupancy"] == 0.0
        assert not _leaked_segments()

    def test_ring_stats_surface_through_engine_stats(
        self, splidt_model, splidt_rules, small_dataset
    ):
        engine = ProcessShardedEngine(
            ProgramFactory(splidt_model, splidt_rules, 8192),
            workers=2,
        ).open()
        for chunk in iter_packet_chunks(small_dataset.flows, 2000):
            engine.ingest(chunk)
        stats = engine.stats()
        assert set(stats.transport) == {
            "ring_slots",
            "ring_occupancy",
            "ring_producer_stalls",
            "ring_consumer_stalls",
        }
        engine.close()


# ----------------------------------------------------------------------
# Deterministic merge: drain order must not depend on worker finish order
# ----------------------------------------------------------------------
class _LateProgram(SpliDTDataPlane):
    """Stalls once, in ``finalise_staged``, on the worker that owns ``target``.

    A worker only ever sees slots with ``slot % workers == its index``, so
    the program learns where it runs from the first slots it is handed.
    """

    stall = 0.4
    late_shard: tuple[int, int] | None = None  # (target, workers), set by the factory
    _pending_stall = 0.0

    def begin_flows(self, slots) -> None:
        if self.late_shard is not None and len(slots):
            target, workers = self.late_shard
            self._pending_stall = self.stall if int(slots[0]) % workers == target else 0.0
            self.late_shard = None
        super().begin_flows(slots)

    def finalise_staged(self, staging: list) -> None:
        if self._pending_stall:
            time.sleep(self._pending_stall)
            self._pending_stall = 0.0
        super().finalise_staged(staging)


class LateProgramFactory(ProgramFactory):
    """Picklable: the shard whose slots are ``target`` mod ``workers`` runs late."""

    def __init__(self, model, rules, flow_slots: int, late_shard=None) -> None:
        super().__init__(model, rules, flow_slots)
        self.late_shard = late_shard

    def __call__(self) -> SpliDTDataPlane:
        program = _LateProgram(self.model, self.rules, flow_slots=self.flow_slots)
        program.late_shard = self.late_shard
        return program


class TestDeterministicMerge:
    def test_verdict_stream_identical_with_a_slowed_worker(
        self, splidt_model, splidt_rules, small_dataset
    ):
        workers = 3

        def run(late_worker=None) -> list:
            late_shard = None if late_worker is None else (late_worker, workers)
            engine = ProcessShardedEngine(
                LateProgramFactory(splidt_model, splidt_rules, 8192, late_shard),
                workers=workers,
                flush_flows=2,
            )
            start = time.perf_counter()
            result = _stream(engine, iter_packet_chunks(small_dataset.flows, 700))
            if late_shard is not None:  # the chosen worker really did stall
                assert time.perf_counter() - start >= _LateProgram.stall
            # Insertion order of the merged dict IS the drained stream order.
            return [
                (fid, v.label, v.decided_at) for fid, v in result.verdicts.items()
            ]

        baseline = run()
        # Worker 2 stalls mid-stream and finishes last, but the merged stream
        # must be bit-identical because absorption is index-ordered.
        assert run(late_worker=2) == baseline
        assert run(late_worker=0) == baseline


# ----------------------------------------------------------------------
# Coalescing: a worker's ring backlog becomes one ingest
# ----------------------------------------------------------------------
def _shard_messages(chunks, workers: int, table_size: int):
    """Per shard, the ring messages the parent pushes for ``chunks`` (span never exceeded)."""
    soa = chunks[0].soa
    shard_of_flow = vz.cached_flow_slots(soa, table_size) % workers
    messages = [[] for _ in range(workers)]
    for chunk in chunks:
        shard_of_packet = shard_of_flow[soa.packet_flow[chunk.positions]]
        for shard in range(workers):
            sub = chunk.positions[shard_of_packet == shard]
            if sub.size:
                messages[shard].append(PacketChunk(soa=soa, flows=chunk.flows, positions=sub))
    return messages


class TestCoalescing:
    WORKERS, TABLE, CHUNK = 2, 8192, 50

    @pytest.fixture(scope="class")
    def reference(self, splidt_model, splidt_rules, small_dataset):
        program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=self.TABLE)
        return oracle.replay_dataset(program, small_dataset)

    def _held_back_session(self, model, rules, chunks, **options):
        """A session whose worker 1 stalls mid-stream, so its ring fills behind it."""
        engine = ProcessShardedEngine(
            LateProgramFactory(model, rules, self.TABLE, late_shard=(1, self.WORKERS)),
            workers=self.WORKERS,
            flush_flows=2,
            **options,
        )
        result = _stream(engine, chunks)
        return result, engine.stats().counters

    def test_a_held_back_worker_coalesces_its_backlog_bit_exactly(
        self, splidt_model, splidt_rules, small_dataset, reference
    ):
        chunks = list(iter_packet_chunks(small_dataset.flows, self.CHUNK))
        result, counters = self._held_back_session(splidt_model, splidt_rules, chunks)
        _assert_identical(reference, result)
        pushed = sum(map(len, _shard_messages(chunks, self.WORKERS, self.TABLE)))
        assert counters["serve.ring_messages"] == pushed
        assert counters["serve.ring_ingests"] < pushed

    def test_a_session_polled_after_every_ingest_never_coalesces(
        self, splidt_model, splidt_rules, small_dataset
    ):
        # Each chunk is followed by a snapshot on every ring, so no two chunk
        # messages are ever back to back: the polled verdict lag cannot move.
        chunks = list(iter_packet_chunks(small_dataset.flows, 500))
        engine = ProcessShardedEngine(
            ProgramFactory(splidt_model, splidt_rules, self.TABLE), workers=self.WORKERS
        ).open()
        for chunk in chunks:
            engine.ingest(chunk)
            engine.verdicts()
        engine.close()
        counters = engine.stats().counters
        pushed = sum(map(len, _shard_messages(chunks, self.WORKERS, self.TABLE)))
        assert counters["serve.ring_ingests"] == counters["serve.ring_messages"] == pushed

    def test_coalescing_raises_no_backpressure_one_ingest_per_message_avoids(
        self, splidt_model, splidt_rules, small_dataset, reference
    ):
        # An over-limit ingest forces a full flush, after which the buffered
        # count depends only on the packets delivered so far: a batch raises
        # only where one ingest per message would raise at its last message.
        chunks = list(iter_packet_chunks(small_dataset.flows, self.CHUNK))
        per_shard = _shard_messages(chunks, self.WORKERS, self.TABLE)

        def one_ingest_per_message_survives(limit: int) -> bool:
            for messages in per_shard:
                program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=self.TABLE)
                engine = MicroBatchEngine(program, flush_flows=2, backpressure=limit).open()
                try:
                    for message in messages:
                        engine.ingest(message)
                except BackpressureError:
                    return False
                engine.close()
            return True

        # Surviving is monotone in the limit: bisect to the tightest one.
        low, high = 1, 2**16
        assert not one_ingest_per_message_survives(low)
        assert one_ingest_per_message_survives(high)
        while high - low > 1:
            middle = (low + high) // 2
            if one_ingest_per_message_survives(middle):
                high = middle
            else:
                low = middle
        result, counters = self._held_back_session(
            splidt_model, splidt_rules, chunks, backpressure=high
        )
        _assert_identical(reference, result)
        assert counters["serve.ring_ingests"] < counters["serve.ring_messages"]
