"""Ring-transport fault injection, backpressure, and deterministic merge.

The SPSC ring transport (``repro.serve.ring``) moves the sharded-mp serving
path off ``multiprocessing.Queue``; this suite covers what the parity tests
cannot: the unit-level ring contract, crash semantics (a SIGKILLed worker
must surface as ``ServeError`` and leave **no** ``/dev/shm`` residue —
neither packet segments nor rings), full-ring backpressure with a 1-slot
ring, idempotent teardown, both start methods, and the deterministic-merge
guarantee (verdict streams must not depend on worker finish order, asserted
with a factory whose program makes one chosen worker late).
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.dataplane import SpliDTDataPlane, replay_dataset
from repro.datasets.shm import SEGMENT_PREFIX
from repro.datasets.streams import iter_packet_chunks
from repro.serve import ProcessShardedEngine, ServeError
from repro.serve.ring import (
    KIND_CHUNK,
    KIND_DRAIN,
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
        reference = replay_dataset(
            SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192),
            small_dataset,
            engine="reference",
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
