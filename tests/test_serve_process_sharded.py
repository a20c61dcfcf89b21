"""Parity and lifecycle tests for the process-sharded serving engine.

Extends the contract of ``tests/test_serve_engines.py`` to
:class:`repro.serve.ProcessShardedEngine`: verdicts, TTD arrays and
recirculation statistics after ``drain`` are **bit-identical** to the
reference interpreter — at 64-slot collision pressure, for truncated
streams, and under both the ``fork`` and ``spawn`` start methods — plus the
shared-memory teardown semantics: a worker crash mid-stream surfaces as a
``ServeError`` and releases the ``/dev/shm`` segment, and ``close()`` is
idempotent.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.dataplane import SpliDTDataPlane, oracle
from repro.datasets.shm import SEGMENT_PREFIX
from repro.serve.ring import RING_PREFIX
from repro.datasets.streams import iter_packet_chunks
from repro.serve import ProcessShardedEngine, ServeError, StreamingEngine, create_engine
from test_serve_engines import _assert_identical, _chunks, _stream


class ProgramFactory:
    """Module-level (hence spawn-picklable) factory over the test fixtures."""

    def __init__(self, model, rules, flow_slots: int, eviction=None) -> None:
        self.model = model
        self.rules = rules
        self.flow_slots = flow_slots
        self.eviction = eviction

    def __call__(self) -> SpliDTDataPlane:
        return SpliDTDataPlane(
            self.model, self.rules, flow_slots=self.flow_slots, eviction=self.eviction
        )


def _leaked_segments() -> list[str]:
    try:
        return [
            n
            for n in os.listdir("/dev/shm")
            if n.startswith(SEGMENT_PREFIX) or n.startswith(RING_PREFIX)
        ]
    except FileNotFoundError:  # non-POSIX-shm platform: nothing to check
        return []


class TestProcessShardedParity:
    """ProcessShardedEngine == reference, merged bit for bit across workers."""

    @pytest.mark.parametrize("workers", (2, 3))
    @pytest.mark.parametrize("flow_slots", (8192, 64))
    def test_parity_fork(self, workers, flow_slots, splidt_model, splidt_rules, small_dataset):
        reference = oracle.replay_dataset(
            SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=flow_slots),
            small_dataset,
        )
        engine = ProcessShardedEngine(
            ProgramFactory(splidt_model, splidt_rules, flow_slots),
            workers=workers,
            flush_flows=4,
        )
        result = _stream(engine, _chunks(small_dataset.flows, 64))
        _assert_identical(reference, result)
        assert not _leaked_segments()

    @pytest.mark.skipif(
        "spawn" not in __import__("multiprocessing").get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_parity_spawn(self, splidt_model, splidt_rules, small_dataset):
        reference = oracle.replay_dataset(
            SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192),
            small_dataset,
        )
        engine = ProcessShardedEngine(
            ProgramFactory(splidt_model, splidt_rules, 8192),
            workers=2,
            start_method="spawn",
            flush_flows=4,
        )
        result = _stream(engine, _chunks(small_dataset.flows, 128))
        _assert_identical(reference, result)
        assert not _leaked_segments()

    def test_truncated_stream_matches_reference_prefix(
        self, splidt_model, splidt_rules, small_dataset
    ):
        chunks = list(iter_packet_chunks(small_dataset.flows, 500))
        half = chunks[: len(chunks) // 2]
        reference = _stream(
            StreamingEngine(SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192)),
            half,
        )
        engine = ProcessShardedEngine(
            ProgramFactory(splidt_model, splidt_rules, 8192), workers=2, flush_flows=4
        )
        result = _stream(engine, half)
        _assert_identical(reference, result)

    def test_mid_stream_stats_and_verdicts(self, splidt_model, splidt_rules, small_dataset):
        engine = ProcessShardedEngine(
            ProgramFactory(splidt_model, splidt_rules, 8192), workers=2, flush_flows=2
        ).open()
        last_decided = 0
        for chunk in iter_packet_chunks(small_dataset.flows, 2000):
            engine.ingest(chunk)
            stats = engine.stats()  # synchronous per-worker snapshot
            assert stats.engine == "sharded-mp"
            assert stats.flows_decided >= last_decided
            last_decided = stats.flows_decided
        result = engine.close()
        assert len(result.verdicts) == engine.stats().flows_decided
        assert engine.stats().buffered_packets == 0
        # Flush counters ride the same snapshot/drain payloads as the ring's:
        # summed over the workers, every flow is in at least one flush (one
        # per flush that closes one of its windows).
        batching = engine.stats().batching
        assert batching["flushed_flows"] >= len(small_dataset.flows)
        assert batching["flushes"] >= 2 and batching["eligible_scans"] > 0


class TestLifecycleAndTeardown:
    def test_worker_crash_surfaces_and_releases_segment(
        self, splidt_model, splidt_rules, small_dataset
    ):
        engine = ProcessShardedEngine(
            ProgramFactory(splidt_model, splidt_rules, 8192), workers=2, flush_flows=4
        ).open()
        chunks = list(iter_packet_chunks(small_dataset.flows, 64))
        engine.ingest(chunks[0])
        segment = engine._shared.layout.segment
        os.kill(engine._processes[0].pid, signal.SIGKILL)
        time.sleep(0.2)
        with pytest.raises(ServeError, match="exited|failed|torn down"):
            for chunk in chunks[1:]:
                engine.ingest(chunk)
            engine.drain()
        # The failure tore the session down: workers stopped, segment gone.
        assert engine._cleaned
        assert not os.path.exists(os.path.join("/dev/shm", segment))
        assert all(process.exitcode is not None for process in engine._processes)
        with pytest.raises(ServeError):
            engine.close()

    def test_close_is_idempotent_and_releases_everything(
        self, splidt_model, splidt_rules, small_dataset
    ):
        engine = ProcessShardedEngine(
            ProgramFactory(splidt_model, splidt_rules, 8192), workers=2
        ).open()
        for chunk in iter_packet_chunks(small_dataset.flows, 1000):
            engine.ingest(chunk)
        segment = engine._shared.layout.segment
        result = engine.close()
        assert engine.close() is result  # second close: cached, no worker I/O
        assert engine.result() is result
        assert not os.path.exists(os.path.join("/dev/shm", segment))
        assert all(process.exitcode is not None for process in engine._processes)

    def test_context_manager_cleans_up_on_error(
        self, splidt_model, splidt_rules, small_dataset
    ):
        engine = ProcessShardedEngine(
            ProgramFactory(splidt_model, splidt_rules, 8192), workers=2
        )
        with pytest.raises(RuntimeError, match="boom"):
            with engine:
                engine.ingest(next(iter_packet_chunks(small_dataset.flows, 64)))
                raise RuntimeError("boom")
        assert engine._cleaned
        assert not _leaked_segments()

    def test_empty_session(self, splidt_model, splidt_rules):
        engine = ProcessShardedEngine(
            ProgramFactory(splidt_model, splidt_rules, 8192), workers=2
        ).open()  # pre-binds the pool even before any traffic
        result = engine.close()  # no ingest: workers stop without attaching
        assert result.verdicts == {}
        assert all(p.exitcode == 0 for p in engine._processes)
        assert not _leaked_segments()

    def test_constructor_validation(self, splidt_model, splidt_rules):
        factory = ProgramFactory(splidt_model, splidt_rules, 256)
        with pytest.raises(ServeError, match="workers"):
            ProcessShardedEngine(factory, workers=0)
        with pytest.raises(ServeError, match="start method"):
            ProcessShardedEngine(factory, start_method="warp")
        # Removed option: workers run MicroBatchEngine, there is nothing to pick.
        with pytest.raises(TypeError, match="child_engine"):
            ProcessShardedEngine(factory, child_engine="streaming")

    def test_unpicklable_factory_rejected_with_actionable_error(
        self, splidt_model, splidt_rules, small_dataset
    ):
        # Lambdas fail pickling on the caller's thread with a pointer to
        # ProgramFactory — at open() (pre-bind), never silently in the
        # queue feeder thread.
        engine = ProcessShardedEngine(
            lambda: SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192),
            workers=2,
        )
        with pytest.raises(ServeError, match="picklable"):
            engine.open()
        assert engine._cleaned
        assert not _leaked_segments()

    def test_create_engine_dispatch(self, splidt_model, splidt_rules):
        factory = ProgramFactory(splidt_model, splidt_rules, 256)
        engine = create_engine(factory, engine="sharded-mp", workers=3,
                               spawn_method="fork")
        assert engine.name == "sharded-mp"
        assert engine.workers == 3 and engine.start_method == "fork"
