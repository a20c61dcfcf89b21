"""Process-sharded engine: multi-core serving over shared memory.

All cross-packet state a data-plane program keeps is indexed by the CRC32
register slot of the flow's 5-tuple, so flows whose slots differ never
interact.  This module turns that into parallelism: flows are partitioned by
``slot % workers`` across worker **processes** (threads would serialise on
the GIL):

* the structure-of-arrays packet source is placed once into a
  :class:`~repro.datasets.shm.SharedPacketArrays` segment; every worker
  attaches zero-copy NumPy views over the same pages;
* per-chunk messages carry only packet *positions* (``intp`` indices into
  the shared columns) over a single-producer/single-consumer shared-memory
  ring buffer per worker (:mod:`repro.serve.ring`).  The parent copies each
  per-shard position span straight into the worker's ring arena and bumps a
  cursor; nothing is pickled per chunk, ``ingest`` returns as soon as the
  copy lands (so the parent stages chunk N+1 while workers consume chunk N),
  and crash detection is folded into the busy-wait-then-backoff loops on
  both sides;
* a worker pays per ``ingest``, not per packet, so it joins the chunk
  messages it finds buffered back to back on its ring into one ``ingest``:
  the further it falls behind, the larger its batches (no cap, no knob);
* each worker owns a fresh program instance (its own slot state and
  recirculation channel) plus a micro-batch engine over them;
  programs are **pre-bound at pool start** — ``open()`` blocks until every
  worker has built its program (LUT compilation included), so warm-up is
  paid once up front instead of inside the serving window;
* verdict and counter aggregation happens **in the workers**: each
  worker's program keeps its own decided rows and :class:`~repro.obs.Counters`
  record, and ships the rows decided since its last report, as arrays, with
  a snapshot of the record, once per drain/snapshot round.  The parent
  appends payloads to one verdict store in *worker index order* (never
  arrival order), so the merged verdict stream is bit-identical run to run
  even when a worker finishes late.

Because flows that share a register slot land on the same worker by
construction (``slot % workers``), hash-collision corruption is reproduced
bit-exactly — the parity suite runs this engine against the reference
interpreter at 64-slot collision pressure.

Teardown is crash-safe: the parent owns the shared segments (the packet
source *and* the rings) and unlinks them on ``close()``, on any failure
path, and from a ``weakref.finalize`` guard, so a worker crash mid-stream
cannot leak ``/dev/shm`` segments.  A dead worker is detected inside the
blocking ring waits and on the next ``ingest``/``drain``/``stats``
call, surfacing as a :class:`~repro.serve.engine.ServeError` after cleanup;
a worker that loses its parent (re-parenting observed while blocked on an
empty ring) tears itself down.

Start methods: ``None`` follows the platform default — ``"fork"`` on Linux
(inherits the parent's imports cheaply), ``"spawn"`` on macOS/Windows;
``"spawn"``/``"forkserver"`` re-import the package per worker.  Under every
start method the program factory — and everything it references — must be
picklable, because it is shipped through the bind message (the pipeline's
:class:`repro.pipeline.systems.ProgramFactory` is; lambdas and closures are
rejected with an actionable error at ``open()``).
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import traceback
import weakref

import numpy as np

from repro.dataplane import vectorized as vz
from repro.dataplane.verdicts import Verdicts, VerdictStore
from repro.datasets.flows import LazyFlowList
from repro.datasets.shm import SharedPacketArrays
from repro.datasets.streams import PacketChunk
from repro.obs import Counters
from repro.serve.engine import InferenceEngine, ServeError
from repro.serve.ring import (
    KIND_CHUNK,
    KIND_DRAIN,
    KIND_SNAPSHOT,
    KIND_STOP,
    RingFullError,
    SpscRing,
)

#: Start methods accepted by :class:`ProcessShardedEngine` (``None`` = pick).
START_METHODS = (None, "fork", "spawn", "forkserver")

#: Default ring geometry: slots per worker ring / positions per slot span.
DEFAULT_RING_SLOTS = 64
DEFAULT_RING_SPAN = 4096

#: Seconds to wait for a worker to build its program and report ready.
_READY_TIMEOUT = 300.0

#: Poll interval (seconds) for queue operations that must watch liveness.
_POLL = 0.2

#: Bounded wait for best-effort stop messages during teardown.
_STOP_TIMEOUT = 0.25


def _snapshot_payload(engine, program, reported: int) -> dict:
    """What a worker reports about its shard: *new* decided rows + its counter record.

    Only the rows decided after the first ``reported`` cross the result
    queue, as the program's verdict columns (the parent appends them to one
    store), so frequent observation — ``stats()`` every chunk, the CLI's
    ``--digests`` — stays linear in decided flows instead of quadratic, and
    no verdict object is pickled.
    """
    return {
        "rows": program.verdict_rows(reported),
        "counters": program.counters.snapshot(),
        "buffered": engine._buffered_packet_count(),
    }


class _ParentLost(RuntimeError):
    """Worker-side: the parent process died while we waited on the ring."""


def _pop_batch(ring: SpscRing, poll=None) -> tuple[int, np.ndarray, int]:
    """Pop the next message; a chunk absorbs the chunks buffered right behind it.

    Returns ``(kind, positions, messages)``.  Chunks join in push order and
    stop at the first other message or at an empty ring, so a drain,
    snapshot or stop is never absorbed and still follows every chunk pushed
    before it.  The engines' parity contract holds for any chunking, so the
    batch is one ``ingest`` whose size is the backlog the worker found.
    """
    kind, positions, _seq = ring.pop(poll=poll)
    if kind != KIND_CHUNK:
        return kind, positions, 1
    parts = [positions]
    while ring.peek() == KIND_CHUNK:
        parts.append(ring.pop()[1])
    if len(parts) > 1:
        positions = np.concatenate(parts)
    return kind, positions, len(parts)


def _worker_main(
    index: int,
    flush_flows: int | None,
    backpressure: int | None,
    tasks,
    results,
) -> None:
    """Worker process body: build the program, attach shared views, serve.

    Startup is two-phase so programs pre-bind before any traffic exists:

    1. ``("bind", factory_bytes)`` — build the program and its micro-batch engine,
       reply ``("ready", index, table_size, recirculation capacity)``.  Everything heavyweight
       travels through the task queue rather than the ``Process`` args,
       because a large args pickle is written synchronously by
       ``process.start()`` — the parent would block forever in ``start()``
       if a worker died mid-unpickle.  The payload is pickled *once*,
       eagerly, on the caller's thread, so an unpicklable factory fails
       loudly instead of vanishing in the queue's feeder thread.
    2. ``("attach", source_bytes, ring_layout)`` — map the shared packet
       segment and the worker's ring, seed the flow hashes, and enter
       the serve loop (``chunk``/``drain``/``snapshot``/``stop`` ring
       messages).  The chunks buffered back to back on the ring become one
       ``ingest`` (:func:`_pop_batch`); the program's record counts both
       (``serve.ring_messages``, ``serve.ring_ingests``).

    After any failure the worker keeps consuming (and discarding) messages
    until ``stop`` so the parent's bounded pushes can never deadlock against
    a wedged shard; the failure itself travels back as an
    ``("error", index, trace)`` message.  While blocked on an empty ring the
    worker polls for re-parenting and tears itself down if the parent is
    gone (daemon cleanup never runs when the parent is SIGKILLed).
    """
    import pickle

    from repro.serve.microbatch import MicroBatchEngine

    parent_pid = os.getppid()
    shared = None
    engine = None
    try:
        message = tasks.get()
        if message[0] != "bind":
            return  # torn down before binding (parent sent "stop")
        program_factory = pickle.loads(message[1])
        program = program_factory()
        if program is None:
            raise ServeError("program_factory returned None")
        kwargs = {}
        if flush_flows is not None:
            kwargs["flush_flows"] = flush_flows
        if backpressure is not None:
            kwargs["backpressure"] = backpressure
        engine = MicroBatchEngine(program, **kwargs)
        engine.open()
        results.put(
            ("ready", index, program.indexer.table_size, program.recirculation.capacity_bps)
        )

        message = tasks.get()
        if message[0] != "attach":
            return  # session closed without traffic
        layout, slots, tuple_ids, workers = pickle.loads(message[1])
        shared = SharedPacketArrays.attach(layout)
        soa = shared.arrays
        # The parent routes a flow by its slot: this engine meets its shard's
        # flows only, so its window table holds no other.
        engine._table_flows = np.flatnonzero(slots % workers == index)
        # No flow object crosses the boundary: identity and packets come from
        # the shared columns, materialised lazily (scalar paths only).
        flows = LazyFlowList(soa)
        vz.seed_flow_hashes(soa, program.indexer.table_size, slots, tuple_ids)
        ring = SpscRing.attach(message[2])
        for name in ("ring_messages", "ring_ingests"):
            program.counters.add(f"serve.{name}", 0)
    except BaseException:
        results.put(("error", index, traceback.format_exc()))
        _consume_until_stop(tasks)
        if shared is not None:
            shared.close()
        return

    def check_parent() -> None:
        if os.getppid() != parent_pid:
            raise _ParentLost

    reported = 0

    def reply(kind: str) -> None:
        nonlocal reported
        payload = _snapshot_payload(engine, program, reported)
        reported += payload["rows"][0].size
        results.put((kind, index, payload))

    failed = False
    try:
        while True:
            kind, positions, messages = _pop_batch(ring, check_parent)
            try:
                if kind == KIND_STOP:
                    break
                if failed:
                    if kind in (KIND_DRAIN, KIND_SNAPSHOT):
                        results.put(("error", index, "worker already failed"))
                    continue
                if kind == KIND_CHUNK:
                    program.counters.add("serve.ring_messages", messages)
                    program.counters.add("serve.ring_ingests")
                    engine.ingest(PacketChunk(soa=soa, flows=flows, positions=positions))
                elif kind == KIND_DRAIN:
                    engine.drain()
                    reply("drained")
                elif kind == KIND_SNAPSHOT:
                    reply("snapshot")
            except BaseException:
                failed = True
                results.put(("error", index, traceback.format_exc()))
    except _ParentLost:
        pass  # orphaned: fall through to teardown
    del engine  # drop chunk/soa references so the shared mapping can unmap
    ring.close()
    shared.close()


def _consume_until_stop(tasks) -> None:
    """Discard task-queue messages until ``stop`` (or a minute of silence)."""
    while True:
        try:
            if tasks.get(timeout=60.0)[0] == "stop":
                return
        except queue_module.Empty:
            return


def _release_resources(processes, queues, segments) -> None:
    """GC/crash guard shared by ``weakref.finalize`` and ``_cleanup``.

    ``segments`` is a mutable list the engine appends to as shared resources
    come into existence (the packet segment at first ingest, one ring per
    worker) — the finalizer is registered once, at pool start, and always
    sees the live set.
    """
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=5.0)
        if process.is_alive():  # pragma: no cover - stuck in uninterruptible IO
            process.kill()
            process.join(timeout=5.0)
    for q in queues:
        try:
            q.close()
            q.cancel_join_thread()
        except Exception:
            pass
    for segment in segments:
        try:
            segment.unlink()
            segment.close()
        except Exception:
            pass


class ProcessShardedEngine(InferenceEngine):
    """Partitions flows by CRC32 register slot across worker *processes*.

    Each shard runs in its own interpreter (its own program, slot state
    and recirculation channel); verdicts and recirculation counters merge
    bit-exactly.  Packet columns are shared (one shared-memory segment,
    zero-copy worker views); only positions cross the process boundary per
    chunk, through a shared-memory SPSC ring per worker.

    ``open()`` pre-binds the pool: it blocks until every worker has built
    its program (so a broken or unpicklable factory fails the ``open()``,
    and the serving window that follows contains no warm-up).

    Args:
        program_factory: Zero-argument callable building a *fresh* program;
            called once per worker, inside the worker process.  Must be
            picklable under every start method (use
            :class:`repro.pipeline.systems.ProgramFactory`, not a lambda).
        workers: Worker process count (>= 1).
        start_method: ``"fork"``, ``"spawn"``, ``"forkserver"`` or ``None``
            (the platform's multiprocessing default: fork on Linux, spawn
            on macOS/Windows).
        ring_slots: Slots per worker ring.  A full ring is this engine's
            backpressure: ``ingest`` blocks with backoff until
            the worker frees a slot.
        ring_span: Positions one ring slot can carry; larger per-shard
            chunks are split across consecutive slots (semantically
            invisible — the parity contract holds for any chunking).
        flush_flows: Eager-flush threshold of micro-batch children.
        backpressure: Buffered-packet limit of micro-batch children.

    Example::

        >>> from repro.serve import ProcessShardedEngine
        >>> engine = ProcessShardedEngine(factory, workers=4)
        >>> with engine:
        ...     for chunk in iter_packet_chunks(dataset, 2048):
        ...         engine.ingest(chunk)
        >>> engine.result().report.f1_score  # doctest: +SKIP
        0.87
    """

    name = "sharded-mp"

    def __init__(
        self,
        program_factory,
        *,
        workers: int = 4,
        start_method: str | None = None,
        ring_slots: int = DEFAULT_RING_SLOTS,
        ring_span: int = DEFAULT_RING_SPAN,
        flush_flows: int | None = None,
        backpressure: int | None = None,
    ) -> None:
        super().__init__()
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers}")
        if ring_slots < 1:
            raise ServeError(f"ring_slots must be >= 1, got {ring_slots}")
        if ring_span < 1:
            raise ServeError(f"ring_span must be >= 1, got {ring_span}")
        if start_method not in START_METHODS:
            raise ServeError(
                f"unknown start method {start_method!r}; expected one of {START_METHODS}"
            )
        if start_method is not None and start_method not in multiprocessing.get_all_start_methods():
            raise ServeError(
                f"start method {start_method!r} is not available on this platform"
            )
        self.program_factory = program_factory
        self.workers = workers
        self.start_method = start_method
        self.ring_slots = ring_slots
        self.ring_span = ring_span
        self.flush_flows = flush_flows
        self.child_backpressure = backpressure

        self._ctx = None
        self._processes: list = []
        self._task_queues: list = []
        self._results = None
        self._shared: SharedPacketArrays | None = None
        self._rings: list[SpscRing] = []
        #: Everything unlink-able, in creation order (finalizer sees appends).
        self._segments: list = []
        self._shard_of_flow: np.ndarray | None = None
        self._table_size: int | None = None
        self._merged = VerdictStore()
        #: Each worker's counter record, as of its last snapshot or drain.
        self._shard_counters: dict[int, dict[str, float]] = {}
        self._buffered: dict[int, int] = {}
        #: Responses consumed outside their _collect round (see _check_failures),
        #: buffered per shard so _collect can absorb in worker-index order.
        self._stray: dict[str, dict[int, dict]] = {"snapshot": {}, "drained": {}}
        self._transport_counters: dict[str, float] = {}
        self._final = False
        self._cleaned = False
        self._finalizer = None

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def _on_open(self) -> None:
        # start_method None defers to the *platform default* (fork on Linux,
        # spawn on macOS/Windows) — not "fork wherever it exists": macOS
        # lists fork as available but made spawn its default because forking
        # a process that touched the system frameworks is unsafe there.
        self._ctx = multiprocessing.get_context(self.start_method)
        self._start_pool()

    def _start_pool(self) -> None:
        """Pre-bind the pool: fork/spawn workers and build their programs.

        Blocks until every worker has reported ready with its program's
        register table size, so a broken factory fails the ``open()`` that
        triggered the start and the serving window contains no warm-up.
        """
        self._results = self._ctx.Queue()
        for index in range(self.workers):
            # Carries bind/attach/stop only; chunks travel over the rings.
            tasks = self._ctx.Queue()
            process = self._ctx.Process(
                target=_worker_main,
                name=f"serve-mp-shard-{index}",
                args=(
                    index,
                    self.flush_flows,
                    self.child_backpressure,
                    tasks,
                    self._results,
                ),
                daemon=True,
            )
            self._task_queues.append(tasks)
            self._processes.append(process)
        self._finalizer = weakref.finalize(
            self, _release_resources, self._processes,
            [*self._task_queues, self._results], self._segments,
        )
        # Pre-start the parent's shared-memory resource tracker: the packet
        # segment and rings are created lazily (first ingest), so a forked
        # worker with no inherited tracker fd would spawn a private tracker
        # on attach and warn about "leaked" segments at exit that only the
        # owner's unlink can resolve.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        for process in self._processes:
            process.start()
        # One pickle pass for all workers — and an eager, actionable error
        # for unpicklable factories (queue items are otherwise pickled on a
        # background feeder thread, where a failure would be invisible).
        import pickle

        try:
            payload = pickle.dumps(self.program_factory, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            self._fail(
                "program_factory (and everything it references) must be "
                "picklable — use repro.pipeline.systems.ProgramFactory or a "
                f"module-level callable, not a lambda/closure: {exc}"
            )
        for tasks in self._task_queues:
            tasks.put(("bind", payload))

        table_sizes: dict[int, int] = {}
        while len(table_sizes) < self.workers:
            message = self._next_result(timeout=_READY_TIMEOUT, waiting_for="worker startup")
            if message[0] == "ready":
                table_sizes[message[1]] = message[2]
                self._capacity_bps = message[3]
            elif message[0] == "error":
                self._fail(f"worker {message[1]} failed during startup:\n{message[2]}")
        if len(set(table_sizes.values())) > 1:
            self._fail(
                "all shard programs must share one register table size "
                f"(got {sorted(set(table_sizes.values()))})"
            )
        self._table_size = next(iter(table_sizes.values()))

    def _attach_source(self) -> None:
        """First-chunk setup: share the packet source and hand out the rings.

        The pool is already warm (programs built at ``open()``); this only
        copies the SoA columns into shared memory, creates the per-worker
        rings, and ships the attach payload — pickled once, shared by every
        worker (the tiny per-worker ring layout rides alongside).
        """
        import pickle

        self._shared = SharedPacketArrays.create(self._soa)
        self._segments.append(self._shared)
        slots = vz.cached_flow_slots(self._soa, self._table_size)
        tuple_ids = vz.cached_tuple_ids(self._soa, self._table_size)
        self._shard_of_flow = (slots % self.workers).astype(np.intp)
        for _ in range(self.workers):
            ring = SpscRing.create(slots=self.ring_slots, span=self.ring_span)
            self._rings.append(ring)
            self._segments.append(ring)
        payload = pickle.dumps(
            (self._shared.layout, slots, tuple_ids, self.workers),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        for tasks, ring in zip(self._task_queues, self._rings):
            tasks.put(("attach", payload, ring.layout))

    def _ingest(self, chunk: PacketChunk) -> None:
        if self._shard_of_flow is None:
            self._attach_source()
        self._check_failures()
        positions = chunk.positions
        if positions.size == 0:
            return
        shard_of_packet = self._shard_of_flow[self._soa.packet_flow[positions]]
        for shard in range(self.workers):
            sub = positions[shard_of_packet == shard]
            if sub.size:
                self._send_chunk(shard, sub)

    def _send_chunk(self, shard: int, positions: np.ndarray) -> None:
        ring = self._rings[shard]
        # Spans wider than one slot are split; the child engines are
        # chunking-agnostic (the parity suite runs every chunk size).
        for offset in range(0, positions.size, ring.span):
            ring.push(
                KIND_CHUNK,
                positions[offset:offset + ring.span],
                poll=self._check_failures,
            )

    def _drain(self) -> None:
        if self._shard_of_flow is None:
            self._final = True
            return
        self._check_failures()
        for ring in self._rings:
            ring.push(KIND_DRAIN, poll=self._check_failures)
        self._collect("drained")
        self._final = True

    def _on_close(self) -> None:
        self._cleanup()

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._cleanup()

    # ------------------------------------------------------------------
    # Worker plumbing
    # ------------------------------------------------------------------
    def _next_result(self, *, timeout: float, waiting_for: str):
        """One message off the shared result queue, watching worker liveness."""
        waited = 0.0
        while True:
            try:
                return self._results.get(timeout=_POLL)
            except queue_module.Empty:
                waited += _POLL
                self._check_liveness()
                if waited >= timeout:
                    self._fail(f"timed out after {timeout:.0f}s waiting for {waiting_for}")

    def _collect(self, kind: str) -> None:
        """Gather one ``kind`` response per worker, then fold them in order.

        Payloads are buffered until every worker has replied and absorbed in
        **worker index order** — never arrival order — so the merged verdict
        stream is bit-identical across runs regardless of which worker
        finishes last.  Responses already drained off the queue by
        :meth:`_check_failures` (while a blocking send waited) count via the
        stray buffer, so nothing is waited for twice.
        """
        payloads = self._stray[kind]
        self._stray[kind] = {}
        while len(payloads) < self.workers:
            message = self._next_result(timeout=_READY_TIMEOUT, waiting_for=f"{kind} responses")
            if message[0] == "error":
                self._fail(f"worker {message[1]} failed:\n{message[2]}")
            if message[0] == kind:
                payloads[message[1]] = message[2]
        for shard in sorted(payloads):
            self._absorb(shard, payloads[shard])

    def _absorb(self, shard: int, payload: dict) -> None:
        self._merged.append(*payload["rows"])
        self._shard_counters[shard] = payload["counters"]
        self._buffered[shard] = payload["buffered"]

    def _check_liveness(self) -> None:
        for process in self._processes:
            if process.exitcode is not None and not self._cleaned:
                self._fail(
                    f"worker {process.name} exited with code {process.exitcode} "
                    "while the session was open"
                )

    def _check_failures(self) -> None:
        """Surface asynchronous worker errors/deaths on the caller's thread."""
        if self._cleaned:
            raise ServeError("serving session was torn down after a failure")
        while True:
            try:
                message = self._results.get_nowait()
            except queue_module.Empty:
                break
            if message[0] == "error":
                self._fail(f"worker {message[1]} failed:\n{message[2]}")
            if message[0] in ("snapshot", "drained"):
                self._stray[message[0]][message[1]] = message[2]
        self._check_liveness()

    def _fail(self, reason: str) -> None:
        self._cleanup()
        raise ServeError(reason)

    def _cleanup(self) -> None:
        """Stop workers, release queues, unlink shared segments (idempotent)."""
        if self._cleaned:
            return
        self._cleaned = True
        self._capture_transport_counters()
        for shard, (process, tasks) in enumerate(zip(self._processes, self._task_queues)):
            # A worker may be waiting in either phase: pre-attach on the task
            # queue, post-attach on its ring.  Send stop over both,
            # best-effort; a wedged/full path falls back to terminate.
            delivered = False
            try:
                tasks.put_nowait(("stop",))
                delivered = True
            except Exception:
                pass
            if shard < len(self._rings):
                try:
                    self._rings[shard].push(KIND_STOP, timeout=_STOP_TIMEOUT)
                    delivered = True
                except Exception:  # RingFullError et al: worker likely gone
                    pass
            if not delivered:
                process.terminate()
        for process in self._processes:
            process.join(timeout=5.0)
        all_queues = list(self._task_queues)
        if self._results is not None:
            all_queues.append(self._results)
        _release_resources(self._processes, all_queues, self._segments)
        if self._finalizer is not None:
            self._finalizer.detach()

    # ------------------------------------------------------------------
    # Observation (merged over workers)
    # ------------------------------------------------------------------
    def _engine_verdicts(self) -> Verdicts:
        """Merged verdict snapshot, keyed by globally unique flow id.

        While the stream is open this performs one synchronous
        snapshot round-trip per worker (so it observes every verdict already
        recorded shard-side); after ``drain`` it returns the final merged
        state without touching the workers.
        """
        if self._final or self._shard_of_flow is None or self._cleaned:
            return self._merged.snapshot()
        self._check_failures()
        for ring in self._rings:
            ring.push(KIND_SNAPSHOT, poll=self._check_failures)
        self._collect("snapshot")
        return self._merged.snapshot()

    def _engine_counters(self) -> Counters:
        """The workers' records as of the last snapshot or drain, merged."""
        return Counters.merged(self._shard_counters.values())

    def _capture_transport_counters(self) -> None:
        """Freeze the ring counters before the segments are unlinked."""
        if self._rings and not any(ring.closed for ring in self._rings):
            self._transport_counters = {
                "ring_slots": float(self.ring_slots),
                "ring_occupancy": float(sum(r.occupancy() for r in self._rings)),
                "ring_producer_stalls": float(
                    sum(r.producer_stalls() for r in self._rings)
                ),
                "ring_consumer_stalls": float(
                    sum(r.consumer_stalls() for r in self._rings)
                ),
            }

    def _transport_stats(self) -> dict[str, float]:
        """Ring occupancy/stall counters (empty before the first ``ingest``).

        Occupancy is the live sum of buffered messages across worker rings;
        the stall counters count *episodes* (a blocked push/pop counts once,
        however long it waited).  After ``close()`` the last observed values
        are returned, so a post-mortem ``stats()`` still sees the totals.
        """
        if not self._cleaned:
            self._capture_transport_counters()
        return dict(self._transport_counters)

    def _successor_engine(self, program_factory) -> "ProcessShardedEngine":
        return ProcessShardedEngine(
            program_factory,
            workers=self.workers,
            start_method=self.start_method,
            ring_slots=self.ring_slots,
            ring_span=self.ring_span,
            flush_flows=self.flush_flows,
            backpressure=self.child_backpressure,
        )

    def _swap_table_size(self) -> int | None:
        return self._table_size

    def _buffered_packet_count(self) -> int:
        return sum(self._buffered.values())
