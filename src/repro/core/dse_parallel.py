"""Parallel DSE candidate evaluation over a persistent worker-process pool.

:class:`~repro.core.dse.DesignSearch` proposes candidate configurations in
batches (the paper evaluates 16 per BO iteration) but evaluated them one at
a time on the calling thread — so every sweep paid
``batch_size x (train + rulegen + backend)`` wall-clock per iteration.  This
module fans a batch out to worker *processes*:

* the materialised :class:`~repro.datasets.materialize.WindowedDataset` is
  placed once per partition count into a
  :class:`~repro.datasets.shm.SharedArrayBundle` segment (prefix
  ``splidt-dse``); workers attach zero-copy views the way the sharded-mp
  serving engine shares ``PacketArrays``, instead of re-pickling the
  training matrices per candidate;
* each worker keeps its own
  :class:`~repro.core.dse.EvaluationContext` over the attached data, so the
  config-independent prefix (precision copies, quantiser fits) is memoised
  worker-side across candidates;
* dispatch and merge are **deterministic**: candidate ``i`` of a batch goes
  to worker ``i % workers``, duplicates within the batch are evaluated once,
  and results are returned in proposal order regardless of completion order
  — which is what keeps a parallel search bit-identical to the serial loop
  (the only things that differ are the wall-clock and the measured stage
  timings).

Failure discipline mirrors :mod:`repro.serve.process_sharded`: a worker
that raises ships its traceback back and fails the search; a worker that
*dies* (crash, SIGKILL) is detected by liveness polling while the parent
waits; both paths tear the pool down — terminate + join every process,
unlink every shared segment — before raising :class:`DseError`, and a
``weakref.finalize`` guard repeats the cleanup at GC/exit so an abandoned
pool cannot leak ``/dev/shm`` segments or zombie processes.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import traceback
import weakref

from repro.affinity import resolve_affinity
from repro.core.dse import CandidateEvaluation, EvaluationContext, config_cache_key, evaluate_configuration
from repro.datasets.materialize import WindowedDataset
from repro.datasets.shm import SharedArrayBundle
from repro.datasets.workloads import WORKLOADS
from repro.switch.targets import TOFINO1

#: Prefix of the shared dataset segments (``ls /dev/shm`` shows the owner).
DSE_SEGMENT_PREFIX = "splidt-dse"

#: Seconds to wait for a worker to import the package and report ready.
_READY_TIMEOUT = 300.0

#: Seconds without a result before a candidate evaluation is declared hung.
_EVAL_TIMEOUT = 3600.0

#: Poll interval (seconds) for queue waits that must watch worker liveness.
_POLL = 0.2

#: Dataset array fields shipped through the shared segment.
_SHARED_FIELDS = (
    "window_features",
    "flow_features",
    "packet_features",
    "labels",
    "train_indices",
    "test_indices",
)


class DseError(RuntimeError):
    """A parallel design-search session failed (worker error or crash)."""


class _AttachedStore:
    """Worker-side ``DatasetStore`` facade over attached shared segments.

    Quacks like :class:`~repro.datasets.materialize.DatasetStore` for the
    one method candidate evaluation uses (``fetch``), returning
    :class:`WindowedDataset` views whose arrays live in the parent's shared
    segments.  Attaching is idempotent per partition count, so the layout
    can ride along with every task message.
    """

    def __init__(self) -> None:
        self._bundles: dict[int, SharedArrayBundle] = {}
        self._datasets: dict[int, WindowedDataset] = {}

    def offer(self, layout, meta: dict) -> None:
        """Attach one shared dataset if its partition count is new."""
        n_partitions = meta["n_partitions"]
        if n_partitions in self._datasets:
            return
        bundle = SharedArrayBundle.attach(layout)
        self._bundles[n_partitions] = bundle
        arrays = bundle.arrays
        self._datasets[n_partitions] = WindowedDataset(
            name=meta["name"],
            n_partitions=n_partitions,
            window_features=arrays["window_features"],
            flow_features=arrays["flow_features"],
            packet_features=arrays["packet_features"],
            labels=arrays["labels"],
            class_names=list(meta["class_names"]),
            train_indices=arrays["train_indices"],
            test_indices=arrays["test_indices"],
            metadata=dict(meta["metadata"]),
        )

    def fetch(self, n_partitions: int) -> WindowedDataset:
        return self._datasets[n_partitions]

    def close(self) -> None:
        self._datasets.clear()
        for bundle in self._bundles.values():
            bundle.close()
        self._bundles.clear()


def _worker_main(index: int, affinity: bool, tasks, results) -> None:
    """Worker process body: init once, then evaluate candidates until stop.

    Startup is two-phase like the serving pool: the heavyweight init payload
    (target spec, workloads, seed) travels through the task queue rather
    than the ``Process`` args, and the worker replies ``("ready", index)``
    before any candidate is dispatched.  Every failure — init or
    per-candidate — ships its traceback back as an ``("error", ...)``
    message; the parent decides to fail the search.
    """
    import pickle

    if affinity:
        from repro.affinity import pin_worker

        pin_worker(index)
    try:
        message = tasks.get()
        if message[0] != "init":
            return  # torn down before init (parent sent "stop")
        target, workloads, random_state = pickle.loads(message[1])
        results.put(("ready", index))
    except BaseException:
        results.put(("error", index, None, traceback.format_exc()))
        return

    store = _AttachedStore()
    context = EvaluationContext(store)
    try:
        while True:
            message = tasks.get()
            if message[0] == "stop":
                break
            if message[0] != "eval":
                continue
            _, task_id, config, layout, meta = message
            try:
                store.offer(layout, meta)
                candidate = evaluate_configuration(
                    store,
                    config,
                    target=target,
                    workloads=workloads,
                    random_state=random_state,
                    context=context,
                )
                results.put(("done", index, task_id, candidate))
            except BaseException:
                results.put(("error", index, task_id, traceback.format_exc()))
    finally:
        del context  # drop cached views before unmapping the segments
        store.close()


def _release_resources(processes, queues, segments) -> None:
    """GC/crash guard shared by ``weakref.finalize`` and ``close()``."""
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


class ParallelEvaluator:
    """Persistent pool of DSE evaluator processes with deterministic merge.

    Args:
        store: The parent's :class:`~repro.datasets.materialize.DatasetStore`
            — materialisations happen in the parent (once per partition
            count) and are shared with workers via shared memory.
        workers: Worker process count (>= 1).
        target: Hardware target forwarded to every evaluation.
        workloads: Workload profiles forwarded to every evaluation.
        random_state: Training seed forwarded to every evaluation.
        affinity: Pin each worker to one CPU (off unless set; no-op with a
            warning where unsupported).
        start_method: Multiprocessing start method (``None`` = platform
            default — fork on Linux, spawn on macOS/Windows).

    Example::

        >>> pool = ParallelEvaluator(store, workers=4)
        >>> with pool:
        ...     candidates = pool.evaluate_batch(configs, cache={})
    """

    def __init__(
        self,
        store,
        *,
        workers: int,
        target=TOFINO1,
        workloads=None,
        random_state: int = 0,
        affinity: bool | None = None,
        start_method: str | None = None,
    ) -> None:
        if workers < 1:
            raise DseError(f"workers must be >= 1, got {workers}")
        self.store = store
        self.workers = workers
        self.target = target
        self.workloads = workloads or WORKLOADS
        self.random_state = random_state
        self.affinity = resolve_affinity(affinity)

        self._ctx = multiprocessing.get_context(start_method)
        self._results = self._ctx.Queue()
        self._task_queues: list = []
        self._processes: list = []
        #: Shared dataset bundles by partition count (owner side).
        self._shared: dict[int, tuple] = {}
        #: Everything unlink-able, in creation order (finalizer sees appends).
        self._segments: list = []
        self._task_counter = 0
        self._cleaned = False

        for index in range(workers):
            tasks = self._ctx.Queue()
            process = self._ctx.Process(
                target=_worker_main,
                name=f"dse-eval-{index}",
                args=(index, self.affinity, tasks, self._results),
                daemon=True,
            )
            self._task_queues.append(tasks)
            self._processes.append(process)
        self._finalizer = weakref.finalize(
            self, _release_resources, self._processes,
            [*self._task_queues, self._results], self._segments,
        )
        # Start the parent's shared-memory resource tracker *before* forking:
        # the dataset segments are created lazily (after the pool is up), and
        # a forked worker with no inherited tracker fd would spawn a private
        # tracker on attach — whose registrations only the owner's unlink can
        # resolve, producing spurious "leaked shared_memory" warnings at
        # worker exit.  With the tracker pre-started every process shares it.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        for process in self._processes:
            process.start()

        import pickle

        payload = pickle.dumps(
            (self.target, self.workloads, self.random_state),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        for tasks in self._task_queues:
            tasks.put(("init", payload))
        ready: set[int] = set()
        while len(ready) < self.workers:
            message = self._next_result(timeout=_READY_TIMEOUT, waiting_for="worker startup")
            if message[0] == "ready":
                ready.add(message[1])
            elif message[0] == "error":
                self._fail(f"worker {message[1]} failed during startup:\n{message[3]}")

    # ------------------------------------------------------------------
    # Batch evaluation
    # ------------------------------------------------------------------
    def evaluate_batch(
        self, configs: list, cache: dict[tuple, CandidateEvaluation]
    ) -> list[CandidateEvaluation]:
        """Evaluate a proposal batch; return results in proposal order.

        ``cache`` is the parent's config-key cache
        (``DesignSearch._evaluated``): configurations already present are
        not re-dispatched, duplicates within the batch are dispatched once,
        and every fresh result is stored back — so the cache stays correct
        no matter which process produced the evaluation.
        """
        if self._cleaned:
            raise DseError("evaluator pool is closed")
        order = [config_cache_key(config) for config in configs]
        fresh: dict[tuple, object] = {}
        for key, config in zip(order, configs):
            if key not in cache and key not in fresh:
                fresh[key] = config

        pending: dict[int, tuple] = {}
        for i, (key, config) in enumerate(fresh.items()):
            task_id = self._task_counter
            self._task_counter += 1
            layout, meta = self._share(config.n_partitions)
            self._task_queues[i % self.workers].put(
                ("eval", task_id, config, layout, meta)
            )
            pending[task_id] = key

        while pending:
            message = self._next_result(
                timeout=_EVAL_TIMEOUT, waiting_for="candidate evaluations"
            )
            if message[0] == "error":
                self._fail(f"worker {message[1]} failed:\n{message[3]}")
            if message[0] == "done":
                task_id, candidate = message[2], message[3]
                cache[pending.pop(task_id)] = candidate
        return [cache[key] for key in order]

    def _share(self, n_partitions: int) -> tuple:
        """Place one materialisation into shared memory (cached per count)."""
        if n_partitions not in self._shared:
            windowed = self.store.fetch(n_partitions)
            bundle = SharedArrayBundle.create(
                {name: getattr(windowed, name) for name in _SHARED_FIELDS},
                prefix=DSE_SEGMENT_PREFIX,
            )
            self._segments.append(bundle)
            meta = {
                "name": windowed.name,
                "n_partitions": n_partitions,
                "class_names": list(windowed.class_names),
                "metadata": dict(windowed.metadata),
            }
            self._shared[n_partitions] = (bundle.layout, meta)
        return self._shared[n_partitions]

    # ------------------------------------------------------------------
    # Worker plumbing
    # ------------------------------------------------------------------
    def _next_result(self, *, timeout: float, waiting_for: str):
        """One message off the result queue, watching worker liveness."""
        waited = 0.0
        while True:
            try:
                return self._results.get(timeout=_POLL)
            except queue_module.Empty:
                waited += _POLL
                for process in self._processes:
                    if process.exitcode is not None and not self._cleaned:
                        self._fail(
                            f"worker {process.name} exited with code "
                            f"{process.exitcode} while the pool was busy"
                        )
                if waited >= timeout:
                    self._fail(f"timed out after {timeout:.0f}s waiting for {waiting_for}")

    def _fail(self, reason: str) -> None:
        self.close()
        raise DseError(reason)

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop workers, release queues, unlink shared segments (idempotent)."""
        if self._cleaned:
            return
        self._cleaned = True
        for tasks in self._task_queues:
            try:
                tasks.put_nowait(("stop",))
            except Exception:
                pass
        for process in self._processes:
            process.join(timeout=5.0)
        _release_resources(
            self._processes, [*self._task_queues, self._results], self._segments
        )
        self._finalizer.detach()

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


__all__ = ["DSE_SEGMENT_PREFIX", "DseError", "ParallelEvaluator"]
