"""Parallel DSE: serial parity, pool-safe caching, crash cleanup, affinity.

The contract under test (see ``docs/performance.md``): for the same seed a
search run with ``workers=N`` must produce a ``SearchResult`` whose history,
convergence trace and Pareto front are **bit-identical** to the serial path
(``workers=0``) — the pool only changes the wall-clock.  A worker that dies
mid-candidate must fail the search cleanly: no leaked ``/dev/shm`` segments,
no zombie processes, and a :class:`~repro.core.dse_parallel.DseError` that
names the dead worker.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import warnings

import pytest

from repro.affinity import affinity_supported, pin_worker, resolve_affinity
from repro.core.config import SpliDTConfig
from repro.core.dse import DesignSearch, config_cache_key
from repro.core.dse_parallel import DseError, ParallelEvaluator
from repro.datasets import DatasetStore, load_dataset
from repro.switch.targets import TOFINO1

SEARCH_KWARGS = dict(
    target=TOFINO1,
    depth_range=(2, 8),
    k_range=(1, 4),
    partitions_range=(1, 3),
    seed=7,
)


@pytest.fixture(scope="module")
def parity_store():
    dataset = load_dataset("D3", n_flows=160, seed=5)
    return DatasetStore(dataset, random_state=5)


def _run_search(store, workers: int):
    with DesignSearch(store, workers=workers, **SEARCH_KWARGS) as search:
        return search.run(n_iterations=6, batch_size=3, method="bayesian")


def _history_signature(result):
    """Everything parity promises, down to the trained split thresholds."""
    return [
        (
            c.config.depth,
            c.config.features_per_subtree,
            c.config.partition_sizes,
            c.config.bit_width,
            c.report.f1_score,
            c.report.accuracy,
            c.report.precision,
            c.report.recall,
            c.resources.max_flows,
            c.rules.n_entries,
            sorted(c.model.subtrees),
            sorted(c.model.features_used()),
            [
                node.threshold
                for sid in sorted(c.model.subtrees)
                for node in c.model.subtrees[sid].tree.tree_.nodes
            ],
        )
        for c in result.history
    ]


def _dse_shm_residue() -> list[str]:
    try:
        return [n for n in os.listdir("/dev/shm") if n.startswith("splidt-dse")]
    except FileNotFoundError:  # non-Linux: nothing to leak
        return []


@pytest.fixture(scope="module")
def serial_result(parity_store):
    return _run_search(parity_store, workers=0)


class TestSerialParallelParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_history_trace_and_pareto_identical(self, parity_store, serial_result, workers):
        result = _run_search(parity_store, workers=workers)
        assert _history_signature(result) == _history_signature(serial_result)
        assert result.convergence_trace() == serial_result.convergence_trace()
        assert [
            config_cache_key(c.config) for c in result.pareto_candidates()
        ] == [config_cache_key(c.config) for c in serial_result.pareto_candidates()]
        assert _dse_shm_residue() == []

    def test_wall_and_cpu_accounting(self, serial_result):
        assert serial_result.workers == 0
        assert serial_result.wall_time > 0
        assert serial_result.aggregate_cpu() > 0

    def test_random_method_parity(self, parity_store):
        serial = DesignSearch(parity_store, workers=0, **SEARCH_KWARGS)
        with DesignSearch(parity_store, workers=2, **SEARCH_KWARGS) as parallel:
            a = serial.run(n_iterations=4, batch_size=2, method="random")
            b = parallel.run(n_iterations=4, batch_size=2, method="random")
        assert _history_signature(a) == _history_signature(b)


class TestPoolSafeCache:
    def test_worker_results_populate_parent_cache(self, parity_store):
        with DesignSearch(parity_store, workers=2, **SEARCH_KWARGS) as search:
            result = search.run(n_iterations=4, batch_size=2)
            for candidate in result.history:
                key = config_cache_key(candidate.config)
                assert search._evaluated[key] is candidate
                # A later serial evaluate() must hit the pool-filled cache.
                assert search.evaluate(candidate.config) is candidate

    def test_duplicates_in_one_batch_evaluate_once(self, parity_store):
        config_a = SpliDTConfig(depth=4, features_per_subtree=2, partition_sizes=(2, 2))
        config_b = SpliDTConfig(depth=3, features_per_subtree=2, partition_sizes=(3,))
        with ParallelEvaluator(parity_store, workers=2, random_state=5) as pool:
            cache: dict = {}
            results = pool.evaluate_batch([config_a, config_a, config_b], cache)
            assert pool._task_counter == 2  # one dispatch per distinct config
            assert results[0] is results[1]
            assert len(cache) == 2

    def test_cached_keys_are_not_redispatched(self, parity_store):
        config = SpliDTConfig(depth=4, features_per_subtree=2, partition_sizes=(2, 2))
        with ParallelEvaluator(parity_store, workers=1, random_state=5) as pool:
            cache: dict = {}
            first = pool.evaluate_batch([config], cache)
            dispatched = pool._task_counter
            second = pool.evaluate_batch([config], cache)
            assert pool._task_counter == dispatched
            assert second[0] is first[0]


class TestCrashCleanup:
    def test_sigkill_mid_candidate_fails_clean(self, parity_store):
        # Enough heavy candidates that the lone worker is guaranteed to be
        # mid-evaluation when the signal lands.
        configs = [
            SpliDTConfig(depth=d, features_per_subtree=4, partition_sizes=sizes)
            for d, sizes in [
                (12, (4, 4, 4)),
                (13, (5, 4, 4)),
                (14, (5, 5, 4)),
                (15, (5, 5, 5)),
            ]
        ]
        with ParallelEvaluator(parity_store, workers=1, random_state=5) as pool:
            failures: list[Exception] = []

            def run() -> None:
                try:
                    pool.evaluate_batch(configs, {})
                except DseError as exc:
                    failures.append(exc)

            thread = threading.Thread(target=run)
            thread.start()
            # Kill the worker once it has dequeued a task — i.e. while it is
            # actually mid-candidate, not before dispatch or after the batch.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if (
                    pool._task_counter >= len(configs)
                    and pool._task_queues[0].qsize() < len(configs)
                ):
                    break
                time.sleep(0.002)
            os.kill(pool._processes[0].pid, signal.SIGKILL)
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert failures, "evaluate_batch returned instead of failing"
            assert "exited" in str(failures[0])
            # Clean teardown: workers reaped (no zombies), nothing in /dev/shm.
            assert all(not p.is_alive() for p in pool._processes)
            assert all(p.exitcode is not None for p in pool._processes)
            assert _dse_shm_residue() == []
            # The pool is unusable but safely so.
            with pytest.raises(DseError):
                pool.evaluate_batch(configs[:1], {})

    def test_worker_exception_fails_search(self, parity_store):
        pool = ParallelEvaluator(parity_store, workers=1, random_state=5)
        # The criterion is only validated during training, i.e. inside the
        # worker: it raises there and ships its traceback back.
        bad = SpliDTConfig(
            depth=4, features_per_subtree=2, partition_sizes=(2, 2), criterion="bogus"
        )
        with pytest.raises(DseError, match="failed"):
            pool.evaluate_batch([bad], {})
        assert _dse_shm_residue() == []

    def test_close_is_idempotent(self, parity_store):
        pool = ParallelEvaluator(parity_store, workers=1, random_state=5)
        pool.close()
        pool.close()
        assert _dse_shm_residue() == []


class TestWorkerKnobs:
    def test_workers_env_resolution(self, monkeypatch, parity_store):
        # SPLIDT_DSE_WORKERS used to size the pool: only the argument does.
        monkeypatch.setenv("SPLIDT_DSE_WORKERS", "3")
        assert DesignSearch(parity_store, **SEARCH_KWARGS).workers == 0
        assert DesignSearch(parity_store, workers=2, **SEARCH_KWARGS).workers == 2

    def test_negative_workers_rejected(self, parity_store):
        with pytest.raises(ValueError, match="workers"):
            DesignSearch(parity_store, workers=-1, **SEARCH_KWARGS)

    def test_affinity_env_resolution(self, monkeypatch):
        # SPLIDT_AFFINITY used to turn pinning on: only the argument does.
        monkeypatch.setenv("SPLIDT_AFFINITY", "1")
        assert resolve_affinity(None) is False
        assert resolve_affinity(False) is False
        assert resolve_affinity(True) is True


class TestAffinity:
    @pytest.mark.skipif(not affinity_supported(), reason="no sched_setaffinity")
    def test_pin_worker_pins_round_robin(self):
        before = os.sched_getaffinity(0)
        try:
            cpus = sorted(before)
            cpu = pin_worker(len(cpus) + 1)  # wraps round-robin
            assert cpu == cpus[(len(cpus) + 1) % len(cpus)]
            assert os.sched_getaffinity(0) == {cpu}
        finally:
            os.sched_setaffinity(0, before)

    def test_pin_worker_degrades_with_warning(self, monkeypatch):
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert pin_worker(0) is None
        assert any("unpinned" in str(w.message) for w in caught)

    def test_parallel_search_with_affinity(self, parity_store, serial_result):
        if not affinity_supported():
            pytest.skip("no sched_setaffinity on this platform")
        with DesignSearch(
            parity_store, workers=2, affinity=True, **SEARCH_KWARGS
        ) as search:
            result = search.run(n_iterations=6, batch_size=3)
        assert _history_signature(result) == _history_signature(serial_result)
