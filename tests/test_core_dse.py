"""Unit tests for the design-space exploration framework."""

from __future__ import annotations

import hashlib

import pytest

import repro.core.dse as dse_module
import repro.datasets.workloads as workloads_module
from repro.core.config import SpliDTConfig
from repro.core.dse import DesignSearch, SearchResult, evaluate_configuration
from repro.datasets import load_dataset
from repro.core.resources import check_feasibility
from repro.datasets.materialize import DatasetStore
from repro.switch.targets import TOFINO1


@pytest.fixture(scope="module")
def store(small_dataset):
    return DatasetStore(small_dataset, random_state=1)


@pytest.fixture(scope="module")
def search_result(store):
    search = DesignSearch(
        store,
        target=TOFINO1,
        depth_range=(2, 10),
        k_range=(1, 4),
        partitions_range=(1, 3),
        seed=2,
    )
    return search.run(n_iterations=8, method="bayesian")


class TestEvaluateConfiguration:
    def test_single_evaluation(self, store):
        config = SpliDTConfig(depth=4, features_per_subtree=3, partition_sizes=(2, 2))
        candidate = evaluate_configuration(store, config, target=TOFINO1)
        assert 0.0 <= candidate.f1_score <= 1.0
        assert candidate.max_flows > 0
        assert candidate.rules.n_entries > 0
        assert candidate.timings.training > 0

    def test_timings_populated(self, store):
        config = SpliDTConfig(depth=3, features_per_subtree=2, partition_sizes=(3,))
        candidate = evaluate_configuration(store, config, target=TOFINO1)
        assert candidate.timings.total > 0
        assert candidate.timings.fetch >= 0

    def test_supports_reflects_capacity(self, store):
        config = SpliDTConfig(depth=4, features_per_subtree=2, partition_sizes=(2, 2))
        candidate = evaluate_configuration(store, config, target=TOFINO1)
        assert check_feasibility(candidate.resources, n_flows=1).feasible
        assert not check_feasibility(candidate.resources, n_flows=10**9).feasible


    def test_duration_moments_memo_is_per_context_and_bit_identical(self, store, monkeypatch):
        draws = []
        sample = workloads_module.sample_flow_durations

        def counted(workload, n_flows, rng):
            draws.append((workload.key, n_flows))
            return sample(workload, n_flows, rng)

        monkeypatch.setattr(workloads_module, "sample_flow_durations", counted)
        # Two configurations with the same flow capacity, so equal keys.
        configs = [
            SpliDTConfig(depth=4, features_per_subtree=2, partition_sizes=(2, 2)),
            SpliDTConfig(depth=4, features_per_subtree=2, partition_sizes=(3, 1)),
        ]
        fresh = [evaluate_configuration(store, c, target=TOFINO1) for c in configs]
        cold_draws = len(draws)
        context = dse_module.EvaluationContext(store)
        memoised = [
            evaluate_configuration(store, c, target=TOFINO1, context=context) for c in configs
        ]
        # Equal (workload, n) keys draw once per context, never across contexts.
        assert len(draws) - cold_draws == len(set(draws[cold_draws:]))
        assert len(draws) - cold_draws < cold_draws
        for a, b in zip(fresh, memoised):
            assert a.resources.recirculation == b.resources.recirculation
        other = dse_module.EvaluationContext(store)
        before = len(draws)
        evaluate_configuration(store, configs[0], target=TOFINO1, context=other)
        assert len(draws) > before


class TestDesignSearch:
    def test_history_length(self, search_result):
        assert len(search_result.history) == 8

    def test_config_from_params_clamps_partitions(self, store):
        search = DesignSearch(store, depth_range=(2, 6), k_range=(1, 3), partitions_range=(1, 7))
        config = search.config_from_params({"depth": 3, "features_per_subtree": 2, "n_partitions": 6})
        assert config.n_partitions <= config.depth
        assert sum(config.partition_sizes) == config.depth

    def test_evaluation_cache_reuses_results(self, store):
        search = DesignSearch(store, depth_range=(2, 6), k_range=(1, 3), partitions_range=(1, 3))
        config = SpliDTConfig(depth=4, features_per_subtree=2, partition_sizes=(2, 2))
        first = search.evaluate(config)
        second = search.evaluate(config)
        assert first is second

    def test_configuration_evaluated_once_within_and_across_batches(
        self, store, monkeypatch
    ):
        calls = []
        real = dse_module.evaluate_configuration

        def spy(store, config, **kwargs):
            calls.append(config)
            return real(store, config, **kwargs)

        monkeypatch.setattr(dse_module, "evaluate_configuration", spy)
        search = DesignSearch(store, depth_range=(2, 6), k_range=(1, 3), partitions_range=(1, 3))
        a = {"depth": 4, "features_per_subtree": 2, "n_partitions": 2}
        b = {"depth": 3, "features_per_subtree": 2, "n_partitions": 1}
        c = {"depth": 2, "features_per_subtree": 1, "n_partitions": 1}
        batches = iter([[a, a, b, a], [b, c, a, c]])
        monkeypatch.setattr(search.space, "sample_many", lambda n, rng: next(batches))
        history = search.run(n_iterations=8, batch_size=4, method="random").history
        assert [search.config_from_params(p) for p in (a, b, c)] == calls
        assert history[0] is history[1] is history[3] is history[6]
        assert history[2] is history[4] and history[5] is history[7]

    def test_pool_keyword_rejected_but_harness_call_shape_works(self, store):
        with pytest.raises(ValueError, match="workers"):
            DesignSearch(store, workers=2)
        # What benchmarks/perf/workloads.py calls until ROADMAP item 5.
        with DesignSearch(store, seed=2, workers=0) as search:
            assert search.run(n_iterations=1).wall_time > 0

    def test_batched_history_matches_the_harness_digest(self):
        """``benchmarks/perf/run.py --workload dse-search --seed 7`` prints this digest."""
        dataset = load_dataset("D3", n_flows=1000, seed=7)
        search = DesignSearch(DatasetStore(dataset, random_state=7), seed=7)
        result = search.run(40, batch_size=4)

        def outcome(candidate):
            config = candidate.config
            return (
                config.depth,
                config.features_per_subtree,
                config.partition_sizes,
                float(candidate.f1_score).hex(),
                candidate.max_flows,
                candidate.rules.n_entries,
            )

        history = [outcome(c) for c in result.history]
        pareto = [outcome(c) for c in result.pareto_candidates()]
        digest = hashlib.sha256(repr((history, pareto)).encode()).hexdigest()
        assert digest.startswith("70abf212f65aae12")

    def test_pareto_candidates_non_dominated(self, search_result):
        front = search_result.pareto_candidates()
        assert front
        for a in front:
            for b in front:
                if a is b:
                    continue
                assert not (
                    a.f1_score >= b.f1_score
                    and a.max_flows >= b.max_flows
                    and (a.f1_score > b.f1_score or a.max_flows > b.max_flows)
                )

    def test_best_at_flows_returns_feasible(self, search_result):
        best = search_result.best_at_flows(100_000)
        if best is not None:
            assert check_feasibility(best.resources, n_flows=100_000).feasible

    def test_best_at_flows_monotone(self, search_result):
        at_100k = search_result.best_at_flows(100_000)
        at_1m = search_result.best_at_flows(1_000_000)
        if at_100k is not None and at_1m is not None:
            assert at_100k.f1_score >= at_1m.f1_score - 1e-9

    def test_convergence_trace_monotone(self, search_result):
        trace = search_result.convergence_trace()
        assert len(trace) == len(search_result.history)
        assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_mean_timings(self, search_result):
        timings = search_result.mean_timings()
        assert timings.training > 0
        assert timings.total >= timings.training

    def test_random_search_mode(self, store):
        search = DesignSearch(
            store, depth_range=(2, 6), k_range=(1, 3), partitions_range=(1, 3), seed=5
        )
        result = search.run(n_iterations=3, method="random")
        assert len(result.history) == 3

    def test_pareto_table_keys(self, search_result):
        table = search_result.pareto_table((100_000, 500_000))
        assert set(table) == {100_000, 500_000}

    def test_empty_search_result(self):
        result = SearchResult(history=[], target=TOFINO1)
        assert result.pareto_candidates() == []
        assert result.best_at_flows(100) is None
        assert result.convergence_trace() == []
