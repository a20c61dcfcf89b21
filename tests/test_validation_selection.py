"""Every selection reads the validation split, never the test labels.

Each check selects twice: on a dataset, and on the same dataset with the
labels of its test rows permuted.  The test scores change under the
permutation, so a selection that read them would change too; one that ranks
on validation F1 must not.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import best_at_flows
from repro.core.dse import DEFAULT_FLOW_TARGETS, DesignSearch, evaluate_uniform_space
from repro.datasets.materialize import DatasetStore
from repro.pipeline import ExperimentSpec, get_system

SPACE = {"depth_range": (2, 8), "k_range": (1, 3), "partitions_range": (1, 3)}


def _permute_test_labels(windowed, seed: int = 0):
    """``windowed`` with the labels of its test rows shuffled among themselves."""
    labels = windowed.labels.copy()
    test = windowed.test_indices
    labels[test] = labels[np.random.default_rng(seed).permutation(test)]
    assert not np.array_equal(labels, windowed.labels)
    return dataclasses.replace(windowed, labels=labels)


class _PermutedStore(DatasetStore):
    """A store over the same splits whose every fetch has its test labels permuted."""

    def __init__(self, store: DatasetStore) -> None:
        super().__init__(store.dataset, test_size=store.test_size, random_state=store.random_state)
        self._permuted: dict = {}

    def fetch(self, n_partitions: int):
        if n_partitions not in self._permuted:
            self._permuted[n_partitions] = _permute_test_labels(super().fetch(n_partitions))
        return self._permuted[n_partitions]


@pytest.fixture(scope="module")
def permuted_store(dataset_store):
    return _PermutedStore(dataset_store)


def _scores(candidates, split):
    return [getattr(c, split).f1_score for c in candidates]


def test_the_enumeration_picks_the_same_designs(dataset_store, permuted_store):
    space = evaluate_uniform_space(dataset_store, **SPACE, bit_widths=(32, 8), random_state=3)
    permuted = evaluate_uniform_space(permuted_store, **SPACE, bit_widths=(32, 8), random_state=3)
    assert [c.config for c in space] == [c.config for c in permuted]
    assert _scores(space, "validation") == _scores(permuted, "validation")
    assert _scores(space, "report") != _scores(permuted, "report")
    for n_flows in DEFAULT_FLOW_TARGETS:
        pick, permuted_pick = best_at_flows(space, n_flows), best_at_flows(permuted, n_flows)
        assert pick is not None, n_flows
        assert pick.config == permuted_pick.config, n_flows


@pytest.mark.parametrize("system", ["netbeacon", "leo", "per_packet"])
def test_a_searched_baseline_trains_the_same_model(system, windowed3):
    # Four permutations: per_packet picks from two candidates, so one
    # permutation could leave even a test-split ranking unchanged.
    permutations = [_permute_test_labels(windowed3, seed) for seed in range(4)]
    for n_flows in DEFAULT_FLOW_TARGETS:
        spec = ExperimentSpec(system=system, target_flows=n_flows, seed=0)
        trained = get_system(system).train(spec, windowed3)
        again = [get_system(system).train(spec, permuted) for permuted in permutations]
        assert [c.model.config for c in again] == [trained.model.config] * 4, n_flows
        assert {c.validation.f1_score for c in again} == {trained.validation.f1_score}


def test_the_design_search_proposes_and_selects_the_same_designs(dataset_store, permuted_store):
    def search(store):
        return DesignSearch(store, **SPACE, seed=5).run(n_iterations=16, batch_size=4)

    result, permuted = search(dataset_store), search(permuted_store)
    assert [c.config for c in result.history] == [c.config for c in permuted.history]
    assert _scores(result.history, "report") != _scores(permuted.history, "report")
    table, permuted_table = result.pareto_table(), permuted.pareto_table()
    assert {n: c and c.config for n, c in table.items()} == {
        n: c and c.config for n, c in permuted_table.items()
    }
    assert [c.config for c in result.pareto_candidates()] == [
        c.config for c in permuted.pareto_candidates()
    ]
