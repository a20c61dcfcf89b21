"""Coverage for full candidate rows and assorted small gaps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SpliDTConfig
from repro.core.dse import evaluate_configuration
from repro.datasets.materialize import DatasetStore
from repro.datasets.registry import dataset_summary
from repro.switch.targets import TOFINO1


@pytest.fixture(scope="module")
def candidate(small_dataset):
    store = DatasetStore(small_dataset, random_state=2)
    config = SpliDTConfig(depth=4, features_per_subtree=3, partition_sizes=(2, 2))
    return evaluate_configuration(store, config, target=TOFINO1)


class TestDatasetSummaries:
    @pytest.mark.parametrize("key,classes", [("D1", 19), ("D5", 32), ("D7", 10)])
    def test_summary_class_counts(self, key, classes):
        assert dataset_summary(key)["classes"] == classes

    def test_summary_has_description(self):
        assert len(dataset_summary("D4")["description"]) > 10


class TestCandidateEvaluationDetails:
    def test_rules_and_resources_consistent(self, candidate):
        assert candidate.resources.tcam_entries == candidate.rules.n_entries
        assert candidate.resources.n_subtrees == candidate.model.n_subtrees

    def test_recirculation_estimates_present(self, candidate):
        assert set(candidate.resources.recirculation) == {"WS", "HD"}
        for estimate in candidate.resources.recirculation.values():
            assert estimate.mean_bps >= 0

    def test_feature_register_bits_match_config(self, candidate):
        expected = candidate.config.features_per_subtree * candidate.config.bit_width
        assert candidate.resources.layout.feature_bits == expected

    def test_predictions_reproducible(self, candidate, small_dataset):
        store = DatasetStore(small_dataset, random_state=2)
        windowed = store.fetch(2)
        first = candidate.model.predict_windows(windowed.window_features[:2])
        second = candidate.model.predict_windows(windowed.window_features[:2])
        np.testing.assert_array_equal(first, second)
