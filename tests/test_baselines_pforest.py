"""Unit tests for the pForest (in-network random forest) baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import evaluate_pforest, train_pforest_model
from repro.baselines.topk import train_topk_model
from repro.core.config import TopKConfig
from repro.core.evaluation import evaluate_classifier
from repro.core.resources import estimate_topk_resources, range_marking_cost
from repro.switch.targets import TOFINO1


def pforest_resources(model, windowed):
    rules = model.generate_rules(windowed.flow_matrix("train"))
    return estimate_topk_resources(model, range_marking_cost(rules, TOFINO1), target=TOFINO1)


@pytest.fixture(scope="module")
def pforest_model(windowed3):
    return train_pforest_model(windowed3, TopKConfig(depth=6, top_k=4), n_trees=5, random_state=1)


class TestPForestTraining:
    def test_ensemble_size(self, pforest_model):
        assert pforest_model.n_trees == 5
        assert len(pforest_model.trees) == 5

    def test_shared_topk_feature_set(self, pforest_model):
        assert len(pforest_model.feature_indices) == 4
        assert pforest_model.features_used() <= set(pforest_model.feature_indices)

    def test_member_depth_respected(self, pforest_model):
        assert all(tree.get_depth() <= 6 for tree in pforest_model.trees)

    def test_predictions_are_valid_labels(self, pforest_model, windowed3):
        predictions = pforest_model.predict(windowed3.flow_matrix("test"))
        assert set(np.unique(predictions)) <= set(range(windowed3.n_classes))

    def test_accuracy_beats_chance(self, pforest_model, windowed3):
        report = evaluate_pforest(pforest_model, windowed3)
        assert report.f1_score > 1.0 / windowed3.n_classes

    def test_ensemble_at_least_as_good_as_single_tree(self, pforest_model, windowed3):
        single = train_topk_model(windowed3, TopKConfig(depth=6, top_k=4), random_state=1)
        single_report = evaluate_classifier(
            single, windowed3.flow_matrix("test"), windowed3.split_labels("test")
        )
        forest_report = evaluate_pforest(pforest_model, windowed3)
        assert forest_report.f1_score >= single_report.f1_score - 0.1

    def test_invalid_n_trees(self, windowed3):
        with pytest.raises(ValueError):
            train_pforest_model(windowed3, TopKConfig(depth=4, top_k=2), n_trees=0)


class TestPForestResources:
    def test_register_layout_same_as_topk(self, pforest_model, windowed3):
        single = train_topk_model(windowed3, TopKConfig(depth=6, top_k=4), random_state=1)
        assert single.feature_indices == pforest_model.feature_indices
        forest = pforest_resources(pforest_model, windowed3)
        tree = pforest_resources(single, windowed3)
        assert forest.layout == tree.layout
        assert forest.layout.feature_bits <= 4 * 32
        assert forest.max_flows == tree.max_flows

    def test_tcam_cost_scales_with_ensemble(self, windowed3):
        small = train_pforest_model(windowed3, TopKConfig(depth=5, top_k=3), n_trees=2, random_state=0)
        large = train_pforest_model(windowed3, TopKConfig(depth=5, top_k=3), n_trees=6, random_state=0)
        small_resources = pforest_resources(small, windowed3)
        large_resources = pforest_resources(large, windowed3)
        assert large_resources.tcam_entries > small_resources.tcam_entries
        assert (small_resources.n_subtrees, large_resources.n_subtrees) == (2, 6)

    def test_rules_have_one_group_per_tree(self, pforest_model, windowed3):
        rules = pforest_model.generate_rules(windowed3.flow_matrix("train"))
        assert len(rules.subtree_rules) == pforest_model.n_trees
