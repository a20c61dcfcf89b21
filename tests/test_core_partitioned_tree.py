"""Unit tests for partitioned decision-tree training and inference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SpliDTConfig
from repro.core.partitioned_tree import OUTCOME_EXIT, OUTCOME_NEXT, train_partitioned_tree
from repro.features.definitions import N_FEATURES


class TestTraining:
    def test_subtree_count_positive(self, splidt_model):
        assert splidt_model.n_subtrees >= 1

    def test_root_subtree_exists_in_partition_zero(self, splidt_model):
        root = splidt_model.subtrees[splidt_model.root_sid]
        assert root.partition == 0

    def test_sids_are_unique_and_contiguous(self, splidt_model):
        sids = sorted(splidt_model.subtrees)
        assert sids == list(range(1, len(sids) + 1))

    def test_every_subtree_respects_feature_budget(self, splidt_model, splidt_config):
        for subtree in splidt_model.subtrees.values():
            assert len(subtree.features_used()) <= splidt_config.features_per_subtree

    def test_every_subtree_respects_partition_depth(self, splidt_model, splidt_config):
        for subtree in splidt_model.subtrees.values():
            assert subtree.depth <= splidt_config.partition_sizes[subtree.partition]

    def test_total_features_exceed_per_subtree_budget(self, splidt_model, splidt_config):
        # The whole point of SpliDT: the model's total feature coverage is
        # larger than any single subtree's budget.
        assert len(splidt_model.features_used()) >= splidt_config.features_per_subtree

    def test_partitions_within_configuration(self, splidt_model, splidt_config):
        partitions = {subtree.partition for subtree in splidt_model.subtrees.values()}
        assert partitions <= set(range(splidt_config.n_partitions))

    def test_outcomes_cover_every_leaf(self, splidt_model):
        for subtree in splidt_model.subtrees.values():
            leaf_ids = {leaf.node_id for leaf in subtree.tree.tree_.leaves()}
            assert set(subtree.outcomes) == leaf_ids

    def test_next_outcomes_point_to_existing_subtrees(self, splidt_model):
        for subtree in splidt_model.subtrees.values():
            for outcome in subtree.outcomes.values():
                if outcome.kind == OUTCOME_NEXT:
                    child = splidt_model.subtrees[outcome.next_sid]
                    assert child.partition == subtree.partition + 1

    def test_exit_outcomes_have_valid_labels(self, splidt_model, windowed3):
        for subtree in splidt_model.subtrees.values():
            for outcome in subtree.outcomes.values():
                if outcome.kind == OUTCOME_EXIT:
                    assert 0 <= outcome.label < windowed3.n_classes

    def test_last_partition_subtrees_only_exit(self, splidt_model, splidt_config):
        last = splidt_config.n_partitions - 1
        for subtree in splidt_model.subtrees.values():
            if subtree.partition == last:
                assert all(o.kind == OUTCOME_EXIT for o in subtree.outcomes.values())

    def test_single_partition_configuration(self, windowed3):
        config = SpliDTConfig(depth=4, features_per_subtree=3, partition_sizes=(4,))
        model = train_partitioned_tree(windowed3, config)
        assert model.n_subtrees == 1
        assert model.config.n_partitions == 1

    def test_too_few_windows_raises(self, windowed3):
        config = SpliDTConfig.uniform(depth=8, n_partitions=8, features_per_subtree=2)
        with pytest.raises(ValueError):
            train_partitioned_tree(windowed3, config)

    def test_deterministic_training(self, windowed3, splidt_config):
        a = train_partitioned_tree(windowed3, splidt_config, random_state=9)
        b = train_partitioned_tree(windowed3, splidt_config, random_state=9)
        assert a.n_subtrees == b.n_subtrees
        assert a.features_used() == b.features_used()


class TestInference:
    def test_predictions_are_valid_labels(self, splidt_model, windowed3):
        predictions = splidt_model.predict_windows(windowed3.window_features)
        assert predictions.shape == (windowed3.n_flows,)
        assert predictions.min() >= 0
        assert predictions.max() < windowed3.n_classes

    def test_training_accuracy_beats_chance(self, splidt_model, windowed3):
        indices = windowed3.train_indices
        predictions = splidt_model.predict_windows(windowed3.window_features[:, indices, :])
        accuracy = float(np.mean(predictions == windowed3.labels[indices]))
        assert accuracy > 1.5 / windowed3.n_classes

    def test_wrong_shape_rejected(self, splidt_model):
        with pytest.raises(ValueError):
            splidt_model.predict_windows(np.zeros((2, 5)))

    def test_too_few_windows_rejected(self, splidt_model):
        with pytest.raises(ValueError):
            splidt_model.predict_windows(np.zeros((1, 5, N_FEATURES)))


class TestStructureStatistics:
    def test_feature_density_fields(self, splidt_model):
        density = splidt_model.feature_density()
        assert set(density) == {"partition_mean", "partition_std", "subtree_mean", "subtree_std"}
        assert 0 <= density["subtree_mean"] <= 100
        assert density["subtree_mean"] <= density["partition_mean"] + 1e-9

    def test_subtree_density_is_sparse(self, splidt_model):
        # The paper's Table 1: individual subtrees use ~10% of the catalogue.
        density = splidt_model.feature_density()
        assert density["subtree_mean"] < 35.0

    def test_max_features_per_subtree_bounded_by_k(self, splidt_model, splidt_config):
        widest = max(len(s.features_used()) for s in splidt_model.subtrees.values())
        assert widest <= splidt_config.features_per_subtree

    def test_features_per_partition_union(self, splidt_model):
        per_partition = splidt_model.features_per_partition()
        union = set().union(*per_partition.values()) if per_partition else set()
        assert union == splidt_model.features_used()

    def test_total_depth_bounded_by_config(self, splidt_model, splidt_config):
        assert splidt_model.total_depth <= splidt_config.depth

    def test_deeper_config_uses_more_features(self, windowed3):
        shallow = train_partitioned_tree(
            windowed3, SpliDTConfig(depth=2, features_per_subtree=2, partition_sizes=(2,))
        )
        deep = train_partitioned_tree(
            windowed3, SpliDTConfig(depth=6, features_per_subtree=4, partition_sizes=(2, 2, 2))
        )
        assert len(deep.features_used()) >= len(shallow.features_used())
