"""Unit tests for model configurations."""

from __future__ import annotations

import pytest

from repro.core.config import SpliDTConfig, TopKConfig


class TestSpliDTConfig:
    def test_valid_configuration(self):
        config = SpliDTConfig(depth=6, features_per_subtree=4, partition_sizes=(2, 2, 2))
        assert config.n_partitions == 3

    def test_partition_sizes_must_sum_to_depth(self):
        with pytest.raises(ValueError):
            SpliDTConfig(depth=6, features_per_subtree=4, partition_sizes=(2, 2))

    def test_positive_partition_sizes(self):
        with pytest.raises(ValueError):
            SpliDTConfig(depth=3, features_per_subtree=2, partition_sizes=(3, 0))

    def test_positive_depth_and_k(self):
        with pytest.raises(ValueError):
            SpliDTConfig(depth=0, features_per_subtree=2, partition_sizes=())
        with pytest.raises(ValueError):
            SpliDTConfig(depth=2, features_per_subtree=0, partition_sizes=(2,))

    def test_bit_width_validation(self):
        with pytest.raises(ValueError):
            SpliDTConfig(depth=2, features_per_subtree=1, partition_sizes=(2,), bit_width=12)
        for width in (8, 16, 32):
            SpliDTConfig(depth=2, features_per_subtree=1, partition_sizes=(2,), bit_width=width)

    def test_uniform_builder_even(self):
        config = SpliDTConfig.uniform(depth=9, n_partitions=3, features_per_subtree=4)
        assert config.partition_sizes == (3, 3, 3)

    def test_uniform_builder_remainder(self):
        config = SpliDTConfig.uniform(depth=10, n_partitions=3, features_per_subtree=4)
        assert sum(config.partition_sizes) == 10
        assert max(config.partition_sizes) - min(config.partition_sizes) <= 1

    def test_uniform_builder_single_partition(self):
        config = SpliDTConfig.uniform(depth=7, n_partitions=1, features_per_subtree=2)
        assert config.partition_sizes == (7,)

    def test_uniform_builder_invalid(self):
        with pytest.raises(ValueError):
            SpliDTConfig.uniform(depth=2, n_partitions=3, features_per_subtree=1)

    def test_frozen(self):
        config = SpliDTConfig(depth=2, features_per_subtree=1, partition_sizes=(2,))
        with pytest.raises(Exception):
            config.depth = 5


class TestTopKConfig:
    def test_valid(self):
        config = TopKConfig(depth=10, top_k=4)
        assert config.use_stateful

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            TopKConfig(depth=0, top_k=2)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            TopKConfig(depth=5, top_k=0)

    def test_invalid_bit_width(self):
        with pytest.raises(ValueError):
            TopKConfig(depth=5, top_k=2, bit_width=9)
