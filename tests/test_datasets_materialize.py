"""Unit tests for dataset materialisation and the dataset store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.materialize import DatasetStore, materialize
from repro.datasets.registry import load_dataset, load_windowed
from repro.features.definitions import N_FEATURES, STATEFUL_INDICES
from repro.features.flowmeter import FlowMeter
from repro.ml.model_selection import train_test_split


def _materialize_per_flow(dataset, n_partitions, random_state):
    """The materialisation written flow by flow on the scalar ``FlowMeter``."""
    meter = FlowMeter()
    window_features = np.zeros((n_partitions, dataset.n_flows, N_FEATURES))
    flow_features = np.zeros((dataset.n_flows, N_FEATURES))
    packet_features = np.zeros((dataset.n_flows, N_FEATURES))
    for i, flow in enumerate(dataset.flows):
        window_features[:, i, :] = meter.extract_windows(flow, n_partitions)
        flow_features[i] = meter.extract_flow(flow)
        if flow.packets:
            packet_features[i] = meter.extract_per_packet(flow.packets[0], flow)
    labels = dataset.labels()
    train, test, _, _ = train_test_split(
        np.arange(dataset.n_flows).reshape(-1, 1),
        labels,
        test_size=0.3,
        stratify=True,
        random_state=random_state,
    )
    return {
        "window_features": window_features,
        "flow_features": flow_features,
        "packet_features": packet_features,
        "labels": labels,
        "train_indices": train[:, 0].astype(np.intp),
        "test_indices": test[:, 0].astype(np.intp),
    }


class TestMaterialize:
    def test_shapes(self, small_dataset):
        windowed = materialize(small_dataset, 4, random_state=0)
        assert windowed.window_features.shape == (4, small_dataset.n_flows, N_FEATURES)
        assert windowed.flow_features.shape == (small_dataset.n_flows, N_FEATURES)
        assert windowed.packet_features.shape == (small_dataset.n_flows, N_FEATURES)
        assert windowed.labels.shape == (small_dataset.n_flows,)

    def test_train_test_split_disjoint_and_complete(self, windowed3):
        train = set(windowed3.train_indices.tolist())
        test = set(windowed3.test_indices.tolist())
        assert train.isdisjoint(test)
        assert len(train | test) == windowed3.n_flows

    def test_packet_features_only_stateless(self, windowed3):
        stateful = list(STATEFUL_INDICES)
        assert np.all(windowed3.packet_features[:, stateful] == 0)

    def test_window_pkt_counts_sum_to_flow(self, small_dataset, windowed3):
        from repro.features.definitions import FEATURES_BY_NAME
        index = FEATURES_BY_NAME["pkt_count"].index
        window_sum = windowed3.window_features[:, :, index].sum(axis=0)
        flow_counts = np.array([flow.n_packets for flow in small_dataset.flows], dtype=float)
        np.testing.assert_allclose(window_sum, flow_counts)

    def test_partition_matrix_matches_split(self, windowed3):
        train = windowed3.partition_matrix(0, "train")
        assert train.shape[0] == windowed3.train_indices.shape[0]
        test = windowed3.partition_matrix(2, "test")
        assert test.shape[0] == windowed3.test_indices.shape[0]

    def test_all_split(self, windowed3):
        assert windowed3.flow_matrix("all").shape[0] == windowed3.n_flows

    def test_invalid_split_name(self, windowed3):
        with pytest.raises(ValueError):
            windowed3.split_labels("validation")

    def test_invalid_partition_count(self, small_dataset):
        with pytest.raises(ValueError):
            materialize(small_dataset, 0)

    @pytest.mark.parametrize("key", ["D1", "D2", "D3", "D4", "D5", "D6", "D7"])
    def test_equals_the_per_flow_loop(self, key):
        dataset = load_dataset(key, n_flows=60, seed=5)
        for n_partitions in (1, 3, 7):
            windowed = materialize(dataset, n_partitions, random_state=5)
            expected = _materialize_per_flow(dataset, n_partitions, random_state=5)
            for name, array in expected.items():
                got = getattr(windowed, name)
                assert got.dtype == array.dtype, (name, n_partitions)
                assert np.array_equal(got, array), (name, n_partitions)

    def test_partition_counts_share_read_only_flow_views(self, small_dataset):
        two = materialize(small_dataset, 2, random_state=4)
        five = materialize(small_dataset, 5, random_state=4)
        assert five.flow_features is two.flow_features
        assert five.train_indices is two.train_indices
        with pytest.raises(ValueError):
            two.flow_features[0, 0] = 1.0
        other_split = materialize(small_dataset, 2, random_state=9)
        assert not np.array_equal(other_split.train_indices, two.train_indices)

    def test_with_precision_bounds_values(self, windowed3):
        quantised = windowed3.with_precision(8)
        assert quantised.flow_features.max() <= 255
        assert quantised.metadata["bit_width"] == 8
        # Original untouched.
        assert windowed3.flow_features.max() > 255


class TestDatasetStore:
    def test_fetch_caches(self, small_dataset):
        store = DatasetStore(small_dataset)
        first = store.fetch(2)
        second = store.fetch(2)
        assert first is second
        assert store.fetch_count == 2
        assert store.miss_count == 1

    def test_fetch_different_partitions(self, small_dataset):
        store = DatasetStore(small_dataset)
        assert store.fetch(2).n_partitions == 2
        assert store.fetch(5).n_partitions == 5
        assert 2 in store and 5 in store and 3 not in store


class TestRegistry:
    def test_load_windowed_convenience(self):
        windowed = load_windowed("D2", n_partitions=2, n_flows=40, seed=0)
        assert windowed.n_partitions == 2
        assert windowed.n_classes == 4

    def test_load_dataset_default_size(self):
        dataset = load_dataset("D2", n_flows=30, seed=0)
        assert dataset.name == "D2"
