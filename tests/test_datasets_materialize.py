"""Unit tests for dataset materialisation and the dataset store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.range_marking import FeatureQuantizer, stacked_training_matrix
from repro.datasets.materialize import VALIDATION_FRACTION, DatasetStore, materialize
from repro.datasets.registry import load_dataset
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
    labels = dataset.packet_arrays().labels
    train, test, _, _ = train_test_split(
        np.arange(dataset.n_flows).reshape(-1, 1),
        labels,
        test_size=0.3,
        random_state=random_state,
    )
    fit, validation, _, _ = train_test_split(
        train, labels[train[:, 0]], test_size=VALIDATION_FRACTION, random_state=random_state,
    )
    return {
        "window_features": window_features,
        "flow_features": flow_features,
        "packet_features": packet_features,
        "labels": labels,
        "train_indices": train[:, 0].astype(np.intp),
        "test_indices": test[:, 0].astype(np.intp),
        "fit_indices": fit[:, 0].astype(np.intp),
        "validation_indices": validation[:, 0].astype(np.intp),
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
            windowed3.split_labels("holdout")

    def test_fit_and_validation_partition_train(self, windowed3):
        fit, validation = windowed3.fit_indices, windowed3.validation_indices
        assert np.intersect1d(fit, validation).size == 0
        union = np.sort(np.concatenate([fit, validation]))
        assert np.array_equal(union, np.sort(windowed3.train_indices))
        expected = VALIDATION_FRACTION * windowed3.train_indices.size
        assert abs(validation.size - expected) <= windowed3.n_classes
        assert np.array_equal(windowed3.split_labels("fit"), windowed3.labels[fit])
        assert windowed3.partition_matrix(1, "validation").shape[0] == validation.size

    def test_validation_is_stratified_and_seeded(self, small_dataset):
        windowed = materialize(small_dataset, 2, random_state=4)
        train_classes = np.unique(windowed.split_labels("train"))
        assert all(np.sum(windowed.split_labels("train") == c) >= 2 for c in train_classes)
        assert np.array_equal(np.unique(windowed.split_labels("fit")), train_classes)
        assert np.array_equal(np.unique(windowed.split_labels("validation")), train_classes)
        other = materialize(small_dataset, 2, random_state=9)
        assert not np.array_equal(other.validation_indices, windowed.validation_indices)

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
        assert five.fit_indices is two.fit_indices
        assert five.validation_indices is two.validation_indices
        with pytest.raises(ValueError):
            two.flow_features[0, 0] = 1.0
        for indices in (two.fit_indices, two.validation_indices):
            with pytest.raises(ValueError):
                indices[0] = 0
        other_split = materialize(small_dataset, 2, random_state=9)
        assert not np.array_equal(other_split.train_indices, two.train_indices)

    def test_with_precision_bounds_values(self, windowed3):
        view = windowed3.with_precision(8)
        assert view.metadata["bit_width"] == 8
        for matrix, rows, view_rows in _precision_views(windowed3, view):
            assert max(np.unique(column).size for column in matrix.T) <= 256
            # The rules refit the view's quantiser on the view's training rows.
            fitted = FeatureQuantizer(8).fit(rows)
            np.testing.assert_array_equal(FeatureQuantizer(8).fit(view_rows).scales_, fitted.scales_)


def _precision_views(windowed, view):
    """Per view: the view's matrix, the raw training rows, the view's training rows."""
    n_features = windowed.n_features
    return [
        (
            view.window_features.reshape(-1, n_features),
            stacked_training_matrix(windowed),
            stacked_training_matrix(view),
        ),
        (view.flow_features, windowed.flow_matrix(), view.flow_matrix()),
        (view.packet_features, windowed.packet_matrix(), view.packet_matrix()),
    ]


class TestWithPrecision:
    def test_32_bit_is_the_dataset_itself(self, windowed3):
        assert windowed3.with_precision(32) is windowed3

    def test_memoised_per_width(self, windowed3):
        assert windowed3.with_precision(8) is windowed3.with_precision(8)
        assert windowed3.with_precision(16) is not windowed3.with_precision(8)

    def test_values_are_level_stand_ins_bounded_by_the_training_scale(self, windowed3):
        raw = windowed3.window_features.reshape(-1, windowed3.n_features)
        for bit_width in (8, 16):
            quantizer = FeatureQuantizer(bit_width).fit(stacked_training_matrix(windowed3))
            values = windowed3.with_precision(bit_width).window_features.reshape(raw.shape)
            assert np.all(values <= quantizer.scales_)
            assert np.all(values >= -0.25 * quantizer.scales_ / quantizer.max_level)
            np.testing.assert_array_equal(
                quantizer.quantize_matrix(values), quantizer.quantize_matrix(raw)
            )

    def test_monotone_in_input(self, windowed3):
        view = windowed3.with_precision(8)
        pairs = [
            (view.flow_features, windowed3.flow_features),
            (view.window_features[1], windowed3.window_features[1]),
        ]
        for matrix, raw in pairs:
            order = np.argsort(raw, axis=0, kind="stable")
            assert np.all(np.diff(np.take_along_axis(matrix, order, axis=0), axis=0) >= 0)

    def test_invalid_bit_width(self, windowed3):
        for bit_width in (0, 33):
            with pytest.raises(ValueError):
                windowed3.with_precision(bit_width)

    def test_lower_precision_coarser(self, windowed3):
        def distinct(dataset):
            return [np.unique(column).size for column in dataset.flow_features.T]

        q8, q16 = distinct(windowed3.with_precision(8)), distinct(windowed3.with_precision(16))
        assert all(a <= b <= c for a, b, c in zip(q8, q16, distinct(windowed3)))
        assert sum(q8) < sum(q16)


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
    def test_load_dataset_default_size(self):
        dataset = load_dataset("D2", n_flows=30, seed=0)
        assert dataset.name == "D2"
