"""Unit tests for train/test splitting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml import train_test_split


class TestTrainTestSplit:
    def test_sizes_roughly_match_fraction(self):
        X = np.arange(200).reshape(-1, 1)
        y = np.repeat([0, 1], 100)
        X_train, X_test, y_train, y_test = train_test_split(X, y, test_size=0.25, random_state=0)
        assert len(X_test) == pytest.approx(50, abs=2)
        assert len(X_train) + len(X_test) == 200
        assert len(y_train) == len(X_train)
        assert len(y_test) == len(X_test)

    def test_no_overlap_between_splits(self):
        X = np.arange(100).reshape(-1, 1)
        y = np.repeat([0, 1], 50)
        X_train, X_test, _, _ = train_test_split(X, y, test_size=0.3, random_state=1)
        assert set(X_train[:, 0]).isdisjoint(set(X_test[:, 0]))

    def test_stratification_preserves_class_ratio(self):
        y = np.array([0] * 90 + [1] * 10)
        X = np.arange(100).reshape(-1, 1)
        _, _, y_train, y_test = train_test_split(X, y, test_size=0.3, random_state=2)
        assert (y_test == 1).sum() >= 1
        train_ratio = (y_train == 1).mean()
        assert 0.03 < train_ratio < 0.2

    def test_every_class_in_test_split(self):
        y = np.repeat(np.arange(5), 10)
        X = np.arange(50).reshape(-1, 1)
        _, _, _, y_test = train_test_split(X, y, test_size=0.2, random_state=3)
        assert set(np.unique(y_test)) == set(range(5))

    def test_invalid_test_size(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((4, 1)), np.zeros(4), test_size=1.5)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((4, 1)), np.zeros(5))

    def test_deterministic_with_seed(self):
        X = np.arange(60).reshape(-1, 1)
        y = np.repeat([0, 1, 2], 20)
        a = train_test_split(X, y, random_state=7)
        b = train_test_split(X, y, random_state=7)
        np.testing.assert_array_equal(a[1], b[1])

    def test_unstratified_split(self):
        X = np.arange(40).reshape(-1, 1)
        y = np.repeat([0, 1], 20)
        X_train, X_test, _, _ = train_test_split(X, y, test_size=0.5, stratify=False, random_state=0)
        assert len(X_train) + len(X_test) == 40

