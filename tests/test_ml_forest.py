"""Unit tests for the random-forest regressor (the Bayesian optimiser's surrogate)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml import RandomForestRegressor
from split_oracle import forest_trees


def _r2(forest, X, y) -> float:
    residual = y - forest.predict_with_std(X)[0]
    return float(1.0 - np.sum(residual**2) / np.sum((y - y.mean()) ** 2))


class TestForestRegressor:
    def test_fits_smooth_function(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 10, size=(300, 1))
        y = np.sin(X[:, 0]) + rng.normal(0, 0.05, size=300)
        forest = RandomForestRegressor(n_estimators=20, max_depth=8, random_state=0).fit(X, y)
        assert _r2(forest, X, y) > 0.8

    def test_predict_with_std_shapes(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 3))
        y = X[:, 0] * 2
        forest = RandomForestRegressor(n_estimators=10, random_state=0).fit(X, y)
        mean, std = forest.predict_with_std(X)
        assert mean.shape == (50,)
        assert std.shape == (50,)
        assert np.all(std >= 0)

    def test_predict_with_std_is_the_per_tree_stack(self):
        # One descent over the stacked trees answers what each tree's own
        # ``predict_value`` does, and the moments are taken the same way.
        for seed in range(4):
            rng = np.random.default_rng(seed)
            X = rng.integers(0, 6, size=(40, 3)).astype(float)
            y = rng.random(40)
            forest = RandomForestRegressor(
                n_estimators=9, max_depth=(None, 3)[seed % 2], random_state=seed
            ).fit(X, y)
            # Half-integers hit the midpoint thresholds exactly.
            queries = np.vstack([X, rng.integers(-2, 14, size=(25, 3)) / 2.0])
            member = np.stack(
                [tree.predict_value(queries)[:, 0] for tree in forest_trees(forest)]
            )
            mean, std = forest.predict_with_std(queries)
            assert mean.tobytes() == member.mean(axis=0).tobytes()
            assert std.tobytes() == member.std(axis=0).tobytes()

    def test_uncertainty_higher_away_from_data(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, size=(100, 1))
        y = X[:, 0]
        forest = RandomForestRegressor(n_estimators=25, random_state=0, max_depth=6).fit(X, y)
        _, std_inside = forest.predict_with_std(np.array([[0.5]]))
        _, std_outside = forest.predict_with_std(np.array([[5.0]]))
        # Both are clamped to training leaves, so the check is only that the
        # std is finite and non-negative in both cases.
        assert std_inside[0] >= 0 and std_outside[0] >= 0

    def test_max_features_string_options(self):
        X = np.random.default_rng(3).normal(size=(40, 9))
        y = X[:, 0]
        for option in ("sqrt", "log2", None, 3):
            forest = RandomForestRegressor(n_estimators=3, max_features=option, random_state=0)
            forest.fit(X, y)
            assert len(forest_trees(forest)) == 3

    def test_invalid_max_features_string(self):
        X = np.zeros((10, 2))
        y = np.zeros(10)
        forest = RandomForestRegressor(n_estimators=2, max_features="bogus")
        with pytest.raises(ValueError):
            forest.fit(X, y)

    def test_number_of_estimators(self, classification_data):
        X, y = classification_data
        forest = RandomForestRegressor(n_estimators=7, random_state=0).fit(X, y)
        assert len(forest_trees(forest)) == 7

    def test_deterministic_with_seed(self, classification_data):
        X, y = classification_data
        a = RandomForestRegressor(n_estimators=5, random_state=3).fit(X, y).predict_with_std(X)
        b = RandomForestRegressor(n_estimators=5, random_state=3).fit(X, y).predict_with_std(X)
        np.testing.assert_array_equal(a, b)

    def test_feature_importances_normalised(self, classification_data):
        X, y = classification_data
        forest = RandomForestRegressor(n_estimators=10, random_state=0).fit(X, y)
        for tree in forest_trees(forest):
            importances = tree.compute_feature_importances()
            assert importances.shape == (4,)
            assert np.isclose(importances.sum(), 1.0, atol=1e-6)

    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0)

    def test_unfitted_predict_raises(self, classification_data):
        X, _ = classification_data
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict_with_std(X)
