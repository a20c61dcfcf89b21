"""Surrogate model for Bayesian optimisation.

:class:`RandomForestSurrogate` is a bagged regression forest whose
across-tree variance provides the predictive uncertainty — HyperMapper's
choice for the mixed integer spaces the SpliDT design search uses.
"""

from __future__ import annotations

import numpy as np

from repro.ml.forest import RandomForestRegressor


class RandomForestSurrogate:
    """Random-forest surrogate (HyperMapper's default for mixed spaces)."""

    def __init__(self, n_estimators: int = 30, max_depth: int | None = 8, random_state: int = 0):
        self.forest = RandomForestRegressor(
            n_estimators=n_estimators,
            max_depth=max_depth,
            min_samples_leaf=1,
            max_features="sqrt",
            random_state=random_state,
        )
        self._fitted = False

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestSurrogate":
        """Fit the forest on normalised inputs and objective values."""
        self.forest.fit(np.asarray(X, dtype=float), np.asarray(y, dtype=float))
        self._fitted = True
        return self

    def predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predictive mean and across-tree standard deviation at ``X``."""
        if not self._fitted:
            raise RuntimeError("surrogate is not fitted")
        mean, std = self.forest.predict_with_std(np.asarray(X, dtype=float))
        return mean, np.maximum(std, 1e-9)
