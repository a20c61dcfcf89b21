"""Bagged regression trees: the Bayesian optimiser's surrogate.

HyperMapper uses random-forest surrogates for mixed parameter spaces.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import DecisionTreeRegressor


class RandomForestRegressor:
    """Bagging ensemble of :class:`DecisionTreeRegressor`.

    ``predict_with_std`` exposes the across-tree standard deviation, which the
    Bayesian optimiser uses as its uncertainty estimate.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        *,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        bootstrap: bool = True,
        random_state: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.estimators_: list = []
        self.n_features_in_: int = 0

    def _resolve_max_features(self, n_features: int) -> int | None:
        if self.max_features is None:
            return None
        if isinstance(self.max_features, str):
            if self.max_features == "sqrt":
                return max(1, int(np.sqrt(n_features)))
            if self.max_features == "log2":
                return max(1, int(np.log2(n_features))) if n_features > 1 else 1
            raise ValueError(f"unknown max_features: {self.max_features!r}")
        return int(self.max_features)

    def _bootstrap_indices(self, n_samples: int, rng: np.random.Generator) -> np.ndarray:
        if self.bootstrap:
            return rng.integers(0, n_samples, size=n_samples)
        return np.arange(n_samples)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        """Fit the ensemble."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self.n_features_in_ = X.shape[1]
        rng = np.random.default_rng(self.random_state)
        max_features = self._resolve_max_features(X.shape[1])
        self.estimators_ = []
        for _ in range(self.n_estimators):
            seed = int(rng.integers(0, 2**31 - 1))
            indices = self._bootstrap_indices(X.shape[0], rng)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                random_state=seed,
            )
            tree.fit(X[indices], y[indices])
            self.estimators_.append(tree)
        return self

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean impurity-decrease importances across the ensemble."""
        if not self.estimators_:
            raise RuntimeError("forest is not fitted")
        return np.mean([tree.feature_importances_ for tree in self.estimators_], axis=0)

    def _member_predictions(self, X: np.ndarray) -> np.ndarray:
        if not self.estimators_:
            raise RuntimeError("forest is not fitted")
        X = np.asarray(X, dtype=float)
        return np.stack([tree.predict(X) for tree in self.estimators_])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean prediction across trees."""
        return self._member_predictions(X).mean(axis=0)

    def predict_with_std(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean and standard deviation of predictions across trees."""
        member = self._member_predictions(X)
        return member.mean(axis=0), member.std(axis=0)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Coefficient of determination R^2."""
        y = np.asarray(y, dtype=float)
        predictions = self.predict(X)
        denom = np.sum((y - y.mean()) ** 2)
        if denom == 0:
            return 0.0
        return float(1.0 - np.sum((y - predictions) ** 2) / denom)
