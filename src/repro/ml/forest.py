"""Bagged tree ensembles.

Random forests serve two roles in this repository: (1) a stronger reference
model in the examples, and (2) the surrogate model of the Bayesian
optimiser (HyperMapper uses random-forest surrogates for mixed parameter
spaces).
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor


class _BaseForest:
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

    def _make_tree(self, max_features: int | None, seed: int):
        raise NotImplementedError

    def _fit_ensemble(self, X: np.ndarray, y: np.ndarray) -> None:
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        self.n_features_in_ = X.shape[1]
        rng = np.random.default_rng(self.random_state)
        max_features = self._resolve_max_features(X.shape[1])
        self.estimators_ = []
        for _ in range(self.n_estimators):
            seed = int(rng.integers(0, 2**31 - 1))
            indices = self._bootstrap_indices(X.shape[0], rng)
            tree = self._make_tree(max_features, seed)
            tree.fit(X[indices], y[indices])
            self.estimators_.append(tree)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean impurity-decrease importances across the ensemble."""
        if not self.estimators_:
            raise RuntimeError("forest is not fitted")
        return np.mean([tree.feature_importances_ for tree in self.estimators_], axis=0)


class RandomForestClassifier(_BaseForest):
    """Bagging ensemble of :class:`DecisionTreeClassifier`."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        """Fit the ensemble."""
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        self._fit_ensemble(X, y)
        return self

    def _make_tree(self, max_features: int | None, seed: int) -> DecisionTreeClassifier:
        return DecisionTreeClassifier(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=max_features,
            random_state=seed,
        )

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Average of the member trees' class probabilities."""
        if not self.estimators_:
            raise RuntimeError("forest is not fitted")
        X = np.asarray(X, dtype=float)
        aggregate = np.zeros((X.shape[0], self.classes_.size))
        for tree in self.estimators_:
            probabilities = tree.predict_proba(X)
            # Align the tree's classes with the forest's class order.
            for tree_col, cls in enumerate(tree.classes_):
                forest_col = int(np.searchsorted(self.classes_, cls))
                aggregate[:, forest_col] += probabilities[:, tree_col]
        aggregate /= len(self.estimators_)
        return aggregate

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority-vote class predictions."""
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy."""
        return float(np.mean(self.predict(X) == np.asarray(y)))


class RandomForestRegressor(_BaseForest):
    """Bagging ensemble of :class:`DecisionTreeRegressor`.

    ``predict_with_std`` exposes the across-tree standard deviation, which the
    Bayesian optimiser uses as its uncertainty estimate.
    """

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        """Fit the ensemble."""
        self._fit_ensemble(X, np.asarray(y, dtype=float))
        return self

    def _make_tree(self, max_features: int | None, seed: int) -> DecisionTreeRegressor:
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=max_features,
            random_state=seed,
        )

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
