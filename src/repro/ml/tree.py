"""CART decision-tree estimators with a per-tree distinct-feature budget.

These estimators mirror the scikit-learn API surface the SpliDT artifact uses
(``fit`` / ``predict`` / ``predict_proba`` / ``feature_importances_``) and add
one capability the paper requires: ``max_distinct_features`` bounds how many
*different* features a tree may test, which is exactly the per-subtree ``k``
constraint of SpliDT's partitioned trees.

The budget is enforced greedily during growth: once the tree has already used
``k`` distinct features, deeper nodes may only split on those ``k`` features.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml._tree import LEAF, Tree
from repro.ml.splitter import (
    CLASSIFICATION_CRITERIA,
    find_best_split,
    mse_impurity,
    node_impurity,
)


@dataclass
class _GrowContext:
    """Mutable state shared across the recursive growth of one tree."""

    X: np.ndarray
    y: np.ndarray
    rng: np.random.Generator
    used_features: set[int] = field(default_factory=set)


class _BaseDecisionTree:
    """Shared fit/growth machinery for the classifier and regressor."""

    _is_classifier = True

    def __init__(
        self,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        criterion: str = "gini",
        max_distinct_features: int | None = None,
        max_features: int | None = None,
        allowed_features: list[int] | None = None,
        random_state: int | None = None,
    ) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if max_distinct_features is not None and max_distinct_features < 1:
            raise ValueError("max_distinct_features must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.criterion = criterion
        self.max_distinct_features = max_distinct_features
        self.max_features = max_features
        self.allowed_features = allowed_features
        self.random_state = random_state

        self.tree_: Tree | None = None
        self.n_features_in_: int = 0

    # ------------------------------------------------------------------
    def _validate_fit_args(self, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if y.ndim != 1:
            raise ValueError("y must be 1-D")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have mismatched lengths")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        return X, y

    def _node_value(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _node_impurity(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def _node_stats(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        """Node value and impurity; overridable to share sufficient stats."""
        return self._node_value(y), self._node_impurity(y)

    def _fit_common(self, X: np.ndarray, y: np.ndarray) -> None:
        self.n_features_in_ = X.shape[1]
        rng = np.random.default_rng(self.random_state)
        context = _GrowContext(X=X, y=y, rng=rng)
        self.tree_ = Tree(
            n_features=self.n_features_in_,
            n_outputs=self._n_outputs(),
        )
        # The allowed pool is fixed for the whole fit; resolving it once
        # avoids a sort + range check at every node.
        self._feature_pool = self._allowed_feature_pool()
        all_indices = np.arange(X.shape[0], dtype=np.intp)
        self._grow(context, all_indices, depth=0)

    def _n_outputs(self) -> int:
        raise NotImplementedError

    def _allowed_feature_pool(self) -> np.ndarray:
        if self.allowed_features is not None:
            pool = np.asarray(sorted(set(self.allowed_features)), dtype=np.intp)
            if pool.size and (pool.min() < 0 or pool.max() >= self.n_features_in_):
                raise ValueError("allowed_features out of range")
            return pool
        return np.arange(self.n_features_in_, dtype=np.intp)

    def _grow(self, context: _GrowContext, indices: np.ndarray, depth: int) -> int:
        y_node = context.y[indices]
        value, impurity = self._node_stats(y_node)
        node_id = self.tree_.add_node(
            feature=LEAF,
            threshold=0.0,
            depth=depth,
            n_samples=int(indices.size),
            value=value,
            impurity=impurity,
        )

        if self._should_stop(y_node, depth, impurity):
            return node_id

        pool = self._feature_pool
        budget = self.max_distinct_features
        if budget is not None and len(context.used_features) >= budget:
            pool = np.asarray(sorted(context.used_features), dtype=np.intp)
        if pool.size == 0:
            return node_id

        split = find_best_split(
            context.X,
            y_node,
            allowed_features=pool,
            criterion=self._split_criterion(),
            min_samples_leaf=self.min_samples_leaf,
            n_classes=self._n_classes_for_split(),
            rng=context.rng,
            max_features=self.max_features,
            indices=indices,
            impurity=impurity,
        )
        if split is None:
            return node_id

        context.used_features.add(split.feature)
        node = self.tree_.nodes[node_id]
        node.feature = split.feature
        node.threshold = split.threshold

        left_indices = indices[split.left_mask]
        right_indices = indices[~split.left_mask]
        left_id = self._grow(context, left_indices, depth + 1)
        right_id = self._grow(context, right_indices, depth + 1)
        self.tree_.set_children(node_id, left_id, right_id)
        return node_id

    def _should_stop(self, y_node: np.ndarray, depth: int, impurity: float) -> bool:
        if self.max_depth is not None and depth >= self.max_depth:
            return True
        if y_node.size < self.min_samples_split:
            return True
        return impurity <= 1e-12

    def _split_criterion(self) -> str:
        raise NotImplementedError

    def _n_classes_for_split(self) -> int | None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _check_fitted(self) -> Tree:
        if self.tree_ is None:
            raise RuntimeError("estimator is not fitted; call fit() first")
        return self.tree_

    @property
    def feature_importances_(self) -> np.ndarray:
        """Normalised impurity-decrease importances."""
        return self._check_fitted().compute_feature_importances()

    def features_used(self) -> set[int]:
        """Distinct features tested anywhere in the fitted tree."""
        return self._check_fitted().features_used()

    def get_depth(self) -> int:
        """Depth of the fitted tree."""
        return self._check_fitted().max_depth

    def get_n_leaves(self) -> int:
        """Number of leaves of the fitted tree."""
        return self._check_fitted().n_leaves

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id reached by every row of ``X``."""
        return self._check_fitted().apply(np.asarray(X, dtype=float))


class DecisionTreeClassifier(_BaseDecisionTree):
    """CART classifier (gini or entropy) with an optional feature budget.

    Args:
        max_depth: Maximum tree depth; ``None`` grows until purity.
        min_samples_split: Minimum samples required to attempt a split.
        min_samples_leaf: Minimum samples required in each child.
        criterion: ``"gini"`` (default) or ``"entropy"``.
        max_distinct_features: Upper bound on the number of *different*
            features the tree may test (the SpliDT per-subtree ``k``).
        max_features: Number of features to sample per split (random-forest
            style); ``None`` searches all allowed features.
        allowed_features: Restrict splits to these feature indices.
        random_state: Seed for reproducible feature sub-sampling.
    """

    _is_classifier = True

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("criterion", "gini")
        super().__init__(**kwargs)
        if self.criterion not in CLASSIFICATION_CRITERIA:
            raise ValueError(
                f"criterion must be one of {CLASSIFICATION_CRITERIA}, got {self.criterion!r}"
            )
        self.classes_: np.ndarray = np.array([])
        self.n_classes_: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        """Fit the tree on ``X`` (floats) and ``y`` (arbitrary class labels)."""
        X, y = self._validate_fit_args(X, y)
        self.classes_, encoded = np.unique(y, return_inverse=True)
        self.n_classes_ = int(self.classes_.size)
        self._encoded_y = encoded.astype(np.intp)
        self._fit_common(X, self._encoded_y)
        return self

    def _n_outputs(self) -> int:
        return self.n_classes_

    def _node_value(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(y, minlength=self.n_classes_).astype(float)

    def _node_impurity(self, y: np.ndarray) -> float:
        counts = np.bincount(y, minlength=self.n_classes_).astype(float)
        return node_impurity(counts, self.criterion)

    def _node_stats(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        counts = np.bincount(y, minlength=self.n_classes_).astype(float)
        return counts, node_impurity(counts, self.criterion)

    def _split_criterion(self) -> str:
        return self.criterion

    def _n_classes_for_split(self) -> int | None:
        return self.n_classes_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability estimates from leaf class frequencies."""
        tree = self._check_fitted()
        counts = tree.predict_value(np.asarray(X, dtype=float))
        totals = counts.sum(axis=1, keepdims=True)
        totals[totals == 0] = 1.0
        return counts / totals

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted class labels."""
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy on ``(X, y)``."""
        return float(np.mean(self.predict(X) == np.asarray(y)))


class DecisionTreeRegressor(_BaseDecisionTree):
    """CART regressor (MSE criterion), used mainly as a BO surrogate piece."""

    _is_classifier = False

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("criterion", "mse")
        super().__init__(**kwargs)
        if self.criterion != "mse":
            raise ValueError("DecisionTreeRegressor only supports criterion='mse'")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Fit the tree on ``X`` and continuous targets ``y``."""
        X, y = self._validate_fit_args(X, y)
        self._fit_common(X, y.astype(float))
        return self

    def _n_outputs(self) -> int:
        return 1

    def _node_value(self, y: np.ndarray) -> np.ndarray:
        return np.array([float(np.mean(y))]) if y.size else np.array([0.0])

    def _node_impurity(self, y: np.ndarray) -> float:
        return mse_impurity(y)

    def _split_criterion(self) -> str:
        return "mse"

    def _n_classes_for_split(self) -> int | None:
        return None

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted targets (leaf means)."""
        tree = self._check_fitted()
        return tree.predict_value(np.asarray(X, dtype=float))[:, 0]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Coefficient of determination R^2."""
        y = np.asarray(y, dtype=float)
        predictions = self.predict(X)
        denom = np.sum((y - y.mean()) ** 2)
        if denom == 0:
            return 0.0
        return float(1.0 - np.sum((y - predictions) ** 2) / denom)
