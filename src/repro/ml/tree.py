"""CART classification trees with a per-tree distinct-feature budget.

The estimator mirrors the scikit-learn API surface the SpliDT artifact uses
(``fit`` / ``predict`` / ``predict_proba`` / ``feature_importances_``) and adds
one capability the paper requires: ``max_distinct_features`` bounds how many
*different* features a tree may test, which is exactly the per-subtree ``k``
constraint of SpliDT's partitioned trees.  (Regression trees are grown by the
forest, ``ml/forest.py``.)

The budget is enforced greedily during growth: once the tree has already used
``k`` distinct features, deeper nodes may only split on those ``k`` features.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml._tree import LEAF, Tree
from repro.ml.splitter import (
    CLASSIFICATION_CRITERIA,
    best_split,
    class_major,
    node_impurity,
)


@dataclass
class _GrowContext:
    """Per-fit state of one tree's growth, released when ``fit`` returns.

    ``orders[0, j]`` holds every training row stably sorted by
    ``X[:, features[j]]`` — the only sort of the fit — and, for gini,
    ``orders[1, j]`` the same rows stably sorted by class, then by that
    feature.  A node carries its own rows' slice of them, which its
    children split by a stable partition.
    """

    X: np.ndarray
    #: Encoded classes.
    y: np.ndarray
    rng: np.random.Generator
    features: np.ndarray
    orders: np.ndarray
    #: Scratch: per training row, whether it went left at the last split.
    goes_left: np.ndarray
    used_features: set[int] = field(default_factory=set)


class DecisionTreeClassifier:
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
        if criterion not in CLASSIFICATION_CRITERIA:
            raise ValueError(
                f"criterion must be one of {CLASSIFICATION_CRITERIA}, got {criterion!r}"
            )
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
        self.classes_: np.ndarray = np.array([])
        self.n_classes_: int = 0

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        """Fit the tree on ``X`` (floats) and ``y`` (arbitrary class labels)."""
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
        self.classes_, encoded = np.unique(y, return_inverse=True)
        self.n_classes_ = int(self.classes_.size)
        y = encoded.astype(np.intp)
        self.n_features_in_ = X.shape[1]
        self.tree_ = Tree(n_features=self.n_features_in_, n_outputs=self.n_classes_)
        features = self._allowed_feature_pool()
        by_feature = np.argsort(X.T[features], axis=1, kind="stable")
        orders = [by_feature]
        if self.criterion == "gini":
            orders.append(class_major(by_feature, y))
        context = _GrowContext(
            X=X,
            y=y,
            rng=np.random.default_rng(self.random_state),
            features=features,
            orders=np.stack(orders),
            goes_left=np.empty(X.shape[0], dtype=bool),
        )
        all_indices = np.arange(X.shape[0], dtype=np.intp)
        self._grow(context, all_indices, context.orders, features, depth=0)
        return self

    def _allowed_feature_pool(self) -> np.ndarray:
        if self.allowed_features is not None:
            pool = np.asarray(sorted(set(self.allowed_features)), dtype=np.intp)
            if pool.size and (pool.min() < 0 or pool.max() >= self.n_features_in_):
                raise ValueError("allowed_features out of range")
            return pool
        return np.arange(self.n_features_in_, dtype=np.intp)

    def _within_budget(
        self, context: _GrowContext, orders: np.ndarray, features: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``orders``/``features`` narrowed to the used features once ``k`` is spent."""
        used = context.used_features
        budget = self.max_distinct_features
        if budget is None or len(used) < budget or features.size == len(used):
            return orders, features
        kept = np.asarray(sorted(used), dtype=np.intp)
        return orders[:, np.searchsorted(features, kept)], kept

    def _grow(
        self,
        context: _GrowContext,
        indices: np.ndarray,
        orders: np.ndarray,
        features: np.ndarray,
        depth: int,
    ) -> int:
        """Grow the subtree of the node whose rows are ``indices`` (ascending).

        ``orders`` holds the node's slice of the context's orders for each of
        ``features`` (ascending ids): a superset of the features the node may
        split on.  A node at ``max_depth`` never splits and gets ``None``.
        """
        y_node = context.y[indices]
        value = np.bincount(y_node, minlength=self.n_classes_).astype(float)
        impurity = node_impurity(value, self.criterion)
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
        orders, features = self._within_budget(context, orders, features)
        if features.size == 0 or indices.size < 2 * self.min_samples_leaf:
            return node_id

        searched, searched_orders = features, orders
        if self.max_features is not None and self.max_features < features.size:
            searched = context.rng.choice(features, size=self.max_features, replace=False)
            searched_orders = orders[:, np.searchsorted(features, searched)]
        split = best_split(
            context.X,
            context.y,
            indices,
            searched_orders[0],
            searched,
            criterion=self.criterion,
            min_samples_leaf=self.min_samples_leaf,
            n_classes=self.n_classes_,
            impurity=impurity,
            class_orders=searched_orders[1] if self.criterion == "gini" else None,
        )
        if split is None:
            return node_id

        context.used_features.add(split.feature)
        node = self.tree_.nodes[node_id]
        node.feature = split.feature
        node.threshold = split.threshold

        left_orders = right_orders = None
        if self.max_depth is None or depth + 1 < self.max_depth:
            # A stable partition of each carried order is each child's order.
            orders, features = self._within_budget(context, orders, features)
            context.goes_left[indices] = split.left_mask
            left_of = context.goes_left[orders]
            left_orders = orders[left_of].reshape(*orders.shape[:2], -1)
            right_orders = orders[~left_of].reshape(*orders.shape[:2], -1)
        left_id = self._grow(
            context, indices[split.left_mask], left_orders, features, depth + 1
        )
        right_id = self._grow(
            context, indices[~split.left_mask], right_orders, features, depth + 1
        )
        self.tree_.set_children(node_id, left_id, right_id)
        return node_id

    def _should_stop(self, y_node: np.ndarray, depth: int, impurity: float) -> bool:
        if self.max_depth is not None and depth >= self.max_depth:
            return True
        if y_node.size < self.min_samples_split:
            return True
        return impurity <= 1e-12

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

