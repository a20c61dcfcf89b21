"""Array-backed binary tree structure shared by the CART estimators.

A :class:`Tree` stores nodes in parallel lists so that prediction can be
vectorised and so that downstream consumers (range marking, rule generation)
can walk the structure cheaply without touching estimator internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Sentinel used for the children/feature fields of leaf nodes.
LEAF = -1


@dataclass
class TreeNode:
    """A single decision node or leaf.

    Attributes:
        node_id: Index of the node inside its :class:`Tree`.
        feature: Index of the feature tested at this node, or ``LEAF``.
        threshold: Split threshold; samples with ``x[feature] <= threshold`` go
            left.  Undefined (0.0) for leaves.
        left: Node id of the left child, or ``LEAF``.
        right: Node id of the right child, or ``LEAF``.
        depth: Depth of the node (root is 0).
        n_samples: Number of training samples that reached the node.
        value: Class-count vector (classification) or mean target
            (regression) observed at the node.
        impurity: Training impurity at the node.
    """

    node_id: int
    feature: int
    threshold: float
    left: int
    right: int
    depth: int
    n_samples: int
    value: np.ndarray
    impurity: float

    @property
    def is_leaf(self) -> bool:
        """Whether this node has no children."""
        return self.left == LEAF and self.right == LEAF


@dataclass
class Tree:
    """A grown CART tree.

    The tree is append-only: nodes are added during growth via
    :meth:`add_node` and then never mutated, except to fix up children ids.
    """

    n_features: int
    n_outputs: int
    nodes: list[TreeNode] = field(default_factory=list)
    #: ``(feature, threshold, left, right, internal, value)`` columns of
    #: :attr:`nodes` for :meth:`apply` and :meth:`predict_value`; built on
    #: first use of the finished tree and dropped whenever the structure grows.
    _columns: tuple[np.ndarray, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def add_node(
        self,
        *,
        feature: int,
        threshold: float,
        depth: int,
        n_samples: int,
        value: np.ndarray,
        impurity: float,
    ) -> int:
        """Append a node and return its id.  Children start as ``LEAF``."""
        node = TreeNode(
            node_id=len(self.nodes),
            feature=feature,
            threshold=threshold,
            left=LEAF,
            right=LEAF,
            depth=depth,
            n_samples=n_samples,
            value=np.asarray(value, dtype=float),
            impurity=float(impurity),
        )
        self.nodes.append(node)
        self._columns = None
        return node.node_id

    def set_children(self, node_id: int, left: int, right: int) -> None:
        """Attach children to an existing node."""
        self.nodes[node_id].left = left
        self.nodes[node_id].right = right
        self._columns = None

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def max_depth(self) -> int:
        """Depth of the deepest node (0 for a stump with only a root)."""
        if not self.nodes:
            return 0
        return max(node.depth for node in self.nodes)

    def features_used(self) -> set[int]:
        """Distinct feature indices tested anywhere in the tree."""
        return {node.feature for node in self.nodes if not node.is_leaf}

    def thresholds_for_feature(self, feature: int) -> list[float]:
        """Sorted distinct thresholds used for ``feature`` across the tree."""
        values = {
            node.threshold
            for node in self.nodes
            if not node.is_leaf and node.feature == feature
        }
        return sorted(values)

    def leaves(self) -> list[TreeNode]:
        """All leaf nodes in node-id order."""
        return [node for node in self.nodes if node.is_leaf]

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def apply(self, X: np.ndarray) -> np.ndarray:
        """Return the leaf node id reached by every row of ``X``.

        All rows descend together, one tree level per step; the result is
        that of :meth:`_apply_row` on each row.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-D array")
        out = np.zeros(X.shape[0], dtype=np.intp)
        if out.size == 0:
            return out
        feature, threshold, left, right, internal, _ = self._node_columns()
        rows = np.flatnonzero(internal[out])
        while rows.size:
            at = out[rows]
            goes_left = X[rows, feature[at]] <= threshold[at]
            out[rows] = np.where(goes_left, left[at], right[at])
            rows = rows[internal[out[rows]]]
        return out

    def _node_columns(self) -> tuple[np.ndarray, ...]:
        if self._columns is None:
            self._columns = (
                np.array([node.feature for node in self.nodes], dtype=np.intp),
                np.array([node.threshold for node in self.nodes], dtype=float),
                np.array([node.left for node in self.nodes], dtype=np.intp),
                np.array([node.right for node in self.nodes], dtype=np.intp),
                np.array([not node.is_leaf for node in self.nodes], dtype=bool),
                np.stack([node.value for node in self.nodes]),
            )
        return self._columns

    def _apply_row(self, row: np.ndarray) -> int:
        node = self.nodes[0]
        while not node.is_leaf:
            if row[node.feature] <= node.threshold:
                node = self.nodes[node.left]
            else:
                node = self.nodes[node.right]
        return node.node_id

    def decision_path(self, row: np.ndarray) -> list[int]:
        """Node ids visited from root to leaf for a single sample."""
        path = []
        node = self.nodes[0]
        while True:
            path.append(node.node_id)
            if node.is_leaf:
                return path
            if row[node.feature] <= node.threshold:
                node = self.nodes[node.left]
            else:
                node = self.nodes[node.right]

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        """Return the stored node ``value`` for the leaf each row reaches."""
        return self._node_columns()[-1][self.apply(X)]

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------
    def compute_feature_importances(self) -> np.ndarray:
        """Impurity-decrease feature importances, normalised to sum to 1."""
        importances = np.zeros(self.n_features, dtype=float)
        if not self.nodes:
            return importances
        total = self.nodes[0].n_samples
        if total == 0:
            return importances
        for node in self.nodes:
            if node.is_leaf:
                continue
            left = self.nodes[node.left]
            right = self.nodes[node.right]
            decrease = (
                node.n_samples * node.impurity
                - left.n_samples * left.impurity
                - right.n_samples * right.impurity
            )
            importances[node.feature] += max(decrease, 0.0) / total
        norm = importances.sum()
        if norm > 0:
            importances /= norm
        return importances
