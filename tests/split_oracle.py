"""The reference split search and tree grower: the oracle of ``ml.splitter``.

``best_split_over`` is the per-feature scan the production splitter replaced:
for each candidate feature in pool order it sorts the node's column, scores
every cut between distinct values with float class counts (or target sums),
and keeps the first feature to lead by more than ``1e-12``.
``grow_reference`` grows a whole tree with it the way the estimators did
before they carried per-fit sorted orders: every node gathers its own rows,
draws its ``max_features`` subset, and sorts again.  ``train_reference``
trains a partitioned tree the way Algorithm 1 reads: depth first, one
subtree at a time, each grown by ``grow_reference``.

The production step kernels — ``splitter.best_splits`` (gini) and the
forest's (mse, ``ml/forest.py``) — must return what ``best_split_over``
returns, bit for bit; every tree a classifier or a forest grows must be the
tree ``grow_reference`` grows on its rows, node for node; and every
partitioned tree ``core.train_partitioned_tree`` trains level by level must
be ``train_reference``'s, field for field (``tests/test_ml_splitter.py``).

``find_best_split`` runs the classifier's step kernel on one node on its
own (it sorts the node's columns first); no tree grows through it.  The
scalar gini impurity here is what ``splitter.node_impurities`` must return
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import MIN_SAMPLES_LEAF
from repro.core.partitioned_tree import (
    OUTCOME_EXIT,
    OUTCOME_NEXT,
    LeafOutcome,
    PartitionedDecisionTree,
    Subtree,
)
from repro.ml._tree import LEAF, Tree, TreeNode
from repro.ml.splitter import _batch_impurity, best_splits, class_major
from repro.ml.tree import DecisionTreeClassifier


@dataclass(frozen=True)
class Split:
    """Result of a best-split search on one node.

    Attributes:
        feature: Feature index chosen for the split.
        threshold: Threshold value; left branch takes ``x <= threshold``.
        improvement: Weighted impurity decrease achieved by the split.
        left_mask: Boolean mask of the node's samples going left.
    """

    feature: int
    threshold: float
    improvement: float
    left_mask: np.ndarray


def gini_impurity(counts: np.ndarray) -> float:
    """Gini impurity of a class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    proportions = counts / total
    return float(1.0 - np.sum(proportions**2))


def _one_hot_labels(y: np.ndarray, n_classes: int) -> np.ndarray:
    """One-hot float matrix of an integer label vector."""
    one_hot = np.zeros((y.shape[0], n_classes), dtype=float)
    one_hot[np.arange(y.shape[0]), y] = 1.0
    return one_hot


def _split_scores_from_one_hot(sorted_one_hot: np.ndarray) -> np.ndarray:
    """Gini-sum for every prefix cut of a feature-sorted one-hot matrix."""
    left_counts = np.cumsum(sorted_one_hot, axis=0)[:-1]
    total_counts = left_counts[-1] + sorted_one_hot[-1]
    right_counts = total_counts - left_counts

    left_totals = left_counts.sum(axis=1)
    right_totals = right_counts.sum(axis=1)

    left_impurity = _batch_impurity(left_counts)
    right_impurity = _batch_impurity(right_counts)

    return left_totals * left_impurity + right_totals * right_impurity


def _regression_split_scores(sorted_y: np.ndarray) -> np.ndarray:
    """Weighted variance for every prefix cut of a sorted target vector."""
    n = sorted_y.shape[0]
    cumsum = np.cumsum(sorted_y)[:-1]
    cumsum_sq = np.cumsum(sorted_y**2)[:-1]
    left_n = np.arange(1, n)
    right_n = n - left_n
    total = sorted_y.sum()
    total_sq = np.sum(sorted_y**2)

    left_var = cumsum_sq - cumsum**2 / left_n
    right_sum = total - cumsum
    right_var = (total_sq - cumsum_sq) - right_sum**2 / right_n
    return left_var + right_var


def best_split_over(
    X: np.ndarray,
    y: np.ndarray,
    features: np.ndarray,
    *,
    criterion: str,
    min_samples_leaf: int,
    n_classes: int | None,
    indices: np.ndarray | None = None,
    impurity: float | None = None,
) -> Split | None:
    """The reference per-feature scan: best split among ``features``, in order.

    ``criterion`` is ``"gini"`` (a classifier's labels) or ``"mse"`` (a
    regression tree's targets).  ``X`` is the node's matrix, or with
    ``indices`` the full matrix the node's rows are gathered from; ``y``
    holds the node's labels or targets.
    """
    n_samples = y.shape[0] if indices is not None else X.shape[0]
    is_classification = criterion == "gini"
    one_hot = _one_hot_labels(y, n_classes) if is_classification else None
    if impurity is None and is_classification:
        impurity = gini_impurity(np.bincount(y, minlength=n_classes).astype(float))
    elif impurity is None:
        impurity = float(np.var(y))
    parent_score = n_samples * impurity

    # A cut at position i separates sorted samples [:i+1] from [i+1:]; both
    # sides must satisfy min_samples_leaf regardless of the feature values.
    positions = np.arange(1, n_samples)
    base_valid = (positions >= min_samples_leaf) & ((n_samples - positions) >= min_samples_leaf)
    if not np.any(base_valid):
        return None

    best: Split | None = None
    best_score = np.inf

    for feature in features:
        column = X[indices, feature] if indices is not None else X[:, feature]
        order = np.argsort(column, kind="stable")
        sorted_x = column[order]

        if sorted_x[0] == sorted_x[-1]:
            continue  # constant feature at this node

        if is_classification:
            scores = _split_scores_from_one_hot(one_hot[order])
        else:
            scores = _regression_split_scores(y[order])

        # Only cuts between distinct feature values are valid thresholds.
        valid = (sorted_x[:-1] != sorted_x[1:]) & base_valid
        if not np.any(valid):
            continue

        masked_scores = np.where(valid, scores, np.inf)
        idx = int(np.argmin(masked_scores))
        score = float(masked_scores[idx])
        if score < best_score - 1e-12:
            threshold = float((sorted_x[idx] + sorted_x[idx + 1]) / 2.0)
            # Guard against degenerate midpoints caused by float rounding.
            if threshold >= sorted_x[idx + 1]:
                threshold = float(sorted_x[idx])
            left_mask = column <= threshold
            improvement = (parent_score - score) / max(n_samples, 1)
            best = Split(
                feature=int(feature),
                threshold=threshold,
                improvement=float(improvement),
                left_mask=left_mask,
            )
            best_score = score

    if best is not None and best.improvement <= 1e-12:
        return None
    return best


def forest_trees(forest) -> list[Tree]:
    """A fitted ``RandomForestRegressor``'s trees as :class:`Tree` objects, node ids in preorder.

    The forest keeps its nodes as columns, in growth order (``forest._nodes``);
    this is the view the tree-by-tree comparisons read.
    """
    nodes = forest._nodes
    tree_of = nodes.tree.tolist()
    # A node's id in its own tree is its rank among that tree's nodes;
    # the trailing ``LEAF`` makes ``local[LEAF]`` a leaf's child.
    local, counts = [], [0] * forest.n_estimators
    for tree in tree_of:
        local.append(counts[tree])
        counts[tree] += 1
    local.append(LEAF)
    trees = [Tree(n_features=forest.n_features_in_, n_outputs=1) for _ in counts]
    columns = zip(
        tree_of,
        nodes.feature.tolist(),
        nodes.threshold.tolist(),
        nodes.children.tolist(),
        nodes.depth.tolist(),
        nodes.n_samples.tolist(),
        nodes.value,
        nodes.impurity.tolist(),
    )
    for node_id, (tree, feature, threshold, (left, right), depth, size, value, impurity) in zip(
        local, columns
    ):
        trees[tree].nodes.append(
            TreeNode(
                node_id, feature, threshold, local[left], local[right], depth, size,
                value[None], impurity,
            )
        )
    return trees


def grow_reference(estimator, X: np.ndarray, y: np.ndarray) -> Tree:
    """The tree ``estimator``'s parameters grow on ``(X, y)``, node by node.

    ``estimator`` is a :class:`DecisionTreeClassifier` (gini), or anything
    else with its parameters as attributes for a regression tree (mse).
    Classifier labels are encoded as the estimator encodes them; node values
    and impurities come from ``np.bincount`` / ``np.mean`` / ``np.var``.
    """
    X = np.asarray(X, dtype=float)
    classify = isinstance(estimator, DecisionTreeClassifier)
    criterion = "gini" if classify else "mse"
    if classify:
        classes, y = np.unique(y, return_inverse=True)
        n_classes = int(classes.size)
        y = y.astype(np.intp)
    else:
        n_classes = None
        y = np.asarray(y, dtype=float)
    rng = np.random.default_rng(estimator.random_state)
    pool = np.arange(X.shape[1], dtype=np.intp)
    if estimator.allowed_features is not None:
        pool = np.asarray(sorted(set(estimator.allowed_features)), dtype=np.intp)
    tree = Tree(n_features=X.shape[1], n_outputs=n_classes if classify else 1)
    used: set[int] = set()

    def grow(indices: np.ndarray, depth: int) -> int:
        y_node = y[indices]
        if classify:
            value = np.bincount(y_node, minlength=n_classes).astype(float)
            impurity = gini_impurity(value)
        else:
            value = np.array([float(np.mean(y_node))])
            impurity = float(np.var(y_node))
        node_id = tree.add_node(
            feature=LEAF, threshold=0.0, depth=depth, n_samples=int(indices.size),
            value=value, impurity=impurity,
        )
        if (estimator.max_depth is not None and depth >= estimator.max_depth) or impurity <= 1e-12:
            return node_id
        features = pool
        budget = estimator.max_distinct_features
        if budget is not None and len(used) >= budget:
            features = np.asarray(sorted(used), dtype=np.intp)
        if features.size == 0 or indices.size < 2 * estimator.min_samples_leaf:
            return node_id
        max_features = estimator.max_features
        if max_features is not None and max_features < features.size:
            features = rng.choice(features, size=max_features, replace=False)
        split = best_split_over(
            X, y_node, features, criterion=criterion,
            min_samples_leaf=estimator.min_samples_leaf, n_classes=n_classes,
            indices=indices, impurity=impurity,
        )
        if split is None:
            return node_id
        used.add(split.feature)
        tree.nodes[node_id].feature = split.feature
        tree.nodes[node_id].threshold = split.threshold
        left = grow(indices[split.left_mask], depth + 1)
        right = grow(indices[~split.left_mask], depth + 1)
        tree.set_children(node_id, left, right)
        return node_id

    grow(np.arange(X.shape[0], dtype=np.intp), 0)
    return tree


def train_reference(windowed, config, *, split: str = "train", random_state: int = 0):
    """The partitioned tree of ``config`` on ``windowed``, by Algorithm 1's recursion.

    Depth first: a subtree takes the next SID, is grown by ``grow_reference``
    on its rows of its partition's matrix, and each of its leaves in node-id
    order either exits with its majority class or recurses into the next
    partition on the leaf's rows — when the leaf is at the partition's depth
    and its rows are not all of one class.
    """
    labels = windowed.split_labels(split)
    matrices = [windowed.partition_matrix(p, split) for p in range(config.n_partitions)]
    model = PartitionedDecisionTree(
        config=config,
        subtrees={},
        root_sid=1,
        n_classes=windowed.n_classes,
        class_names=list(windowed.class_names),
        default_label=int(np.bincount(labels).argmax()),
    )

    def train(rows: np.ndarray, partition: int) -> int:
        sid = len(model.subtrees) + 1
        X, y = matrices[partition][rows], labels[rows]
        max_depth = config.partition_sizes[partition]
        estimator = DecisionTreeClassifier(
            max_depth=max_depth,
            max_distinct_features=config.features_per_subtree,
            min_samples_leaf=MIN_SAMPLES_LEAF,
            random_state=random_state + sid,
        )
        estimator.n_features_in_ = X.shape[1]
        estimator.classes_ = np.unique(y)
        estimator.n_classes_ = int(estimator.classes_.size)
        estimator.tree_ = grow_reference(estimator, X, y)
        subtree = Subtree(
            sid=sid, partition=partition, tree=estimator, n_training_samples=int(rows.size)
        )
        model.subtrees[sid] = subtree
        leaf_ids = estimator.tree_.apply(X)
        for leaf in estimator.tree_.leaves():
            leaf_rows = rows[leaf_ids == leaf.node_id]
            majority = (
                int(estimator.classes_[int(np.argmax(leaf.value))])
                if leaf.value.sum()
                else model.default_label
            )
            if (
                partition == config.n_partitions - 1
                or leaf.depth < max_depth
                or leaf_rows.size == 0
                or np.unique(labels[leaf_rows]).size <= 1
            ):
                subtree.outcomes[leaf.node_id] = LeafOutcome(kind=OUTCOME_EXIT, label=majority)
            else:
                subtree.outcomes[leaf.node_id] = LeafOutcome(
                    kind=OUTCOME_NEXT, next_sid=train(leaf_rows, partition + 1)
                )
        return sid

    train(np.arange(labels.size, dtype=np.intp), 0)
    return model


def find_best_split(
    X: np.ndarray,
    y: np.ndarray,
    *,
    allowed_features: np.ndarray,
    min_samples_leaf: int,
    n_classes: int,
    rng: np.random.Generator,
    max_features: int | None = None,
    indices: np.ndarray | None = None,
    impurity: float | None = None,
) -> Split | None:
    """``splitter.best_splits`` on one node: the best split of ``allowed_features``.

    Sorts the node's candidate columns and runs the step kernel on them.
    ``X`` is the node's matrix, or with ``indices`` the full matrix its rows
    are gathered from; ``max_features`` draws that many of
    ``allowed_features`` with ``rng``; ``impurity`` is the node's own if the
    caller has it.  ``None`` when no valid split exists.
    """
    n_samples = y.shape[0]
    if n_samples < 2 * min_samples_leaf:
        return None

    features = np.asarray(allowed_features, dtype=np.intp)
    if max_features is not None and max_features < features.size:
        features = rng.choice(features, size=max_features, replace=False)
    if features.size == 0:
        return None

    X = np.asarray(X if indices is None else X[indices], dtype=float)
    counts = np.bincount(y, minlength=n_classes)
    if impurity is None:
        impurity = gini_impurity(counts.astype(float))
    orders = np.argsort(X.T[features], axis=1, kind="stable")
    found, feature, threshold, improvement = best_splits(
        X,
        y,
        orders,
        class_major(orders, y),
        features[:, None],
        np.array([features.size]),
        np.array([n_samples]),
        counts[None],
        np.array([n_classes]),
        np.array([impurity]),
        min_samples_leaf=min_samples_leaf,
    )
    if not found[0]:
        return None
    return Split(
        feature=int(feature[0]),
        threshold=float(threshold[0]),
        improvement=float(improvement[0]),
        left_mask=X[:, feature[0]] <= threshold[0],
    )
