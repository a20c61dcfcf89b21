"""CART classification trees with a per-tree distinct-feature budget.

The estimator mirrors the scikit-learn API surface the SpliDT artifact uses
(``fit`` / ``predict`` / ``predict_proba`` / ``feature_importances_``) and adds
one capability the paper requires: ``max_distinct_features`` bounds how many
*different* features a tree may test, which is exactly the per-subtree ``k``
constraint of SpliDT's partitioned trees.  (Regression trees are grown by the
forest, ``ml/forest.py``.)

The budget is enforced greedily in depth-first preorder: once the tree has
used ``k`` distinct features, later nodes may only split on those ``k``.

One grower, :func:`fit_level`, fits any number of trees on disjoint rows of
one matrix at once — a partition level of a partitioned tree, or ``fit``'s
single tree.  Each step scores every node it pops in one
:func:`~repro.ml.splitter.best_splits` call.  A tree pops one node a step, in
preorder, while an earlier node can still change a later one's candidate
features (its budget is not spent, or it draws ``max_features`` from its
RNG), and every pending node at once after that.  Node ids are numbered in
preorder at the end, so every tree is the one a node-by-node recursion grows.
"""

from __future__ import annotations

import numpy as np

from repro.ml._tree import LEAF, Tree, TreeNode
from repro.ml.splitter import (
    CLASSIFICATION_CRITERIA,
    _ranges,
    best_splits,
    class_major,
    node_impurities,
)


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
        fit_level([self], X, y, [np.arange(X.shape[0], dtype=np.intp)])
        return self

    def _allowed_feature_pool(self) -> np.ndarray:
        if self.allowed_features is not None:
            pool = np.asarray(sorted(set(self.allowed_features)), dtype=np.intp)
            if pool.size and (pool.min() < 0 or pool.max() >= self.n_features_in_):
                raise ValueError("allowed_features out of range")
            return pool
        return np.arange(self.n_features_in_, dtype=np.intp)

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


def fit_level(
    estimators: list[DecisionTreeClassifier],
    X: np.ndarray,
    y: np.ndarray,
    groups: list[np.ndarray],
    orders: np.ndarray | None = None,
) -> np.ndarray:
    """Fit ``estimators[t]`` on the rows ``groups[t]`` of ``(X, y)``, all trees at once.

    The groups are ascending, nonempty and disjoint; the estimators share
    every hyper-parameter but ``random_state``, and the first one's are the
    ones used.  Each tree comes out as
    ``estimators[t].fit(X[groups[t]], y[groups[t]])`` grows it alone, field
    for field.  ``orders`` is ``np.argsort(X.T, axis=1, kind="stable")`` if
    the caller has it (sorted here otherwise).  Returns, per row of ``X``,
    the id of the leaf its tree sends it to (``LEAF`` for a row in no group).
    """
    sizes = np.array([group.size for group in groups])
    members = np.concatenate(groups)
    owner = np.repeat(np.arange(len(groups)), sizes)
    classes, codes = np.unique(y[members], return_inverse=True)
    present = np.zeros((len(groups), classes.size), dtype=bool)
    present[owner, codes] = True
    encoded = np.zeros(X.shape[0], dtype=np.intp)
    encoded[members] = (np.cumsum(present, axis=1) - 1)[owner, codes]
    for estimator, has in zip(estimators, present):
        estimator.n_features_in_ = X.shape[1]
        estimator.classes_ = classes[has]
        estimator.n_classes_ = int(has.sum())
    level = _Level(estimators, X, encoded, groups, present.sum(axis=1), orders)
    while len(level.pending):
        level.step()
    trees, leaf_of = level.trees()
    for estimator, tree in zip(estimators, trees):
        estimator.tree_ = tree
    return leaf_of


#: Columns of a node table: the node's tree, its arena columns, its depth
#: and (pending nodes only) its record id.
_TREE, _START, _LENGTH, _DEPTH, _RECORD = range(5)


def _columns(start: np.ndarray, length: np.ndarray) -> slice | np.ndarray:
    """The arena columns of nodes ``[start, start + length)``: a slice when they abut."""
    if (start[1:] == (start + length)[:-1]).all():
        return slice(int(start[0]), int(start[-1] + length[-1]))
    return _ranges(start, length)


class _Level:
    """The growth of one level's trees, released when :func:`fit_level` returns.

    The arena holds, per tree, its rows sorted by each pool feature — the
    only sort — then, for gini, the same sorted by class (the screen's
    ranks), and last in row order; a node is one column range of it, and a
    split stably partitions the range in every lane its descendants can
    search, so each child's range is its rows in the same orders.

    Each step pops nodes and scores all of them in one
    :func:`~repro.ml.splitter.best_splits` call.  A tree whose next node's
    candidate features still depend on the nodes before it in preorder (its
    ``max_distinct_features`` budget is not spent, or it draws
    ``max_features`` from its RNG) pops one node, the top of its depth-first
    stack; any other tree pops every node it has pending.  Nodes that cannot
    split are never pushed.  Every node gets a *record* when it is created;
    ids are given in preorder at the end (:meth:`trees`).
    """

    def __init__(self, estimators, X, y, groups, n_classes, orders) -> None:
        params = estimators[0]
        self.params = params
        # Column-major: the kernel and the split masks read a column at a time.
        self.X, self.y = np.asfortranarray(X), y
        self.n_classes = n_classes
        self.pool = params._allowed_feature_pool()
        self.draws = params.max_features is not None and params.max_features < self.pool.size
        self.rngs = (
            [np.random.default_rng(estimator.random_state) for estimator in estimators]
            if self.draws
            else None
        )
        budget = params.max_distinct_features
        # Whether a tree's budget can narrow a later node's candidates.
        self.budgeted = budget is not None and budget < self.pool.size
        n_trees = len(groups)
        sizes = np.array([group.size for group in groups])
        members = np.concatenate(groups)
        owner = np.repeat(np.arange(n_trees), sizes)
        n_lanes = self.pool.size
        self.class_lanes = n_lanes if params.criterion == "gini" else 0
        self.arena = np.empty((n_lanes + self.class_lanes + 1, members.size), dtype=np.intp)
        width = int(n_classes.max())
        if n_lanes:
            by_value = (
                np.argsort(X.T[self.pool], axis=1, kind="stable")
                if orders is None
                else orders[self.pool]
            )
            # Each tree's rows, in every lane's order.
            tree_of = np.zeros(X.shape[0], dtype=np.intp)
            tree_of[members] = owner
            if members.size < X.shape[0]:
                member = np.zeros(X.shape[0], dtype=bool)
                member[members] = True
                by_value = by_value[member.take(by_value)].reshape(n_lanes, members.size)
            if n_trees > 1:
                by_value = class_major(by_value, tree_of)
            self.arena[:n_lanes] = by_value
            if self.class_lanes:
                self.arena[n_lanes:-1] = class_major(by_value, tree_of * width + y)
        self.arena[-1] = members
        self.used = np.zeros((n_trees, n_lanes), dtype=bool)
        self.goes_left = np.empty(X.shape[0], dtype=bool)
        self.leaf_of = np.full(X.shape[0], LEAF, dtype=np.intp)
        self.leaf_of[members] = owner

        self.records: list[tuple[np.ndarray, ...]] = []
        self.splits: list[tuple[np.ndarray, ...]] = []
        self.n_records = 0
        self.pending = np.empty((0, 5), dtype=np.intp)
        self.pending_counts = np.empty((0, width), dtype=np.intp)
        self.pending_impurity = np.empty(0)
        roots = np.zeros((n_trees, 4), dtype=np.intp)
        roots[:, _TREE] = np.arange(n_trees)
        roots[:, _START] = np.cumsum(sizes) - sizes
        roots[:, _LENGTH] = sizes
        counts = np.bincount(owner * width + y[members], minlength=n_trees * width)
        counts = counts.reshape(n_trees, width)
        self._add(roots, np.full(n_trees, LEAF), np.zeros(n_trees, dtype=np.intp), counts)

    def _spent(self, trees: np.ndarray) -> np.ndarray:
        """Whether each tree's feature budget is spent: it searches only its used features."""
        budget = self.params.max_distinct_features
        if budget is None:
            return np.zeros(trees.size, dtype=bool)
        return self.used[trees].sum(axis=1) >= budget

    def _add(self, nodes, parent, side, counts) -> tuple[np.ndarray, np.ndarray]:
        """Record ``nodes`` (tree, start, length, depth) and push those that may split.

        Returns their record ids and which were pushed.  They are pushed
        last first, so of two siblings the left one ends on top.
        """
        params = self.params
        tree, length, depth = nodes[:, _TREE], nodes[:, _LENGTH], nodes[:, _DEPTH]
        impurity = node_impurities(counts, self.n_classes[tree], params.criterion)
        ids = self.n_records + np.arange(tree.size)
        self.n_records += tree.size
        self.records.append((tree, parent, side, depth, length, counts, impurity))
        grows = (length >= max(params.min_samples_split, 2 * params.min_samples_leaf)) & (
            impurity > 1e-12
        )
        if params.max_depth is not None:
            grows &= depth < params.max_depth
        if not self.pool.size:
            grows[:] = False
        at = grows.nonzero()[0][::-1]
        self.pending = np.concatenate([self.pending, np.column_stack([nodes[at], ids[at]])])
        self.pending_counts = np.concatenate([self.pending_counts, counts[at]])
        self.pending_impurity = np.concatenate([self.pending_impurity, impurity[at]])
        return ids, grows

    def _pop(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(nodes, counts, impurity)`` of the step's nodes, off the pending ones."""
        trees = self.pending[:, _TREE]
        one_at_a_time = None
        if self.draws:
            one_at_a_time = np.ones(trees.size, dtype=bool)
        elif self.budgeted:
            one_at_a_time = ~self._spent(trees)
        if one_at_a_time is None or not one_at_a_time.any():
            popped = np.ones(trees.size, dtype=bool)
        else:
            # A tree's top is its last pending node.
            order = np.arange(trees.size)
            top = np.zeros(self.used.shape[0], dtype=np.intp)
            np.maximum.at(top, trees, order)
            popped = ~one_at_a_time | (order == top[trees])
        taken = self.pending[popped], self.pending_counts[popped], self.pending_impurity[popped]
        kept = ~popped
        self.pending = self.pending[kept]
        self.pending_counts = self.pending_counts[kept]
        self.pending_impurity = self.pending_impurity[kept]
        return taken

    def _lanes(self, lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """``(n, matrix)`` of one boolean row of lanes per node.

        Column ``i`` of the matrix lists node ``i``'s lanes (``n[i]`` of them)
        and repeats its first after; the matrix is ``None`` when every node
        has every lane.
        """
        n = lanes.sum(axis=1)
        if n.min() == lanes.shape[1]:
            return n, None
        node, flat = lanes.nonzero()
        first = n.cumsum() - n
        matrix = np.empty((int(n.max()), lanes.shape[0]), dtype=np.intp)
        matrix[:] = flat[first]
        matrix[np.arange(flat.size) - first.repeat(n), node] = flat
        return n, matrix

    def _cells(self, lanes: np.ndarray, offset: int, start, length) -> np.ndarray:
        """Flat arena indices of lanes ``offset + lanes`` over the nodes' columns, ``(S, M)``."""
        lanes = ((lanes + offset) * self.arena.shape[1]).repeat(length, axis=1)
        return lanes + _ranges(start, length)

    def _block(self, lanes: np.ndarray | None, offset: int, n_lanes: int, start, length):
        """Arena lanes ``offset + lanes`` over the nodes' columns, ``(S, M)``.

        ``lanes`` is a :meth:`_lanes` matrix, or ``None`` for lanes
        ``offset .. offset + n_lanes - 1`` of every node.
        """
        if lanes is None:
            return self.arena[offset : offset + n_lanes, _columns(start, length)]
        return self.arena.take(self._cells(lanes, offset, start, length))

    def _searchable(self, trees: np.ndarray) -> np.ndarray:
        """Per node of ``trees``, the pool lanes it may split on (its used ones once spent)."""
        searchable = np.ones((trees.size, self.pool.size), dtype=bool)
        spent = self._spent(trees)
        searchable[spent] = self.used[trees[spent]]
        return searchable

    def _searched(self, trees: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """``(n_searched, lanes)``: each node's searched pool lanes, laid out as by :meth:`_lanes`."""
        searchable = self._searchable(trees)
        if not self.draws:
            return self._lanes(searchable)
        searched = []
        for tree, allowed in zip(trees.tolist(), searchable):
            features = self.pool[allowed]
            if self.params.max_features < features.size:
                features = self.rngs[tree].choice(
                    features, size=self.params.max_features, replace=False
                )
            searched.append(np.searchsorted(self.pool, features))
        n_searched = np.array([lanes.size for lanes in searched])
        lanes = np.empty((int(n_searched.max()), trees.size), dtype=np.intp)
        for i, node_lanes in enumerate(searched):
            lanes[:, i] = node_lanes[0]
            lanes[: node_lanes.size, i] = node_lanes
        return n_searched, lanes

    def step(self) -> None:
        """Pop, score and split one step's nodes; push their children."""
        nodes, counts, impurity = self._pop()
        params = self.params
        trees, start, length = nodes[:, _TREE], nodes[:, _START], nodes[:, _LENGTH]
        n_searched, lanes = self._searched(trees)
        n_lanes = self.pool.size
        found, feature, threshold, _ = best_splits(
            self.X,
            self.y,
            self._block(lanes, 0, n_lanes, start, length),
            self._block(lanes, n_lanes, n_lanes, start, length) if self.class_lanes else None,
            self.pool[:, None] if lanes is None else self.pool[lanes],
            n_searched,
            length,
            counts,
            self.n_classes[trees],
            impurity,
            criterion=params.criterion,
            min_samples_leaf=params.min_samples_leaf,
        )
        at = found.nonzero()[0]
        if not at.size:
            return
        nodes, counts, feature, threshold = nodes[at], counts[at], feature[at], threshold[at]
        trees, start, length = nodes[:, _TREE], nodes[:, _START], nodes[:, _LENGTH]
        self.splits.append((nodes[:, _RECORD], feature, threshold))
        self.used[trees, np.searchsorted(self.pool, feature)] = True

        rows = self.arena[-1, _columns(start, length)]
        split_of = np.arange(at.size).repeat(length)
        columns = self.X.T.ravel()
        left = columns.take(feature[split_of] * self.X.shape[0] + rows) <= threshold[split_of]
        child = 2 * split_of + ~left
        width = counts.shape[1]
        counts = np.bincount(child * width + self.y[rows], minlength=2 * at.size * width)
        counts = counts.reshape(2 * at.size, width)
        n_left = counts[0::2].sum(axis=1)
        children = nodes[:, :_RECORD].repeat(2, axis=0)
        children[:, _DEPTH] += 1
        children[0::2, _LENGTH] = n_left
        children[1::2, _START] += n_left
        children[1::2, _LENGTH] -= n_left
        ids, grows = self._add(
            children, nodes[:, _RECORD].repeat(2), np.tile([0, 1], at.size), counts
        )
        self.leaf_of[rows] = ids[child]

        # Stable partition of the ranges of nodes with a child to grow, in
        # every lane a descendant can search (after the budget: its used
        # features' lanes) and the row-order lane.  Every lane of a node
        # holds its rows, so each lane sends the same count left: its left
        # rows, in order, are the node's first ``n_left`` columns.  A lane
        # listed twice for a node is moved twice, identically.
        parted = (grows[0::2] | grows[1::2]).nonzero()[0]
        if not parted.size:
            return
        self.goes_left[rows] = left
        searchable = self._searchable(trees[parted])
        moved = [searchable, searchable, np.ones((parted.size, 1), dtype=bool)]
        _, lanes = self._lanes(np.hstack(moved if self.class_lanes else moved[1:]))
        start, length, n_left = start[parted], length[parted], n_left[parted]
        moving = self._block(lanes, 0, self.arena.shape[0], start, length)
        goes = self.goes_left.take(moving)
        sides = moving[goes], moving[~goes]
        n_rows = moving.shape[0]
        halves = (start, n_left), (start + n_left, length - n_left)
        for (first, count), part in zip(halves, sides):
            if lanes is None:
                self.arena[:, _columns(first, count)] = part.reshape(n_rows, -1)
            else:
                self.arena.put(self._cells(lanes, 0, first, count), part)

    def trees(self) -> tuple[list[Tree], np.ndarray]:
        """The grown trees, node ids in preorder, and each row's leaf id."""
        tree, parent, side, depth, n_samples, counts, impurity = map(
            np.concatenate, zip(*self.records)
        )
        n_records = tree.size
        feature = np.full(n_records, LEAF, dtype=np.intp)
        threshold = np.zeros(n_records)
        if self.splits:
            split, split_on, cut_at = map(np.concatenate, zip(*self.splits))
            feature[split], threshold[split] = split_on, cut_at
        children = np.full((n_records, 2), LEAF, dtype=np.intp)
        linked = np.flatnonzero(parent >= 0)
        children[parent[linked], side[linked]] = linked
        # Parents are recorded before their children: sizes bottom up, then
        # each node's preorder id from its parent's and its left sibling's.
        parent_of, side_of = parent.tolist(), side.tolist()
        left_of = children[:, 0].tolist()
        size = [1] * n_records
        for record in range(n_records - 1, -1, -1):
            if parent_of[record] >= 0:
                size[parent_of[record]] += size[record]
        preorder = [0] * n_records
        for record in range(n_records):
            above = parent_of[record]
            if above >= 0:
                skipped = size[left_of[above]] if side_of[record] else 0
                preorder[record] = preorder[above] + 1 + skipped
        n_trees = len(self.n_classes)
        grown = [
            Tree(
                n_features=self.X.shape[1],
                n_outputs=int(self.n_classes[t]),
                nodes=[None] * size[t],
            )
            for t in range(n_trees)
        ]
        widths = self.n_classes[tree].tolist()
        for record, (t, f, cut, (left, right), d, n, imp) in enumerate(
            zip(
                tree.tolist(), feature.tolist(), threshold.tolist(), children.tolist(),
                depth.tolist(), n_samples.tolist(), impurity.tolist(),
            )
        ):
            grown[t].nodes[preorder[record]] = TreeNode(
                node_id=preorder[record],
                feature=f,
                threshold=cut,
                left=LEAF if left == LEAF else preorder[left],
                right=LEAF if right == LEAF else preorder[right],
                depth=d,
                n_samples=n,
                value=counts[record, : widths[record]].astype(float),
                impurity=imp,
            )
        leaf_of = self.leaf_of
        members = leaf_of != LEAF
        leaf_of[members] = np.asarray(preorder)[leaf_of[members]]
        return grown, leaf_of
