"""Unit tests for the split-search primitives."""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SpliDTConfig, train_partitioned_tree
from repro.datasets.materialize import WindowedDataset
from repro.ml import DecisionTreeClassifier, RandomForestRegressor
from repro.ml.forest import _best_splits, _moments
from repro.ml.tree import fit_level
from repro.ml.splitter import best_splits, class_major, node_impurities
from split_oracle import (
    best_split_over,
    find_best_split,
    forest_trees,
    gini_impurity,
    grow_reference,
    train_reference,
)


def _regression_root(X, y):
    """The root of a one-tree forest that sees every row and every feature."""
    forest = RandomForestRegressor(n_estimators=1, bootstrap=False, max_features=None)
    return forest_trees(forest.fit(X, y))[0].nodes[0]


class TestImpurities:
    def test_gini_pure(self):
        assert gini_impurity(np.array([10.0, 0.0])) == 0.0

    def test_gini_balanced_two_classes(self):
        assert gini_impurity(np.array([5.0, 5.0])) == pytest.approx(0.5)

    def test_gini_balanced_four_classes(self):
        assert gini_impurity(np.array([1.0, 1.0, 1.0, 1.0])) == pytest.approx(0.75)

    def test_gini_empty(self):
        assert gini_impurity(np.array([0.0, 0.0])) == 0.0

    def test_mse_constant_is_zero(self):
        root = _regression_root(np.arange(10.0).reshape(-1, 1), np.full(10, 3.0))
        assert root.impurity == 0.0 and root.is_leaf

    def test_mse_is_variance(self):
        root = _regression_root(np.array([[0.0], [1.0]]), np.array([0.0, 2.0]))
        assert root.impurity == pytest.approx(1.0)


class TestFindBestSplit:
    def _rng(self):
        return np.random.default_rng(0)

    def test_obvious_split_found(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        split = find_best_split(
            X, y, allowed_features=np.array([0]),
            min_samples_leaf=1, n_classes=2, rng=self._rng(),
        )
        assert split is not None
        assert split.feature == 0
        assert 1.0 < split.threshold < 10.0
        np.testing.assert_array_equal(split.left_mask, [True, True, False, False])

    def test_constant_feature_gives_none(self):
        X = np.ones((10, 1))
        y = np.array([0, 1] * 5)
        split = find_best_split(
            X, y, allowed_features=np.array([0]),
            min_samples_leaf=1, n_classes=2, rng=self._rng(),
        )
        assert split is None

    def test_pure_labels_give_none(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.zeros(10, dtype=int)
        split = find_best_split(
            X, y, allowed_features=np.array([0]),
            min_samples_leaf=1, n_classes=1, rng=self._rng(),
        )
        assert split is None

    def test_min_samples_leaf_blocks_extreme_cuts(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        y = np.array([0, 1, 1, 1, 1, 1])
        split = find_best_split(
            X, y, allowed_features=np.array([0]),
            min_samples_leaf=3, n_classes=2, rng=self._rng(),
        )
        if split is not None:
            assert split.left_mask.sum() >= 3
            assert (~split.left_mask).sum() >= 3

    def test_too_few_samples_returns_none(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        split = find_best_split(
            X, y, allowed_features=np.array([0]),
            min_samples_leaf=2, n_classes=2, rng=self._rng(),
        )
        assert split is None

    def test_picks_most_informative_feature(self):
        rng = np.random.default_rng(1)
        noise = rng.normal(size=100)
        informative = np.concatenate([np.zeros(50), np.ones(50) * 10])
        X = np.column_stack([noise, informative])
        y = np.repeat([0, 1], 50)
        split = find_best_split(
            X, y, allowed_features=np.array([0, 1]),
            min_samples_leaf=1, n_classes=2, rng=self._rng(),
        )
        assert split.feature == 1

    def test_allowed_features_only(self):
        informative = np.concatenate([np.zeros(50), np.ones(50) * 10])
        X = np.column_stack([informative, informative * 2])
        y = np.repeat([0, 1], 50)
        split = find_best_split(
            X, y, allowed_features=np.array([1]),
            min_samples_leaf=1, n_classes=2, rng=self._rng(),
        )
        assert split.feature == 1

    def test_regression_split(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([0.0, 0.0, 0.0, 5.0, 5.0, 5.0])
        root = _regression_root(X, y)
        assert root.feature == 0
        assert 2.0 < root.threshold < 10.0

    def test_improvement_is_positive(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        split = find_best_split(
            X, y, allowed_features=np.array([0]),
            min_samples_leaf=1, n_classes=2, rng=self._rng(),
        )
        assert split.improvement > 0

    def test_threshold_separates_masks(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 3))
        y = (X[:, 2] > 0).astype(int)
        split = find_best_split(
            X, y, allowed_features=np.arange(3),
            min_samples_leaf=1, n_classes=2, rng=self._rng(),
        )
        assert split is not None
        np.testing.assert_array_equal(split.left_mask, X[:, split.feature] <= split.threshold)


#: Column shapes the screen must survive: the first is benign, the rest are
#: built to make two features tie, nearly tie or have nothing to cut.
_COLUMN_KINDS = (
    "continuous",
    "duplicate",
    "negation",
    "few_integers",
    "constant",
    "lopsided",
    "label_swap",
)


def _adversarial_node(seed, n, kinds, n_classes, balanced):
    """A node ``(X, y)`` whose column ``j`` has shape ``kinds[j]``."""
    rng = np.random.default_rng(seed)
    if balanced:
        y = rng.permutation(np.arange(n) % n_classes)
    else:
        y = rng.integers(0, n_classes, size=n)
    columns = []
    for kind in kinds:
        earlier = columns[int(rng.integers(len(columns)))] if columns else rng.normal(size=n)
        if kind == "continuous":
            column = rng.normal(size=n)
        elif kind == "duplicate":
            column = earlier.copy()
        elif kind == "negation":
            column = -earlier
        elif kind == "few_integers":
            column = rng.integers(0, int(rng.integers(2, 6)), size=n).astype(float)
        elif kind == "constant":
            column = np.full(n, float(rng.integers(-3, 4)))
        elif kind == "lopsided":
            # One sample apart from the rest: no cut once min_samples_leaf > 1.
            column = np.zeros(n)
            column[int(rng.integers(n))] = 1.0
        else:
            # Swap the values of two classes' samples pairwise: with equal
            # class totals every cut of the new column has the class counts
            # of the same cut of the old one with two entries exchanged, so
            # the scores tie mathematically but are summed in another order.
            counts = np.bincount(y, minlength=n_classes)
            pairs = [
                (a, b)
                for a in range(n_classes)
                for b in range(a + 1, n_classes)
                if counts[a] == counts[b] > 0
            ]
            a, b = pairs[int(rng.integers(len(pairs)))] if pairs else (0, 1)
            rows_a, rows_b = np.flatnonzero(y == a), np.flatnonzero(y == b)
            m = min(rows_a.size, rows_b.size)
            column = earlier.copy()
            column[rows_a[:m]], column[rows_b[:m]] = earlier[rows_b[:m]], earlier[rows_a[:m]]
        columns.append(column)
    return np.column_stack(columns), y.astype(np.intp)


def _assert_same_split(got, expected):
    if expected is None:
        assert got is None
        return
    assert got is not None
    assert got.feature == expected.feature
    assert got.threshold.hex() == expected.threshold.hex()
    assert got.improvement.hex() == expected.improvement.hex()
    np.testing.assert_array_equal(got.left_mask, expected.left_mask)


def _node_targets(y, criterion, seed):
    """The node's labels, or for mse float targets with ties among them."""
    if criterion != "mse":
        return y
    rng = np.random.default_rng(seed)
    if seed % 2:
        return rng.integers(0, 4, size=y.size).astype(float)
    return rng.normal(size=y.size)


_CRITERIA = ("gini", "mse")

#: Node lengths where NumPy's pairwise sum changes shape: unrolled by 8,
#: recursing above 128 rows.
_PAIRWISE_EDGES = (1, 2, 7, 8, 9, 16, 127, 128, 129, 160)


def _step_kernel(X, y, nodes, searched, min_samples_leaf, seed):
    """The forest's step kernel on a batch of nodes, as a step of its grower sees them.

    ``nodes`` lists each node's rows of ``(X, y)`` (ascending); node ``i``
    searches ``searched[i]``.  The arena block holds each node's rows in
    every feature's stable order and, last, ascending, padded with other
    rows.  Returns the node means and variances and, for the nodes that may
    split (at least ``2·min_samples_leaf`` rows, two at the least), a
    ``(found, feature, threshold, improvement)`` tuple per node.
    """
    rng = np.random.default_rng(seed)
    lengths = np.array([rows.size for rows in nodes])
    block = rng.integers(0, y.size, size=(X.shape[1] + 1, lengths.size, lengths.max()))
    for i, rows in enumerate(nodes):
        block[:-1, i, : rows.size] = rows[np.argsort(X[rows].T, axis=1, kind="stable")]
        block[-1, i, : rows.size] = rows
    moments, totals, mean, variance = _moments(y, block, lengths)
    at = np.flatnonzero(lengths >= max(2, 2 * min_samples_leaf))
    if not at.size:
        return mean, variance, {}
    found = _best_splits(
        X, block, moments, totals, at, np.array([searched[i] for i in at]).T,
        lengths[at], variance[at], min_samples_leaf,
    )
    results = dict(zip(at.tolist(), zip(*(part.tolist() for part in found))))
    return mean, variance, results


def _assert_step_kernel_equals_the_oracle(seed, n, kinds, n_classes, min_samples_leaf, max_features):
    """A batch mixing node lengths 1–160, ``n`` and the pairwise-sum edges, in shuffled order."""
    rng = np.random.default_rng(seed)
    lengths = [n, *rng.choice(_PAIRWISE_EDGES, size=3), *rng.integers(1, 161, size=3)]
    lengths = rng.permutation(lengths).tolist()
    # Each node's rows are an ascending subset of one shared matrix.
    owner = rng.permutation(np.repeat(np.arange(len(lengths)), lengths))
    X = np.empty((owner.size, len(kinds)))
    y = np.empty(owner.size)
    nodes = []
    for i, length in enumerate(lengths):
        rows = np.flatnonzero(owner == i)
        X[rows], labels = _adversarial_node(seed + i, length, kinds, n_classes, i % 2 == 0)
        y[rows] = _node_targets(labels, "mse", seed + i)
        nodes.append(rows)
    searched = []
    for _ in nodes:
        features = rng.permutation(len(kinds))
        searched.append(features if max_features is None else features[:max_features])
    mean, variance, results = _step_kernel(X, y, nodes, searched, min_samples_leaf, seed)
    for i, rows in enumerate(nodes):
        assert mean[i].hex() == float(np.mean(y[rows])).hex()
        assert variance[i].hex() == float(np.var(y[rows])).hex()
        if i not in results:
            continue
        expected = best_split_over(
            X, y[rows], searched[i], criterion="mse", min_samples_leaf=min_samples_leaf,
            n_classes=None, indices=rows, impurity=float(variance[i]),
        )
        found, feature, threshold, improvement = results[i]
        if expected is None:
            assert not found
            continue
        assert found
        got = SimpleNamespace(
            feature=feature, threshold=threshold, improvement=improvement,
            left_mask=X[rows, feature] <= threshold,
        )
        _assert_same_split(got, expected)


def _class_step_kernel(X, y, nodes, searched, n_classes, min_samples_leaf):
    """The classifier's step kernel on a batch of nodes, laid out as a tree's step lays them.

    ``nodes`` lists each node's rows of ``(X, y)`` (ascending); node ``i``
    has ``n_classes[i]`` classes and searches ``searched[i]``.  Each node's
    columns hold its rows stably sorted by each searched feature — and by
    class within that — and its padding rows repeat its first.
    Returns the node impurities and ``(found, feature, threshold,
    improvement)`` per node.
    """
    n_lanes = max(len(features) for features in searched)
    width = max(n_classes)
    orders, class_orders, features = [], [], []
    for rows, node_features in zip(nodes, searched):
        padded = np.concatenate(
            [node_features, np.repeat(node_features[:1], n_lanes - len(node_features))]
        )
        node_orders = np.stack([rows[np.argsort(X[rows, f], kind="stable")] for f in padded])
        orders.append(node_orders)
        class_orders.append(class_major(node_orders, y))
        features.append(padded)
    totals = np.array([np.bincount(y[rows], minlength=width) for rows in nodes])
    impurity = node_impurities(totals, np.array(n_classes))
    found = best_splits(
        X, y, np.hstack(orders), np.hstack(class_orders),
        np.array(features).T, np.array([len(f) for f in searched]),
        np.array([rows.size for rows in nodes]), totals, np.array(n_classes), impurity,
        min_samples_leaf=min_samples_leaf,
    )
    return impurity, found


def _assert_class_step_kernel_equals_the_oracle(
    seed, n, kinds, n_classes, min_samples_leaf, max_features
):
    """A gini batch mixing node lengths 1–300, class counts and search sets."""
    rng = np.random.default_rng(seed)
    lengths = [n, 1, 2, 127, 128, 129, *rng.integers(1, 301, size=2)]
    lengths = rng.permutation(lengths).tolist()
    owner = rng.permutation(np.repeat(np.arange(len(lengths)), lengths))
    X = np.empty((owner.size, len(kinds)))
    y = np.empty(owner.size, dtype=np.intp)
    nodes, classes, searched = [], [], []
    for i, length in enumerate(lengths):
        rows = np.flatnonzero(owner == i)
        node_classes = int(rng.integers(1, n_classes + 1))
        X[rows], y[rows] = _adversarial_node(seed + i, length, kinds, node_classes, i % 2 == 0)
        features = rng.permutation(len(kinds))
        if max_features is not None:
            features = features[: int(rng.integers(1, max_features + 1))]
        nodes.append(rows)
        classes.append(node_classes)
        searched.append(features)
    impurity, (found, feature, threshold, improvement) = _class_step_kernel(
        X, y, nodes, searched, classes, min_samples_leaf
    )
    for i, rows in enumerate(nodes):
        counts = np.bincount(y[rows], minlength=classes[i]).astype(float)
        assert impurity[i].hex() == gini_impurity(counts).hex()
        expected = best_split_over(
            X, y[rows], searched[i], criterion="gini", min_samples_leaf=min_samples_leaf,
            n_classes=classes[i], indices=rows, impurity=float(impurity[i]),
        )
        if expected is None:
            assert not found[i]
            continue
        assert found[i]
        got = SimpleNamespace(
            feature=int(feature[i]), threshold=float(threshold[i]),
            improvement=float(improvement[i]), left_mask=X[rows, feature[i]] <= threshold[i],
        )
        _assert_same_split(got, expected)


class TestSplitKernel:
    """The step kernels against the reference scan of ``tests/split_oracle.py``."""

    @pytest.mark.parametrize("criterion", _CRITERIA)
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        kinds=st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=12),
        n_classes=st.integers(2, 16),
        balanced=st.booleans(),
        min_samples_leaf=st.integers(1, 8),
        max_features=st.none() | st.integers(1, 12),
    )
    def test_kernel_equals_the_oracle(
        self, criterion, seed, n, kinds, n_classes, balanced, min_samples_leaf, max_features,
    ):
        if criterion == "mse":
            # The forest's step kernel scores a batch of nodes at once.
            _assert_step_kernel_equals_the_oracle(
                seed, n, kinds, n_classes, min_samples_leaf, max_features
            )
            return
        # The classifier's step kernel scores a batch of nodes at once too.
        _assert_class_step_kernel_equals_the_oracle(
            seed, n, kinds, n_classes, min_samples_leaf, max_features
        )

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 120),
        kinds=st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=8),
        n_classes=st.integers(2, 8),
        min_samples_leaf=st.integers(1, 4),
        with_indices=st.booleans(),
        max_features=st.none() | st.integers(1, 8),
        with_impurity=st.booleans(),
    )
    def test_find_best_split_equals_the_oracle(
        self, seed, n, kinds, n_classes, min_samples_leaf, with_indices, max_features,
        with_impurity,
    ):
        # The standalone entry: shuffled node rows, the max_features draw.
        X, y = _adversarial_node(seed, n, kinds, n_classes, seed % 3 == 0)
        rng = np.random.default_rng(seed)
        pool = rng.permutation(len(kinds))
        indices = None
        if with_indices:
            indices = rng.permutation(2 * n)[:n]
            full = rng.normal(size=(2 * n, len(kinds)))
            full[indices] = X
            X = full
        common = dict(min_samples_leaf=min_samples_leaf, n_classes=n_classes)
        impurity = (
            gini_impurity(np.bincount(y, minlength=n_classes).astype(float))
            if with_impurity
            else None
        )
        got = find_best_split(
            X, y, allowed_features=pool, rng=np.random.default_rng(seed + 1),
            max_features=max_features, indices=indices, impurity=impurity, **common,
        )
        searched = pool
        if max_features is not None and max_features < pool.size:
            searched = np.random.default_rng(seed + 1).choice(
                pool, size=max_features, replace=False
            )
        if n < 2 * min_samples_leaf:
            assert got is None
            return
        _assert_same_split(
            got, best_split_over(X, y, searched, criterion="gini", indices=indices, **common)
        )

    @pytest.mark.parametrize("criterion", _CRITERIA)
    def test_nothing_to_cut_is_none(self, criterion):
        X, y = _adversarial_node(3, 40, ("constant", "lopsided", "constant", "lopsided"), 4, True)
        y = _node_targets(y, criterion, 3)
        common = dict(min_samples_leaf=2, n_classes=4)
        assert best_split_over(X, y, np.arange(4), criterion=criterion, **common) is None
        if criterion == "mse":
            _, _, results = _step_kernel(X, y, [np.arange(40)], [np.arange(4)], 2, seed=3)
            assert results[0][0] is False
            return
        assert find_best_split(
            X, y, allowed_features=np.arange(4), rng=np.random.default_rng(0), **common
        ) is None

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 24),
        kinds=st.lists(st.sampled_from(_COLUMN_KINDS), min_size=2, max_size=4),
        n_classes=st.integers(2, 4),
        min_samples_leaf=st.integers(1, 3),
    )
    def test_kernel_finds_the_exact_best_cut(
        self, seed, n, kinds, n_classes, min_samples_leaf
    ):
        # Independent of the float splitter: every valid cut's gini decrease
        # in exact rational arithmetic.
        X, y = _adversarial_node(seed, n, kinds, n_classes, balanced=seed % 2 == 0)

        def gini(labels):
            counts = np.bincount(labels, minlength=n_classes)
            return 1 - sum(Fraction(int(c), labels.size) ** 2 for c in counts)

        def decrease(left_mask):
            left, right = y[left_mask], y[~left_mask]
            return gini(y) - (
                Fraction(left.size, n) * gini(left) + Fraction(right.size, n) * gini(right)
            )

        best_of = []
        for feature in range(len(kinds)):
            cuts = [
                decrease(X[:, feature] <= value)
                for value in np.unique(X[:, feature])[:-1]
                if min_samples_leaf <= np.sum(X[:, feature] <= value) <= n - min_samples_leaf
            ]
            best_of.append(max(cuts, default=None))
        attained = [d for d in best_of if d is not None]

        split = find_best_split(
            X, y, allowed_features=np.arange(len(kinds)),
            min_samples_leaf=min_samples_leaf, n_classes=n_classes,
            rng=np.random.default_rng(0),
        )
        if split is None:
            assert n < 2 * min_samples_leaf or max(attained, default=0) <= 1e-9
            return
        assert max(attained) - decrease(split.left_mask) <= 1e-9
        assert abs(split.improvement - decrease(split.left_mask)) <= 1e-9
        # Two distinct decreases of a node this small differ by far more
        # than 1e-12, so the first feature in search order to attain the
        # best wins: the integer screen drops no feature that ties for it.
        assert split.feature == next(f for f, best in enumerate(best_of) if best == max(attained))


def _assert_same_tree(got, expected):
    assert (got.n_features, got.n_outputs) == (expected.n_features, expected.n_outputs)
    assert len(got.nodes) == len(expected.nodes)
    for a, b in zip(got.nodes, expected.nodes):
        assert (a.node_id, a.feature, a.left, a.right, a.depth, a.n_samples) == (
            b.node_id, b.feature, b.left, b.right, b.depth, b.n_samples
        )
        assert float(a.threshold).hex() == float(b.threshold).hex()
        assert float(a.impurity).hex() == float(b.impurity).hex()
        assert a.value.tobytes() == b.value.tobytes()


def _assert_forest_grows_like_the_oracle(
    X, y, seed, n_estimators, bootstrap, max_depth, min_samples_leaf, max_features
):
    """Every tree of a lockstep forest is the tree its own rows and seed grow alone."""
    forest = RandomForestRegressor(
        n_estimators=n_estimators, max_depth=max_depth, min_samples_leaf=min_samples_leaf,
        max_features=max_features, bootstrap=bootstrap, random_state=seed,
    ).fit(X, y)
    n, n_features = X.shape
    if max_features == "sqrt":
        max_features = max(1, int(np.sqrt(n_features)))
    # The forest's draws: each tree's seed, then its bootstrap rows.
    rng = np.random.default_rng(seed)
    members = forest_trees(forest)
    assert len(members) == n_estimators
    for member in members:
        tree_seed = int(rng.integers(0, 2**31 - 1))
        rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        alone = SimpleNamespace(
            max_depth=max_depth, min_samples_leaf=min_samples_leaf, max_distinct_features=None,
            max_features=max_features, allowed_features=None, random_state=tree_seed,
        )
        _assert_same_tree(member, grow_reference(alone, X[rows], y[rows]))


class TestTreeGrowth:
    """Whole trees from the presorted growers against ``grow_reference``.

    The mse leg fits a lockstep forest and checks each of its trees.
    """

    @pytest.mark.parametrize("criterion", _CRITERIA)
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 160),
        kinds=st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=10),
        n_classes=st.integers(1, 8),
        bootstrap=st.booleans(),
        max_depth=st.none() | st.integers(1, 8),
        min_samples_leaf=st.integers(1, 4),
        budget=st.none() | st.integers(1, 4),
        max_features=st.none() | st.integers(1, 6),
        restrict=st.booleans(),
        n_estimators=st.sampled_from([1, 7]),
        forest_max_features=st.sampled_from([None, 1, 2, "sqrt"]),
    )
    def test_trees_grow_node_for_node_like_the_oracle(
        self, criterion, seed, n, kinds, n_classes, bootstrap, max_depth, min_samples_leaf,
        budget, max_features, restrict, n_estimators, forest_max_features,
    ):
        X, labels = _adversarial_node(seed, n, kinds, max(n_classes, 2), seed % 2 == 0)
        y = _node_targets(labels % n_classes, criterion, seed)
        if criterion == "mse":
            _assert_forest_grows_like_the_oracle(
                X, y, seed % 1000, n_estimators, bootstrap, max_depth, min_samples_leaf,
                forest_max_features,
            )
            return
        rng = np.random.default_rng(seed)
        if bootstrap:
            # A forest's tree: rows drawn with replacement, duplicates and all.
            picked = rng.integers(0, n, size=n)
            X, y = X[picked], y[picked]
        allowed = None
        if restrict:
            allowed = sorted(rng.choice(len(kinds), size=int(rng.integers(1, len(kinds) + 1))))
        params = dict(
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            max_distinct_features=budget,
            max_features=max_features,
            allowed_features=allowed,
            random_state=seed % 1000,
        )
        estimator = DecisionTreeClassifier(**params).fit(X, y)
        _assert_same_tree(estimator.tree_, grow_reference(estimator, X, y))


def _assert_same_estimator(got, expected):
    """Two fitted classifiers, field for field."""
    params = (
        "max_depth", "min_samples_leaf", "max_distinct_features", "max_features",
        "allowed_features",
    )
    assert [getattr(got, p) for p in params] == [getattr(expected, p) for p in params]
    assert (got.random_state, got.n_features_in_, got.n_classes_) == (
        expected.random_state, expected.n_features_in_, expected.n_classes_
    )
    assert got.classes_.dtype == expected.classes_.dtype
    np.testing.assert_array_equal(got.classes_, expected.classes_)
    _assert_same_tree(got.tree_, expected.tree_)


def _windowed(seed, n, n_features, n_classes, n_partitions):
    """A small windowed dataset whose columns tie, repeat and separate classes.

    Each window column is a few integers, a rounded continuous value or (one
    in ten) a constant.  Labels are a noisy binning of a random mix of every
    window's columns, so subtrees keep splitting in later partitions; the
    rows at the minimum of window 0's first column are all of class 0, so
    pure leaves exit early.  The train split is a random 70%.
    """
    rng = np.random.default_rng(seed)
    windows = np.empty((n_partitions, n, n_features))
    for window in windows:
        for column in window.T:
            kind = rng.choice(3, p=[0.45, 0.45, 0.1])
            if kind == 0:
                column[:] = rng.integers(0, int(rng.integers(2, 6)), size=n)
            elif kind == 1:
                column[:] = np.round(rng.normal(size=n), 1)
            else:
                column[:] = float(rng.integers(-2, 3))
    score = np.einsum("pnf,pf->n", windows, rng.normal(size=(n_partitions, n_features)))
    labels = np.searchsorted(np.quantile(score, np.linspace(0, 1, n_classes + 1)[1:-1]), score)
    noisy = rng.random(n) < 0.2
    labels[noisy] = rng.integers(0, n_classes, size=int(noisy.sum()))
    first = windows[0, :, 0]
    if first.min() < first.max():
        labels[first == first.min()] = 0
    train = np.sort(rng.permutation(n)[: max(2, int(0.7 * n))])
    return WindowedDataset(
        name="fuzz",
        n_partitions=n_partitions,
        window_features=windows,
        flow_features=windows[-1],
        packet_features=windows[0],
        labels=labels,
        class_names=[f"c{c}" for c in range(n_classes)],
        train_indices=train,
        test_indices=np.setdiff1d(np.arange(n), train),
        fit_indices=train,
        validation_indices=np.arange(0),
    )


class TestLevelGrowth:
    """A level's trees grown in lockstep against each tree grown alone, and
    whole partitioned trees against Algorithm 1's recursion
    (``split_oracle.train_reference``)."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 160),
        kinds=st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=6),
        n_classes=st.integers(1, 6),
        n_trees=st.integers(1, 6),
        max_depth=st.none() | st.integers(1, 6),
        min_samples_leaf=st.integers(1, 4),
        budget=st.none() | st.integers(1, 4),
        max_features=st.none() | st.integers(1, 5),
        restrict=st.booleans(),
    )
    def test_level_fit_equals_the_oracle(
        self, seed, n, kinds, n_classes, n_trees, max_depth, min_samples_leaf, budget,
        max_features, restrict,
    ):
        X, labels = _adversarial_node(seed, n, kinds, max(n_classes, 2), seed % 2 == 0)
        y = labels % n_classes
        rng = np.random.default_rng(seed)
        # Disjoint ascending groups; some rows belong to none.
        owner = rng.integers(-1, n_trees, size=n)
        owner[rng.permutation(n)[: min(n, n_trees)]] = np.arange(min(n, n_trees))
        groups = [np.flatnonzero(owner == t) for t in range(min(n, n_trees))]
        allowed = None
        if restrict:
            allowed = sorted(rng.choice(len(kinds), size=int(rng.integers(1, len(kinds) + 1))))
        params = dict(
            max_depth=max_depth, min_samples_leaf=min_samples_leaf,
            max_distinct_features=budget, max_features=max_features, allowed_features=allowed,
        )
        trees = [
            DecisionTreeClassifier(**params, random_state=seed % 1000 + t)
            for t in range(len(groups))
        ]
        leaf_of = fit_level(trees, X, y, groups)
        for tree, rows in zip(trees, groups):
            alone = DecisionTreeClassifier(**params, random_state=tree.random_state)
            alone.n_features_in_ = X.shape[1]
            alone.classes_ = np.unique(y[rows])
            alone.n_classes_ = int(alone.classes_.size)
            alone.tree_ = grow_reference(alone, X[rows], y[rows])
            _assert_same_estimator(tree, alone)
            np.testing.assert_array_equal(leaf_of[rows], alone.tree_.apply(X[rows]))
        assert (leaf_of[owner == -1] == -1).all()

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(8, 200),
        n_features=st.integers(1, 6),
        n_classes=st.integers(2, 5),
        partition_sizes=st.lists(st.integers(1, 3), min_size=1, max_size=5),
        budget=st.integers(1, 7),
    )
    def test_partitioned_tree_equals_the_oracle(
        self, seed, n, n_features, n_classes, partition_sizes, budget,
    ):
        # P 1-5 with uneven partition depths; a budget that binds (below the
        # feature count) or does not; early exits on pure leaves.
        windowed = _windowed(seed, n, n_features, n_classes, len(partition_sizes))
        config = SpliDTConfig(
            depth=sum(partition_sizes), features_per_subtree=budget,
            partition_sizes=tuple(partition_sizes),
        )
        got = train_partitioned_tree(windowed, config, random_state=seed % 1000)
        expected = train_reference(windowed, config, random_state=seed % 1000)
        assert (got.root_sid, got.n_classes, got.class_names, got.default_label) == (
            expected.root_sid, expected.n_classes, expected.class_names, expected.default_label
        )
        assert list(got.subtrees) == list(expected.subtrees)
        for sid, subtree in expected.subtrees.items():
            mine = got.subtrees[sid]
            assert (mine.sid, mine.partition, mine.n_training_samples) == (
                subtree.sid, subtree.partition, subtree.n_training_samples
            )
            assert list(mine.outcomes.items()) == list(subtree.outcomes.items())
            _assert_same_estimator(mine.tree, subtree.tree)
