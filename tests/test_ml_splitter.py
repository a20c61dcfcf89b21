"""Unit tests for the split-search primitives."""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import DecisionTreeClassifier, RandomForestRegressor
from repro.ml.forest import _best_splits, _moments
from repro.ml.splitter import (
    _gini_leaders,
    best_split,
    class_major,
    entropy_impurity,
    find_best_split,
    gini_impurity,
    node_impurity,
)
from split_oracle import best_split_over, grow_reference


def _regression_root(X, y):
    """The root of a one-tree forest that sees every row and every feature."""
    forest = RandomForestRegressor(n_estimators=1, bootstrap=False, max_features=None)
    return forest.fit(X, y).estimators_[0].tree_.nodes[0]


class TestImpurities:
    def test_gini_pure(self):
        assert gini_impurity(np.array([10.0, 0.0])) == 0.0

    def test_gini_balanced_two_classes(self):
        assert gini_impurity(np.array([5.0, 5.0])) == pytest.approx(0.5)

    def test_gini_balanced_four_classes(self):
        assert gini_impurity(np.array([1.0, 1.0, 1.0, 1.0])) == pytest.approx(0.75)

    def test_gini_empty(self):
        assert gini_impurity(np.array([0.0, 0.0])) == 0.0

    def test_entropy_pure(self):
        assert entropy_impurity(np.array([7.0, 0.0])) == 0.0

    def test_entropy_balanced_is_one_bit(self):
        assert entropy_impurity(np.array([4.0, 4.0])) == pytest.approx(1.0)

    def test_entropy_monotone_in_classes(self):
        two = entropy_impurity(np.array([1.0, 1.0]))
        four = entropy_impurity(np.array([1.0, 1.0, 1.0, 1.0]))
        assert four > two

    def test_mse_constant_is_zero(self):
        root = _regression_root(np.arange(10.0).reshape(-1, 1), np.full(10, 3.0))
        assert root.impurity == 0.0 and root.is_leaf

    def test_mse_is_variance(self):
        root = _regression_root(np.array([[0.0], [1.0]]), np.array([0.0, 2.0]))
        assert root.impurity == pytest.approx(1.0)

    def test_node_impurity_dispatch(self):
        counts = np.array([3.0, 3.0])
        assert node_impurity(counts, "gini") == pytest.approx(0.5)
        assert node_impurity(counts, "entropy") == pytest.approx(1.0)

    def test_node_impurity_unknown_criterion(self):
        with pytest.raises(ValueError):
            node_impurity(np.array([1.0]), "mae")


class TestFindBestSplit:
    def _rng(self):
        return np.random.default_rng(0)

    def test_obvious_split_found(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        split = find_best_split(
            X, y, allowed_features=np.array([0]), criterion="gini",
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
            X, y, allowed_features=np.array([0]), criterion="gini",
            min_samples_leaf=1, n_classes=2, rng=self._rng(),
        )
        assert split is None

    def test_pure_labels_give_none(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.zeros(10, dtype=int)
        split = find_best_split(
            X, y, allowed_features=np.array([0]), criterion="gini",
            min_samples_leaf=1, n_classes=1, rng=self._rng(),
        )
        assert split is None

    def test_min_samples_leaf_blocks_extreme_cuts(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        y = np.array([0, 1, 1, 1, 1, 1])
        split = find_best_split(
            X, y, allowed_features=np.array([0]), criterion="gini",
            min_samples_leaf=3, n_classes=2, rng=self._rng(),
        )
        if split is not None:
            assert split.left_mask.sum() >= 3
            assert (~split.left_mask).sum() >= 3

    def test_too_few_samples_returns_none(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        split = find_best_split(
            X, y, allowed_features=np.array([0]), criterion="gini",
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
            X, y, allowed_features=np.array([0, 1]), criterion="gini",
            min_samples_leaf=1, n_classes=2, rng=self._rng(),
        )
        assert split.feature == 1

    def test_allowed_features_only(self):
        informative = np.concatenate([np.zeros(50), np.ones(50) * 10])
        X = np.column_stack([informative, informative * 2])
        y = np.repeat([0, 1], 50)
        split = find_best_split(
            X, y, allowed_features=np.array([1]), criterion="gini",
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
            X, y, allowed_features=np.array([0]), criterion="entropy",
            min_samples_leaf=1, n_classes=2, rng=self._rng(),
        )
        assert split.improvement > 0

    def test_threshold_separates_masks(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 3))
        y = (X[:, 2] > 0).astype(int)
        split = find_best_split(
            X, y, allowed_features=np.arange(3), criterion="gini",
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


def _presorted(X, y, rows, features, criterion):
    """What a tree carries to the node ``rows``: a stable partition of its fit's sort."""
    orders = np.argsort(X.T[features], axis=1, kind="stable")
    orders = orders[np.isin(orders, rows)].reshape(features.size, rows.size)
    class_orders = class_major(orders, y) if criterion == "gini" else None
    return orders, class_orders


def _impurity(y, criterion, n_classes):
    if criterion == "mse":
        return float(np.var(y))
    return node_impurity(np.bincount(y, minlength=n_classes).astype(float), criterion)


_CRITERIA = ("gini", "entropy", "mse")

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


class TestSplitKernel:
    """``best_split`` against the reference scan of ``tests/split_oracle.py``."""

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
        # The node is an ascending subset of the rows of a larger matrix, as
        # in a tree; its orders are the stable partition of a global sort.
        X, labels = _adversarial_node(seed, n, kinds, n_classes, balanced)
        node_y = _node_targets(labels, criterion, seed)
        rng = np.random.default_rng(seed)
        rows = np.sort(rng.permutation(2 * n)[:n])
        full_X = rng.normal(size=(2 * n, len(kinds)))
        full_X[rows] = X
        full_y = np.zeros(2 * n, dtype=node_y.dtype)
        full_y[rows] = node_y
        features = rng.permutation(len(kinds))
        if max_features is not None and max_features < features.size:
            features = rng.choice(features, size=max_features, replace=False)
        orders, class_orders = _presorted(full_X, full_y, rows, features, criterion)
        impurity = _impurity(node_y, criterion, n_classes)
        common = dict(criterion=criterion, min_samples_leaf=min_samples_leaf, n_classes=n_classes)
        got = best_split(
            full_X, full_y, rows, orders, features, impurity=impurity,
            class_orders=class_orders, **common,
        )
        expected = best_split_over(
            full_X, node_y, features, indices=rows, impurity=impurity, **common
        )
        _assert_same_split(got, expected)

    @pytest.mark.parametrize("criterion", ("gini", "entropy"))
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
        self, criterion, seed, n, kinds, n_classes, min_samples_leaf, with_indices,
        max_features, with_impurity,
    ):
        # The standalone entry: shuffled node rows, the max_features draw.
        X, labels = _adversarial_node(seed, n, kinds, n_classes, seed % 3 == 0)
        y = _node_targets(labels, criterion, seed)
        rng = np.random.default_rng(seed)
        pool = rng.permutation(len(kinds))
        indices = None
        if with_indices:
            indices = rng.permutation(2 * n)[:n]
            full = rng.normal(size=(2 * n, len(kinds)))
            full[indices] = X
            X = full
        common = dict(criterion=criterion, min_samples_leaf=min_samples_leaf, n_classes=n_classes)
        impurity = _impurity(y, criterion, n_classes) if with_impurity else None
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
        _assert_same_split(got, best_split_over(X, y, searched, indices=indices, **common))

    @pytest.mark.parametrize("criterion", _CRITERIA)
    def test_nothing_to_cut_is_none(self, criterion):
        X, y = _adversarial_node(3, 40, ("constant", "lopsided", "constant", "lopsided"), 4, True)
        y = _node_targets(y, criterion, 3)
        common = dict(criterion=criterion, min_samples_leaf=2, n_classes=4)
        assert best_split_over(X, y, np.arange(4), **common) is None
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

        rows, features = np.arange(n), np.arange(len(kinds))
        orders, class_orders = _presorted(X, y, rows, features, "gini")
        split = best_split(
            X, y, rows, orders, features, criterion="gini", min_samples_leaf=min_samples_leaf,
            n_classes=n_classes, impurity=_impurity(y, "gini", n_classes),
            class_orders=class_orders,
        )
        if split is None:
            assert n < 2 * min_samples_leaf or max(attained, default=0) <= 1e-9
            return
        assert max(attained) - decrease(split.left_mask) <= 1e-9
        assert abs(split.improvement - decrease(split.left_mask)) <= 1e-9
        # The integer screen keeps every feature whose best cut is the best.
        values = X[orders, features[:, None]]
        valid = values[:, :-1] != values[:, 1:]
        valid[:, : min_samples_leaf - 1] = False
        valid[:, n - min_samples_leaf :] = False
        leaders = _gini_leaders(y, orders, class_orders, valid, n_classes)
        kept = {feature for feature, _, _ in leaders}
        assert all(
            feature in kept
            for feature in range(len(kinds))
            if best_of[feature] is not None and best_of[feature] == max(attained)
        )


def _assert_same_tree(got, expected):
    assert len(got.nodes) == len(expected.nodes)
    for a, b in zip(got.nodes, expected.nodes):
        assert (a.feature, a.left, a.right, a.depth, a.n_samples) == (
            b.feature, b.left, b.right, b.depth, b.n_samples
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
    members = forest.estimators_
    assert len(members) == n_estimators
    for member in members:
        tree_seed = int(rng.integers(0, 2**31 - 1))
        rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        alone = SimpleNamespace(
            criterion="mse", max_depth=max_depth, min_samples_split=2,
            min_samples_leaf=min_samples_leaf, max_distinct_features=None,
            max_features=max_features, allowed_features=None, random_state=tree_seed,
        )
        _assert_same_tree(member.tree_, grow_reference(alone, X[rows], y[rows]))


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
        min_samples_split=st.integers(2, 6),
        budget=st.none() | st.integers(1, 4),
        max_features=st.none() | st.integers(1, 6),
        restrict=st.booleans(),
        n_estimators=st.sampled_from([1, 7]),
        forest_max_features=st.sampled_from([None, 1, 2, "sqrt"]),
    )
    def test_trees_grow_node_for_node_like_the_oracle(
        self, criterion, seed, n, kinds, n_classes, bootstrap, max_depth, min_samples_leaf,
        min_samples_split, budget, max_features, restrict, n_estimators, forest_max_features,
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
            min_samples_split=min_samples_split,
            max_distinct_features=budget,
            max_features=max_features,
            allowed_features=allowed,
            random_state=seed % 1000,
        )
        estimator = DecisionTreeClassifier(criterion=criterion, **params).fit(X, y)
        _assert_same_tree(estimator.tree_, grow_reference(estimator, X, y))
