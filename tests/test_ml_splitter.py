"""Unit tests for the split-search primitives."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.splitter import (
    _best_split_over,
    _gini_screen,
    entropy_impurity,
    find_best_split,
    gini_impurity,
    mse_impurity,
    node_impurity,
)


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
        assert mse_impurity(np.full(10, 3.0)) == 0.0

    def test_mse_is_variance(self):
        y = np.array([0.0, 2.0])
        assert mse_impurity(y) == pytest.approx(1.0)

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
        split = find_best_split(
            X, y, allowed_features=np.array([0]), criterion="mse",
            min_samples_leaf=1, n_classes=None, rng=self._rng(),
        )
        assert split is not None
        assert 2.0 < split.threshold < 10.0

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


class TestGiniScreen:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        kinds=st.lists(st.sampled_from(_COLUMN_KINDS), min_size=2, max_size=12),
        n_classes=st.integers(2, 16),
        balanced=st.booleans(),
        min_samples_leaf=st.integers(1, 8),
        with_indices=st.booleans(),
        max_features=st.none() | st.integers(1, 12),
        with_impurity=st.booleans(),
    )
    def test_screen_then_loop_equals_loop_on_the_full_pool(
        self, seed, n, kinds, n_classes, balanced, min_samples_leaf, with_indices,
        max_features, with_impurity,
    ):
        X, y = _adversarial_node(seed, n, kinds, n_classes, balanced)
        rng = np.random.default_rng(seed)
        pool = rng.permutation(len(kinds))
        indices = None
        if with_indices:
            # The node is a shuffled subset of the rows of a larger matrix.
            indices = rng.permutation(2 * n)[:n]
            full = rng.normal(size=(2 * n, len(kinds)))
            full[indices] = X
            X = full
        common = dict(criterion="gini", min_samples_leaf=min_samples_leaf, n_classes=n_classes)
        impurity = None
        if with_impurity:
            impurity = node_impurity(np.bincount(y, minlength=n_classes).astype(float), "gini")
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
        _assert_same_split(got, _best_split_over(X, y, searched, indices=indices, **common))

    def test_screen_keeps_nothing_to_cut_as_none(self):
        X, y = _adversarial_node(3, 40, ("constant", "lopsided", "constant", "lopsided"), 4, True)
        common = dict(criterion="gini", min_samples_leaf=2, n_classes=4)
        assert _best_split_over(X, y, np.arange(4), **common) is None
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
    def test_screen_never_drops_the_exact_best_cut(
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
            X, y, allowed_features=np.arange(len(kinds)), criterion="gini",
            min_samples_leaf=min_samples_leaf, n_classes=n_classes,
            rng=np.random.default_rng(0),
        )
        if split is None:
            assert n < 2 * min_samples_leaf or max(attained, default=0) <= 1e-9
            return
        assert max(attained) - decrease(split.left_mask) <= 1e-9
        assert abs(split.improvement - decrease(split.left_mask)) <= 1e-9
        kept = _gini_screen(X.T.copy(), y, n_classes, min_samples_leaf)
        assert all(
            best_of[feature] is None or best_of[feature] < max(attained)
            for feature in np.flatnonzero(~kept)
        )
