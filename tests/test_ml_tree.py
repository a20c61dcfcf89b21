"""Unit tests for the CART decision-tree estimators."""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest

from repro import core, datasets
from repro.ml import DecisionTreeClassifier, RandomForestRegressor
from repro.ml._tree import LEAF
from split_oracle import forest_trees


def _accuracy(tree, X, y) -> float:
    return float(np.mean(tree.predict(X) == y))


def _n_leaves(tree) -> int:
    return sum(node.is_leaf for node in tree.nodes)


class TestClassifierBasics:
    def test_fits_and_predicts_training_data(self, classification_data):
        X, y = classification_data
        tree = DecisionTreeClassifier(max_depth=8).fit(X, y)
        assert _accuracy(tree, X, y) > 0.95

    def test_predict_returns_known_classes(self, classification_data):
        X, y = classification_data
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert set(np.unique(tree.predict(X))) <= set(np.unique(y))

    def test_predict_proba_rows_sum_to_one(self, classification_data):
        X, y = classification_data
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        probabilities = tree.predict_proba(X)
        assert probabilities.shape == (X.shape[0], 3)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)

    def test_string_labels_round_trip(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array(["cat", "cat", "dog", "dog"])
        tree = DecisionTreeClassifier().fit(X, y)
        assert list(tree.predict(X)) == ["cat", "cat", "dog", "dog"]

    def test_single_class_gives_single_leaf(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        y = np.zeros(20, dtype=int)
        tree = DecisionTreeClassifier().fit(X, y)
        assert _n_leaves(tree.tree_) == 1
        assert np.all(tree.predict(X) == 0)

    def test_pure_node_stops_splitting(self):
        X = np.array([[0.0], [0.1], [5.0], [5.1]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier(max_depth=10).fit(X, y)
        assert tree.get_depth() == 1
        assert _n_leaves(tree.tree_) == 2


class TestClassifierConstraints:
    def test_max_depth_respected(self, classification_data):
        X, y = classification_data
        for depth in (1, 2, 3, 5):
            tree = DecisionTreeClassifier(max_depth=depth).fit(X, y)
            assert tree.get_depth() <= depth

    def test_min_samples_leaf_respected(self, classification_data):
        X, y = classification_data
        tree = DecisionTreeClassifier(max_depth=10, min_samples_leaf=15).fit(X, y)
        leaf_ids = tree.apply(X)
        _, counts = np.unique(leaf_ids, return_counts=True)
        assert counts.min() >= 15

    def test_feature_budget_limits_distinct_features(self, classification_data):
        X, y = classification_data
        tree = DecisionTreeClassifier(max_depth=10, max_distinct_features=2).fit(X, y)
        assert len(tree.features_used()) <= 2

    def test_feature_budget_of_one(self, classification_data):
        X, y = classification_data
        tree = DecisionTreeClassifier(max_depth=10, max_distinct_features=1).fit(X, y)
        assert len(tree.features_used()) <= 1

    def test_allowed_features_restricts_splits(self, classification_data):
        X, y = classification_data
        tree = DecisionTreeClassifier(max_depth=8, allowed_features=[0, 3]).fit(X, y)
        assert tree.features_used() <= {0, 3}

    def test_allowed_features_out_of_range_raises(self, classification_data):
        X, y = classification_data
        tree = DecisionTreeClassifier(allowed_features=[99])
        with pytest.raises(ValueError):
            tree.fit(X, y)

    def test_unconstrained_tree_beats_budgeted_tree(self, classification_data):
        X, y = classification_data
        free = DecisionTreeClassifier(max_depth=8).fit(X, y)
        budgeted = DecisionTreeClassifier(max_depth=8, max_distinct_features=1).fit(X, y)
        assert _accuracy(free, X, y) >= _accuracy(budgeted, X, y)


class TestClassifierValidation:
    def test_invalid_max_depth(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_depth=0)

    def test_invalid_min_samples_leaf(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_leaf=0)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((5, 2)), np.zeros(4))

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((0, 2)), np.zeros(0))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict(np.zeros((1, 2)))

    def test_1d_X_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros(5), np.zeros(5))


class TestClassifierStructure:
    def test_feature_importances_sum_to_one(self, classification_data):
        X, y = classification_data
        tree = DecisionTreeClassifier(max_depth=6).fit(X, y)
        importances = tree.feature_importances_
        assert importances.shape == (4,)
        assert importances.min() >= 0
        assert np.isclose(importances.sum(), 1.0)

    def test_apply_returns_leaf_ids(self, classification_data):
        X, y = classification_data
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        leaf_ids = tree.apply(X)
        leaf_nodes = {node.node_id for node in tree.tree_.leaves()}
        assert set(leaf_ids) <= leaf_nodes

    def test_apply_equals_the_per_row_descent(self, classification_data):
        X, y = classification_data
        # Thresholds sit between training values: probe them, both sides, and NaN.
        tree = DecisionTreeClassifier(max_depth=7).fit(X, y).tree_
        probes = np.vstack([X, X[:40] + 1e-9, np.full((1, X.shape[1]), np.nan)])
        for node in tree.nodes:
            if not node.is_leaf:
                row = X[0].copy()
                row[node.feature] = node.threshold
                probes = np.vstack([probes, row])
        expected = [tree._apply_row(row) for row in probes]
        assert tree.apply(probes).tolist() == expected
        assert expected == [tree.decision_path(row)[-1] for row in probes]
        assert tree.apply(probes[:0]).shape == (0,)

    def test_apply_follows_a_tree_that_grew_since_the_last_call(self):
        tree = DecisionTreeClassifier().fit(np.array([[0.0], [1.0]]), np.array([0, 0])).tree_
        X = np.array([[0.0], [1.0]])
        assert tree.apply(X).tolist() == [0, 0]  # a single leaf
        kwargs = dict(feature=LEAF, threshold=0.0, depth=1, n_samples=1, value=[1.0], impurity=0.0)
        left, right = tree.add_node(**kwargs), tree.add_node(**kwargs)
        tree.nodes[0].feature, tree.nodes[0].threshold = 0, 0.5
        tree.set_children(0, left, right)
        assert tree.apply(X).tolist() == [left, right]

    def test_leaf_nodes_have_no_children(self, classification_data):
        X, y = classification_data
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        for node in tree.tree_.nodes:
            if node.is_leaf:
                assert node.left == LEAF and node.right == LEAF
            else:
                assert node.left != LEAF and node.right != LEAF

    def test_children_deeper_than_parents(self, classification_data):
        X, y = classification_data
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        for node in tree.tree_.nodes:
            if not node.is_leaf:
                assert tree.tree_.nodes[node.left].depth == node.depth + 1
                assert tree.tree_.nodes[node.right].depth == node.depth + 1

    def test_node_sample_counts_are_consistent(self, classification_data):
        X, y = classification_data
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        for node in tree.tree_.nodes:
            if not node.is_leaf:
                left = tree.tree_.nodes[node.left]
                right = tree.tree_.nodes[node.right]
                assert node.n_samples == left.n_samples + right.n_samples

    def test_deterministic_with_same_seed(self, classification_data):
        X, y = classification_data
        a = DecisionTreeClassifier(max_depth=6, random_state=5).fit(X, y)
        b = DecisionTreeClassifier(max_depth=6, random_state=5).fit(X, y)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))


def _regression_tree(**params) -> RandomForestRegressor:
    """A one-tree forest that sees every row and every feature: plain CART regression."""
    return RandomForestRegressor(n_estimators=1, bootstrap=False, max_features=None, **params)


class TestRegressor:
    def test_fits_linear_step_function(self):
        X = np.linspace(0, 10, 200).reshape(-1, 1)
        y = (X[:, 0] > 5).astype(float) * 3.0
        reg = _regression_tree(max_depth=2).fit(X, y)
        predictions = reg.predict_with_std(X)[0]
        assert np.abs(predictions - y).max() < 0.5

    def test_score_is_r2(self):
        X = np.linspace(0, 10, 100).reshape(-1, 1)
        y = X[:, 0] ** 2
        reg = _regression_tree(max_depth=6).fit(X, y)
        residual = y - reg.predict_with_std(X)[0]
        assert 1.0 - np.sum(residual**2) / np.sum((y - y.mean()) ** 2) > 0.95

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(1).normal(size=(30, 2))
        y = np.full(30, 7.0)
        reg = _regression_tree().fit(X, y)
        assert _n_leaves(forest_trees(reg)[0]) == 1
        np.testing.assert_allclose(reg.predict_with_std(X)[0], 7.0)

    def test_rejects_non_mse_criterion(self):
        # Mean squared error is the regressor's only criterion: no option.
        with pytest.raises(TypeError):
            RandomForestRegressor(criterion="gini")

    def test_max_depth_respected(self):
        X = np.random.default_rng(2).normal(size=(200, 3))
        y = X[:, 0] + X[:, 1] * 2
        reg = _regression_tree(max_depth=3).fit(X, y)
        assert forest_trees(reg)[0].max_depth <= 3

    def test_prediction_within_target_range(self):
        X = np.random.default_rng(3).normal(size=(100, 2))
        y = np.random.default_rng(4).uniform(-5, 5, size=100)
        reg = _regression_tree(max_depth=5).fit(X, y)
        predictions = reg.predict_with_std(X)[0]
        assert predictions.min() >= y.min() - 1e-9
        assert predictions.max() <= y.max() + 1e-9


def _arrays_held(obj, seen=None):
    """Every numpy array reachable from ``obj``'s attributes and containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays_held(value, seen)
    elif isinstance(obj, (list, tuple, set)):
        for value in obj:
            yield from _arrays_held(value, seen)
    elif hasattr(obj, "__dict__"):
        yield from _arrays_held(vars(obj), seen)


class TestFittedState:
    @pytest.mark.parametrize(
        "estimator",
        [
            DecisionTreeClassifier(max_depth=4),
            DecisionTreeClassifier(max_depth=4, max_distinct_features=2),
            RandomForestRegressor(n_estimators=2, max_depth=4, max_features=2),
        ],
    )
    def test_fitted_tree_holds_no_array_of_training_row_length(self, estimator):
        # The fit's sorted orders, encoded labels and scratch masks are
        # per-fit state: a search keeps hundreds of fitted trees alive.
        rng = np.random.default_rng(0)
        n_rows = 97  # no node value, node count, feature count or class count has this length
        X = rng.normal(size=(n_rows, 5))
        y = rng.integers(0, 3, size=n_rows)
        if isinstance(estimator, RandomForestRegressor):
            trees = forest_trees(estimator.fit(X, y.astype(float)))
        else:
            trees = [estimator.fit(X, y).tree_]
        assert all(_n_leaves(tree) > 1 for tree in trees)
        held = [array.shape for array in _arrays_held(estimator)]
        assert held and not [shape for shape in held if n_rows in shape]


def _hash_tree(digest, tree) -> None:
    for node in tree.nodes:
        digest.update(
            repr(
                (
                    node.feature,
                    float(node.threshold).hex(),
                    node.left,
                    node.right,
                    node.depth,
                    node.n_samples,
                    float(node.impurity).hex(),
                )
            ).encode()
        )
        digest.update(node.value.tobytes())


_GOLDEN_CONFIGS = {
    "d6-k2-2x2x2": (6, 2, (2, 2, 2)),
    "d9-k4-3x3x3": (9, 4, (3, 3, 3)),
    "d8-k1-8": (8, 1, (8,)),
}

_GOLDEN_PARTITIONED = {
    ("D1", "d6-k2-2x2x2"): "72584488d7e5f7171965eba3e4e6716de0446634242f911f0e93556f28e135d7",
    ("D3", "d6-k2-2x2x2"): "0941fdfb4c7f2f72f2836fe23bd8eb470aebbe96854c0e69de44ee57eac2a9e7",
    ("D6", "d6-k2-2x2x2"): "a589f37be6fb3531128669e505509df1df826b808d1b3f94af5241b5d1574299",
    ("D1", "d9-k4-3x3x3"): "23fe82d4b892f3dbf745745cb5412c3a80f622b54a082bbaacc30a829dfff426",
    ("D3", "d9-k4-3x3x3"): "35155344b3c22c27c38fa5f6def6349429278f0f9b151aea015e83e812fe2a70",
    ("D6", "d9-k4-3x3x3"): "03e41002696cfce9c62fa5c6f1c1b9db898e2071fad64b7dc609975b7753fedf",
    ("D1", "d8-k1-8"): "92094bb69a0ebd4d801591f4b05c130e5e8ebd71f0ebddaedf9f4066913058f6",
    ("D3", "d8-k1-8"): "e4c11e8593f71d56fc72db511a7bbf55815630b2000e65f41d524159f9e47113",
    ("D6", "d8-k1-8"): "36d111bed1f4f0ca884a7faa20606ce90df31e263063977a6977603aff59ca99",
}
_GOLDEN_FOREST = "8cb527c2116eb2922022cbf46e808bb8334c564832d6dfdd4830e99e66525cf5"


@functools.lru_cache(maxsize=None)
def _golden_store(dataset_key):
    return datasets.DatasetStore(
        datasets.load_dataset(dataset_key, n_flows=300, seed=11), random_state=11
    )


class TestGoldenTrees:
    """SHA-256 of whole fitted trees, recorded from the PR 18 splitter.

    Every node's feature, threshold, children, depth, sample count, value
    and impurity go into the digest bit for bit, so a split search that
    breaks a tie differently or rounds a threshold differently fails here in
    seconds rather than as a moved harness digest.
    """

    @pytest.mark.parametrize("dataset_key", ["D1", "D3", "D6"])
    @pytest.mark.parametrize("config_key", list(_GOLDEN_CONFIGS))
    def test_partitioned_tree_digest(self, dataset_key, config_key):
        depth, k, partition_sizes = _GOLDEN_CONFIGS[config_key]
        config = core.SpliDTConfig(
            depth=depth, features_per_subtree=k, partition_sizes=partition_sizes
        )
        model = core.train_partitioned_tree(
            _golden_store(dataset_key).fetch(len(partition_sizes)), config, random_state=3
        )
        digest = hashlib.sha256()
        for sid in sorted(model.subtrees):
            subtree = model.subtrees[sid]
            digest.update(repr((sid, subtree.partition)).encode())
            _hash_tree(digest, subtree.tree.tree_)
            for leaf_id in sorted(subtree.outcomes):
                outcome = subtree.outcomes[leaf_id]
                digest.update(
                    repr((leaf_id, outcome.kind, outcome.label, outcome.next_sid)).encode()
                )
        assert digest.hexdigest() == _GOLDEN_PARTITIONED[(dataset_key, config_key)]

    def test_surrogate_shaped_regression_forest_digest(self):
        # The Bayesian optimiser's surrogate: a small forest of one-feature-
        # per-split regressors on an integer design (depth, k, partitions).
        rng = np.random.default_rng(19)
        X = rng.integers(1, 13, size=(30, 3)).astype(float)
        y = rng.random(30)
        forest = RandomForestRegressor(n_estimators=5, max_features=1, random_state=4).fit(X, y)
        digest = hashlib.sha256()
        for tree in forest_trees(forest):
            _hash_tree(digest, tree)
        assert digest.hexdigest() == _GOLDEN_FOREST
