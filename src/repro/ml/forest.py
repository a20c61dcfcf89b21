"""Bagged regression trees: the Bayesian optimiser's surrogate.

HyperMapper uses random-forest surrogates for mixed parameter spaces.  The
forest is CART with the mean-squared-error criterion — the only regression
criterion in the package — and grows its trees in lockstep: each step takes
the next node, in depth-first preorder, of every tree still growing and
scores all of them in one kernel (:func:`_best_splits`).  A tree's nodes,
split thresholds and ``max_features`` draws are those it would get grown on
its own, node by node (``tests/split_oracle.grow_reference``), bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from repro.ml._tree import LEAF, Tree, TreeNode


def _runs(lengths: np.ndarray) -> list[tuple[int, int, int]]:
    """``(lo, hi, length)`` of each run of equal entries of ``lengths``."""
    runs, lo = [], 0
    for length, run in groupby(lengths.tolist()):
        hi = lo + sum(1 for _ in run)
        runs.append((lo, hi, length))
        lo = hi
    return runs


def _row_sums(a: np.ndarray, runs: list[tuple[int, int, int]]) -> np.ndarray:
    """``a[..., i, :length_i].sum(axis=-1)`` for every node ``i`` of axis -2.

    Each run of equal-length nodes is reduced over exactly its length, so
    every row gets NumPy's pairwise sum of its own values — the bits of the
    1-D ``.sum()`` of that row, which trailing padding would change.
    """
    out = np.empty(a.shape[:-1])
    for lo, hi, length in runs:
        np.add.reduce(a[..., lo:hi, :length], axis=-1, out=out[..., lo:hi])
    return out


def _moments(
    y: np.ndarray, block: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Targets and statistics of a step's nodes, from their arena columns.

    ``block[r, i, :lengths[i]]`` are node ``i``'s rows in arena row ``r``'s
    order (the last row: ascending), padding after.  Returns ``moments``
    (``y`` and ``y²`` gathered over ``block``), ``totals`` (their sums per
    arena row and node) and each node's mean and variance — ``np.mean``'s
    and ``np.var``'s own arithmetic on its targets in row order.
    """
    moments = np.empty((2, *block.shape))
    moments[0] = y[block]
    np.square(moments[0], out=moments[1])
    runs = _runs(lengths)
    totals = _row_sums(moments, runs)
    mean = totals[0, -1] / lengths
    deviation = moments[0, -1] - mean[:, None]
    return moments, totals, mean, _row_sums(deviation * deviation, runs) / lengths


def _best_splits(
    X: np.ndarray,
    block: np.ndarray,
    moments: np.ndarray,
    totals: np.ndarray,
    nodes: np.ndarray,
    searched: np.ndarray,
    lengths: np.ndarray,
    impurity: np.ndarray,
    min_samples_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The best MSE split of each of ``nodes``, a batch of a step's nodes.

    ``block``, ``moments`` and ``totals`` are the step's (:func:`_moments`);
    node ``nodes[i]`` searches features ``searched[:, i]``, in that order,
    and ``lengths`` / ``impurity`` are per searched node.  Per node, as the
    one-node search did: every cut between distinct values leaving
    ``min_samples_leaf`` rows each side scores ``L·var(left) +
    R·var(right)``; the first feature to lead by more than ``1e-12`` wins
    with its first minimal cut and the midpoint threshold; an improvement on
    ``impurity`` of at most ``1e-12`` is no split.  Cumsums, masks and
    ``argmin`` are exact under trailing padding.

    Returns ``(found, feature, threshold, improvement)`` per searched node.
    """
    values = X[block[searched, nodes], searched[..., None]]
    cut = np.arange(values.shape[-1] - 1)
    valid = values[..., :-1] != values[..., 1:]
    valid &= (cut >= min_samples_leaf - 1) & (cut < (lengths - min_samples_leaf)[:, None])
    prefix = np.cumsum(moments[:, searched, nodes], axis=-1)[..., :-1]
    total = totals[:, searched, nodes][..., None]
    left_n = cut + 1
    # Padding cuts get a dummy right count: they are not valid anyway.
    right_n = np.maximum(lengths[:, None] - left_n, 1)
    left_var = prefix[1] - prefix[0] ** 2 / left_n
    right_sum = total[0] - prefix[0]
    right_var = (total[1] - prefix[1]) - right_sum**2 / right_n
    scores = np.where(valid, left_var + right_var, np.inf)

    best = np.full(lengths.size, np.inf)
    chosen = np.zeros(lengths.size, dtype=np.intp)
    for j, lead in enumerate(scores.min(axis=-1)):
        better = lead < best - 1e-12
        best[better] = lead[better]
        chosen[better] = j
    improvement = (lengths * impurity - best) / lengths
    ranks = np.arange(lengths.size)
    cut_at = scores[chosen, ranks].argmin(axis=-1)
    below = values[chosen, ranks, cut_at]
    above = values[chosen, ranks, cut_at + 1]
    threshold = (below + above) / 2.0
    # Guard against degenerate midpoints caused by float rounding.
    threshold = np.where(threshold >= above, below, threshold)
    return improvement > 1e-12, searched[chosen, ranks], threshold, improvement


@dataclass(frozen=True)
class _Nodes:
    """Every node of a fitted forest, in growth order.

    Each step appends one node per growing tree, so tree ``t``'s nodes are
    its preorder and its root is node ``t``.  ``children`` holds node ids
    (``LEAF`` for a leaf); ``value`` is the node's mean target.
    """

    tree: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray
    depth: np.ndarray
    n_samples: np.ndarray
    value: np.ndarray
    impurity: np.ndarray


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    samples: list[np.ndarray],
    seeds: list[int],
    *,
    max_depth: int | None,
    min_samples_leaf: int,
    max_features: int | None,
) -> _Nodes:
    """Grow one tree per ``(samples[t], seeds[t])`` on ``X[samples[t]]``, in lockstep.

    Tree ``t``'s rows are ``t·n .. t·n + n - 1`` of the stacked sample.  The
    arena holds, per tree, its rows sorted by each feature — the fit's only
    sort — and, last, in row order; a node is one column range of it, and a
    split stably partitions that range in every arena row, so each child's
    range is its rows in the same orders.  Each tree keeps a depth-first
    stack of ``(start, length, depth, link)`` entries, ``link`` being where
    the node's id goes in its parent's ``children``.
    """
    n, n_features = X.shape
    n_trees = len(samples)
    stacked = np.concatenate(samples)
    X, y = X[stacked], y[stacked]
    width = n_trees * n
    by_feature = np.argsort(
        X.reshape(n_trees, n, n_features).transpose(2, 0, 1), axis=-1, kind="stable"
    )
    # Ranges are read as wide as the step's longest; the zero tail keeps a
    # read in bounds and takes the writes of padding.
    arena = np.zeros((n_features + 1, width + n), dtype=np.intp)
    arena[:-1, :width] = (by_feature + np.arange(0, width, n)[:, None]).reshape(n_features, -1)
    arena[-1, :width] = np.arange(width)
    lanes = np.arange(n_features + 1)[:, None, None]

    depth_cap = n if max_depth is None else min(n, max_depth)
    stack = np.empty((n_trees, depth_cap + 2, 4), dtype=np.intp)
    stack[:, 0] = np.arange(0, width, n)[:, None] * [1, 0, 0, 0] + [0, n, 0, -1]
    heights = np.ones(n_trees, dtype=np.intp)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    pool = np.arange(n_features, dtype=np.intp)
    draw = max_features is not None and max_features < n_features
    smallest = max(2, 2 * min_samples_leaf)
    grown, splits = [], []
    n_nodes = 0
    while True:
        growing = np.flatnonzero(heights)
        if not growing.size:
            break
        heights[growing] -= 1
        entries = stack[growing, heights[growing]]
        by_length = np.argsort(entries[:, 1], kind="stable")
        trees = growing[by_length]
        start, length, depth, link = entries[by_length].T
        first, n_nodes = n_nodes, n_nodes + trees.size

        span = int(length[-1])
        block = arena[:, start[:, None] + np.arange(span)]
        moments, totals, mean, spread = _moments(y, block, length)
        grown.append((trees, depth, length, mean, spread, link))
        grows = (length >= smallest) & (spread > 1e-12)
        if max_depth is not None:
            grows &= depth < max_depth
        at = np.flatnonzero(grows)
        if draw:
            searched = np.array(
                [rngs[t].choice(pool, size=max_features, replace=False) for t in trees[at].tolist()]
            ).T
        else:
            searched = np.broadcast_to(pool[:, None], (n_features, at.size))
        if not searched.size:  # nothing grows, or no feature to search
            continue
        found, split_on, cut_at, _ = _best_splits(
            X, block, moments, totals, at, searched, length[at], spread[at], min_samples_leaf
        )
        at, split_on, cut_at = at[found], split_on[found], cut_at[found]
        if not at.size:
            continue
        splits.append((first + at, split_on, cut_at))

        # Stable partition of each split node's range, in every arena row.
        rows = block[:, at]
        inside = np.arange(span) < length[at][:, None]
        left = (X[rows, split_on[:, None]] <= cut_at[:, None]) & inside
        right = ~left & inside
        n_left = left[-1].sum(axis=1)
        offset = np.where(left, np.cumsum(left, axis=-1), np.cumsum(right, axis=-1) + n_left[:, None])
        arena[lanes, np.where(inside, start[at][:, None] + offset - 1, width)] = rows

        # Push the right child, then the left: the left is grown next.
        lo, child_depth, slot = start[at], depth[at] + 1, 2 * (first + at)
        pushed = np.array(
            [[lo + n_left, length[at] - n_left, child_depth, slot + 1], [lo, n_left, child_depth, slot]]
        )
        split_trees = trees[at]
        stack[split_trees[:, None], heights[split_trees][:, None] + [0, 1]] = pushed.transpose(2, 0, 1)
        heights[split_trees] += 2

    tree_of, depth, n_samples, value, impurity, link = map(np.concatenate, zip(*grown))
    children = np.full((n_nodes, 2), LEAF, dtype=np.intp)
    linked = np.flatnonzero(link >= 0)
    children.reshape(-1)[link[linked]] = linked
    feature = np.full(n_nodes, LEAF, dtype=np.intp)
    threshold = np.zeros(n_nodes)
    if splits:
        split_ids, split_on, cut_at = map(np.concatenate, zip(*splits))
        feature[split_ids], threshold[split_ids] = split_on, cut_at
    return _Nodes(tree_of, feature, threshold, children, depth, n_samples, value, impurity)


@dataclass(frozen=True)
class ForestTree:
    """One fitted tree of a forest, as ``estimators_`` lists it."""

    tree_: Tree


class RandomForestRegressor:
    """Bagging ensemble of CART regression trees (MSE criterion).

    ``predict_with_std`` exposes the across-tree standard deviation, which the
    Bayesian optimiser uses as its uncertainty estimate.
    """

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
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.n_features_in_: int = 0
        self._nodes: _Nodes | None = None

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

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        """Fit the ensemble."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if y.ndim != 1:
            raise ValueError("y must be 1-D")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have mismatched lengths")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.n_features_in_ = X.shape[1]
        max_features = self._resolve_max_features(X.shape[1])
        rng = np.random.default_rng(self.random_state)
        seeds, samples = [], []
        for _ in range(self.n_estimators):
            seeds.append(int(rng.integers(0, 2**31 - 1)))
            samples.append(self._bootstrap_indices(X.shape[0], rng))
        self._nodes = _grow(
            X,
            y,
            samples,
            seeds,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=max_features,
        )
        return self

    def _fitted(self) -> _Nodes:
        if self._nodes is None:
            raise RuntimeError("forest is not fitted")
        return self._nodes

    @property
    def estimators_(self) -> list[ForestTree]:
        """The fitted trees as :class:`Tree` objects, node ids in preorder."""
        if self._nodes is None:
            return []
        nodes = self._nodes
        tree_of = nodes.tree.tolist()
        # A node's id in its own tree is its rank among that tree's nodes;
        # the trailing ``LEAF`` makes ``local[LEAF]`` a leaf's child.
        local, counts = [], [0] * self.n_estimators
        for tree in tree_of:
            local.append(counts[tree])
            counts[tree] += 1
        local.append(LEAF)
        trees = [Tree(n_features=self.n_features_in_, n_outputs=1) for _ in counts]
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
        return [ForestTree(tree) for tree in trees]

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean impurity-decrease importances across the ensemble."""
        self._fitted()
        return np.mean(
            [member.tree_.compute_feature_importances() for member in self.estimators_], axis=0
        )

    def _member_predictions(self, X: np.ndarray) -> np.ndarray:
        """``(n_estimators, n_rows)`` leaf means: every row down every tree at once."""
        nodes = self._fitted()
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-D array")
        n_rows = X.shape[0]
        at = np.repeat(np.arange(self.n_estimators), n_rows)
        row = np.tile(np.arange(n_rows), self.n_estimators)
        descending = np.flatnonzero(nodes.feature[at] != LEAF)
        while descending.size:
            node = at[descending]
            goes_left = X[row[descending], nodes.feature[node]] <= nodes.threshold[node]
            at[descending] = nodes.children[node, np.where(goes_left, 0, 1)]
            descending = descending[nodes.feature[at[descending]] != LEAF]
        return nodes.value[at].reshape(self.n_estimators, n_rows)

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
