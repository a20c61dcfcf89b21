"""Exact best-split search for CART classification trees from presorted orders.

A tree sorts each candidate feature column once per fit and hands every node
its rows in each feature's order (``ml/tree.py``).  :func:`best_splits` is
the step kernel: it scores every cut of every candidate feature of all the
nodes a growth step pops, in one pass, from those orders with numpy prefix
sums, and never sorts.  That keeps training fast enough to run the paper's
design-space exploration (hundreds of trees per search) in pure Python.  The
regression criterion lives with the only regressor, the forest in
``ml/forest.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Criteria accepted by the classification splitter.
CLASSIFICATION_CRITERIA = ("gini", "entropy")


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


def entropy_impurity(counts: np.ndarray) -> float:
    """Shannon entropy (nats are avoided; base 2) of a class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    proportions = counts / total
    nonzero = proportions[proportions > 0]
    return float(-np.sum(nonzero * np.log2(nonzero)))


def node_impurity(counts: np.ndarray, criterion: str) -> float:
    """Impurity of a node given its class counts and a criterion name."""
    if criterion == "gini":
        return gini_impurity(counts)
    if criterion == "entropy":
        return entropy_impurity(counts)
    raise ValueError(f"unknown criterion: {criterion!r}")


def _batch_impurity(counts: np.ndarray, criterion: str) -> np.ndarray:
    """Row-wise impurity of an ``(n_cuts, n_classes)`` class-count matrix.

    Rows with a zero total contribute impurity 0, matching the scalar
    :func:`node_impurity` convention.  The zero rows are handled by dividing
    by 1 instead of 0 — their counts are all zero, so the proportions come
    out exactly 0.0 without the ``nan_to_num`` pass the old implementation
    paid on every candidate cut (it dominated split-search profiles).
    """
    totals = counts.sum(axis=1)
    safe_totals = np.where(totals > 0.0, totals, 1.0)
    props = counts / safe_totals[:, None]
    if criterion == "gini":
        return 1.0 - np.sum(props**2, axis=1)
    if criterion == "entropy":
        safe = np.where(props > 0, props, 1.0)
        return -np.sum(props * np.log2(safe), axis=1)
    raise ValueError(f"unknown criterion: {criterion!r}")


def _weighted_impurity(left: np.ndarray, totals: np.ndarray, criterion: str) -> np.ndarray:
    """``L·impurity(left) + R·impurity(right)`` of ``(k, C)`` left class counts.

    ``totals`` holds each row's node class counts.  The counts are exact
    integers in float, so every sum here is exact and each row's impurities
    are those of :func:`_batch_impurity` on that row alone.
    """
    sides = np.concatenate([left, totals - left])
    weighted = sides.sum(axis=1) * _batch_impurity(sides, criterion)
    return weighted[: left.shape[0]] + weighted[left.shape[0] :]


def _by_width(widths: np.ndarray):
    """``(width, positions)`` of each distinct entry of ``widths``.

    Rows of class counts are reduced over their own node's class count, never
    over zero padding: NumPy's pairwise sum groups terms by position, so
    padding would change the bits of a row with eight classes or more.  When
    every row has one width, ``positions`` is the slice of all of them.
    """
    if not widths.size:
        return
    if widths.min() == widths.max():
        yield int(widths[0]), slice(None)
        return
    for width in np.unique(widths).tolist():
        yield width, (widths == width).nonzero()[0]


def node_impurities(counts: np.ndarray, n_classes: np.ndarray, criterion: str) -> np.ndarray:
    """:func:`node_impurity` of each row ``counts[i, :n_classes[i]]``, bit for bit."""
    out = np.empty(counts.shape[0])
    totals = counts.sum(axis=1)
    for width, at in _by_width(n_classes):
        proportions = counts[at, :width] / totals[at, None]
        if criterion == "gini":
            out[at] = 1.0 - np.sum(proportions**2, axis=1)
            continue
        # The scalar entropy sums only the nonzero proportions, in order.
        present = proportions > 0
        entropy = np.empty(proportions.shape[0])
        for n_present, rows in _by_width(present.sum(axis=1)):
            nonzero = proportions[rows][present[rows]].reshape(-1, n_present)
            entropy[rows] = -np.sum(nonzero * np.log2(nonzero), axis=1)
        out[at] = entropy
    return out


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``starts[i] .. starts[i] + lengths[i] - 1`` for every ``i``, concatenated."""
    offsets = lengths.cumsum() - lengths
    return (starts - offsets).repeat(lengths) + np.arange(int(lengths.sum()))


def class_major(orders: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Each row of ``orders`` stably sorted by the ``key`` of its entries."""
    # Keys in the narrowest dtype: NumPy radix-sorts 8- and 16-bit keys.
    key = key.astype(np.min_scalar_type(key.max(initial=0))).take(orders)
    by_key = np.argsort(key, axis=1, kind="stable")
    by_key += np.arange(0, orders.size, orders.shape[1])[:, None]
    return orders.take(by_key)


def best_splits(
    X: np.ndarray,
    y: np.ndarray,
    orders: np.ndarray,
    class_orders: np.ndarray | None,
    features: np.ndarray,
    n_searched: np.ndarray,
    lengths: np.ndarray,
    totals: np.ndarray,
    n_classes: np.ndarray,
    impurity: np.ndarray,
    *,
    criterion: str,
    min_samples_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The best split of every node of a growth step, in one pass.

    The step's nodes are consecutive column ranges of ``orders`` (``(S,
    M)``): node ``i`` has ``lengths[i]`` rows of ``(X, y)``, class counts
    ``totals[i, :n_classes[i]]`` (zero after) and impurity ``impurity[i]``,
    and searches ``features[:n_searched[i], i]`` in that order (``features``
    may be one column every node searches).  Row ``s`` of its columns lists
    its rows stably sorted by ``X[:, features[s, i]]`` and, for gini, the
    same row of ``class_orders`` lists them stably sorted by class within
    that; rows from ``n_searched[i]`` on are padding, some other row's
    orders of its rows, and are never cut.  Per node, as a one-node scan
    does: every cut between distinct values leaving ``min_samples_leaf`` rows
    each side is scored ``L·impurity(left) + R·impurity(right)``; the first
    feature to lead by more than ``1e-12`` wins with its first minimal cut
    and the midpoint threshold; an improvement on ``impurity`` of at most
    ``1e-12`` is no split.  Nothing here sorts, and no float is summed along
    a node's rows: class counts are integers.

    For gini an exact integer screen picks the cuts that can win.  A cut into
    ``L`` and ``R`` rows with class counts ``l_c``, ``r_c`` scores ``n −
    Σl_c²/L − Σr_c²/R``, and ``Σr_c² = ΣT_c² − 2·ΣT_c·l_c + Σl_c²`` for the
    node's class totals ``T``, all exact integers (``n < 2**26``): walking a
    feature's order, ``Σl_c²`` grows by ``2·rank + 1`` per row (``rank``:
    earlier rows of its class, its offset in its class's block of the
    class-major order).  That screen score and the float score each round by
    less than ``eps·n`` with ``eps = (C + 4)·2**-53``.  With ``tol =
    1e-9·(n + F)`` (``F`` features searched):

    * Features whose best screen score is above ``cutoff`` (the node's screen
      minimum plus ``tol``) are dropped.  Every dropped feature's float score
      is above ``cutoff − eps·n``, and the screen's argmin feature ``f*`` is
      kept with a float score ``tol − 2·eps·n`` below that.  The rule
      (``score < best − 1e-12``, in search order) over the kept features
      then ends where it ends over all of them: the two scans can disagree
      only after the full one accepts a dropped feature, each later feature
      lowers the smaller of their two best scores by less than ``1e-12``, so
      until ``f*`` arrives both stay above ``cutoff − eps·n − F·1e-12``;
      ``f*`` beats that by more than ``1e-12`` and is accepted by both, after
      which no dropped feature can be accepted and the scans run in lockstep.
    * Within a kept feature, every cut that attains (or ties) its float
      minimum is within ``2·eps·n < tol`` of its screen minimum, so the float
      score is computed only at cuts within ``tol`` of it, and the first of
      its equal minima is the first such cut attaining it.

    Returns ``(found, feature, threshold, improvement)`` per node.
    """
    n_lanes, width = orders.shape
    n_nodes = lengths.size
    n_rows = X.shape[0]
    start = lengths.cumsum() - lengths
    node_of = np.arange(n_nodes).repeat(lengths)
    n = lengths[node_of]
    pos = np.arange(width) - start[node_of]
    lane = np.arange(n_lanes)[:, None]
    # Gathers are flat ``take``s, a column at a time: ``X.T`` is a copy
    # unless ``X`` is column-major.
    feature_of = features if features.shape[1] == 1 else features[:, node_of]
    values = X.T.ravel().take(feature_of * n_rows + orders)
    valid = np.zeros(orders.shape, dtype=bool)
    np.not_equal(values[:, :-1], values[:, 1:], out=valid[:, :-1])
    valid &= (pos >= min_samples_leaf - 1) & (pos < n - min_samples_leaf)
    if n_searched.min() < n_lanes:
        valid &= lane < n_searched[node_of]

    if criterion == "gini":
        # Every lane of a node's columns holds its rows, so the row at a
        # column of the class-major order has a class (and a rank) that
        # depends on the column only.  Scattered per (lane, row), gathered
        # back in feature order: a step's nodes share no row.
        per_class = totals.ravel()
        block_start = (start[:, None] + totals.cumsum(axis=1) - totals).ravel()
        rank = np.arange(width) - block_start.repeat(per_class)
        by_lane = lane * n_rows
        scratch = np.empty(n_lanes * n_rows, dtype=np.intp)
        scratch[by_lane + class_orders] = 2 * rank + 1
        left_sq = scratch.take(by_lane + orders)
        class_total = np.empty(n_rows, dtype=np.intp)
        class_total[class_orders[0]] = per_class.repeat(per_class)
        crossed = class_total.take(orders)
        # A node's entries of either sum to ΣT_c²: taking the previous
        # node's off at each node's first column restarts one running sum.
        node_sq = np.einsum("ij,ij->i", totals, totals)
        if n_nodes > 1:
            left_sq[:, start[1:]] -= node_sq[:-1]
            crossed[:, start[1:]] -= node_sq[:-1]
        left_sq.cumsum(axis=1, out=left_sq)
        crossed.cumsum(axis=1, out=crossed)
        # ``crossed`` becomes ``Σr_c²``, then the screen ``n − Σl_c²/L − Σr_c²/R``.
        crossed *= -2
        crossed += left_sq
        crossed += node_sq[node_of]
        left_n = pos + 1
        # Padding cuts get a dummy right count: they are not valid anyway.
        screen = np.subtract(n, left_sq / left_n)
        screen -= crossed / np.maximum(n - left_n, 1)
        screen[~valid] = np.inf
        pair_best = np.minimum.reduceat(screen, start, axis=1)
        tol = 1e-9 * (lengths + n_searched)
        kept = (pair_best <= pair_best.min(axis=0) + tol) & (pair_best < np.inf)
    else:
        kept = lane < n_searched
    # Only the kept (lane, node) pairs are scored, as one flat run of segments.
    kept_lane, kept_node = kept.nonzero()
    lead = np.full(kept.shape, np.inf)
    first_cut = np.zeros(kept.shape, dtype=np.intp)
    if kept_lane.size:
        kept_len = lengths[kept_node]
        kept_start = kept_len.cumsum() - kept_len
        flat_column = _ranges(start[kept_node], kept_len)
        flat = (kept_lane * width).repeat(kept_len) + flat_column
        scored = valid.take(flat)
        if criterion == "gini":
            bound = (pair_best[kept_lane, kept_node] + tol[kept_node]).repeat(kept_len)
            scored &= screen.take(flat) <= bound
        # Class counts left of every cut of the kept pairs.
        left = np.eye(totals.shape[1], dtype=np.intp)[y.take(orders.take(flat))]
        if kept_node.size > 1:
            left[kept_start[1:]] -= totals[kept_node[:-1]]
        left.cumsum(axis=0, out=left)
        at = scored.nonzero()[0]
        at_node = kept_node.repeat(kept_len)[at]
        score = np.full(flat.size, np.inf)
        for n_cls, group in _by_width(n_classes[at_node]):
            score[at[group]] = _weighted_impurity(
                left[at[group], :n_cls].astype(float),
                totals[at_node[group], :n_cls].astype(float),
                criterion,
            )
        kept_lead = np.minimum.reduceat(score, kept_start)
        lead[kept_lane, kept_node] = kept_lead
        first_cut[kept_lane, kept_node] = np.minimum.reduceat(
            np.where(score == kept_lead.repeat(kept_len), flat_column, width), kept_start
        )

    best = np.full(n_nodes, np.inf)
    chosen = np.zeros(n_nodes, dtype=np.intp)
    # Rows without a kept pair lead nowhere.
    for row in np.unique(kept_lane).tolist():
        score_at = lead[row]
        better = score_at < best - 1e-12
        best[better] = score_at[better]
        chosen[better] = row
    improvement = (lengths * impurity - best) / lengths
    nodes = np.arange(n_nodes)
    cut = np.minimum(first_cut[chosen, nodes], width - 2)
    below, above = values[chosen, cut], values[chosen, cut + 1]
    threshold = (below + above) / 2.0
    # Guard against degenerate midpoints caused by float rounding.
    threshold = np.where(threshold >= above, below, threshold)
    feature = features[chosen, nodes if features.shape[1] > 1 else 0]
    return improvement > 1e-12, feature, threshold, improvement


def find_best_split(
    X: np.ndarray,
    y: np.ndarray,
    *,
    allowed_features: np.ndarray,
    criterion: str,
    min_samples_leaf: int,
    n_classes: int,
    rng: np.random.Generator,
    max_features: int | None = None,
    indices: np.ndarray | None = None,
    impurity: float | None = None,
) -> Split | None:
    """Search ``allowed_features`` for the split with maximal impurity decrease.

    One node on its own: sorts the node's candidate columns and runs
    :func:`best_splits` on it.  A tree does not come through here; it sorts
    once per fit and scores every node of a growth step in one call.

    Args:
        X: Node sample matrix ``(n_samples, n_features)`` — or, when
            ``indices`` is given, the *full* training matrix the node rows
            are gathered from.
        y: Node labels (encoded classes).
        allowed_features: Feature indices the splitter may consider.
        criterion: ``"gini"`` or ``"entropy"``.
        min_samples_leaf: Minimum samples required on each side of a split.
        n_classes: Number of classes.
        rng: Random generator used for feature sub-sampling.
        max_features: If given, a random subset of this many features from
            ``allowed_features`` is searched (used by random forests).
        indices: Row indices of the node's samples within ``X``.
        impurity: The node's impurity under ``criterion`` if the caller
            already has it; computed from ``y`` otherwise.

    Returns:
        The best :class:`Split`, or ``None`` when no valid split exists.
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
        impurity = node_impurity(counts.astype(float), criterion)
    orders = np.argsort(X.T[features], axis=1, kind="stable")
    found, feature, threshold, improvement = best_splits(
        X,
        y,
        orders,
        class_major(orders, y) if criterion == "gini" else None,
        features[:, None],
        np.array([features.size]),
        np.array([n_samples]),
        counts[None],
        np.array([n_classes]),
        np.array([impurity]),
        criterion=criterion,
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
