"""Exact best-split search for CART classification trees from presorted orders.

A tree sorts each candidate feature column once per fit and hands every node
its rows in each feature's order (``ml/tree.py``); :func:`best_split` scores
every cut of every candidate feature of a node from those orders with numpy
prefix sums and never sorts.  That keeps training fast enough to run the
paper's design-space exploration (hundreds of trees per search) in pure
Python.  The regression criterion lives with the only regressor, the
forest in ``ml/forest.py``.
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


def _left_class_counts(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """``(F, n, C)`` class counts of each prefix of each row of ``labels``."""
    return np.cumsum(np.eye(n_classes, dtype=np.int8)[labels], axis=1)


def _weighted_impurity(left: np.ndarray, totals: np.ndarray, criterion: str) -> np.ndarray:
    """``L·impurity(left) + R·impurity(right)`` of ``(k, C)`` left class counts.

    The counts are exact integers in float, so every sum here is exact and the
    per-row impurities are those of :func:`_batch_impurity` on any set of rows.
    """
    sides = np.concatenate([left, totals - left])
    weighted = sides.sum(axis=1) * _batch_impurity(sides, criterion)
    return weighted[: left.shape[0]] + weighted[left.shape[0] :]


def _gini_leaders(
    y: np.ndarray,
    orders: np.ndarray,
    class_orders: np.ndarray,
    valid: np.ndarray,
    n_classes: int,
) -> list[tuple[int, int, float]]:
    """``(feature, cut, score)`` of each feature that can win a gini node.

    A cut into ``L`` and ``R`` rows with class counts ``l_c``, ``r_c`` scores
    ``L·gini(left) + R·gini(right) = n − Σl_c²/L − Σr_c²/R``, and both sums
    are exact integers (``int64``, for ``n < 2**26``) with no class axis:
    walking a feature's order, ``Σl_c²`` grows by ``2·rank + 1`` per row
    (``rank``: earlier rows of its class), and ``Σr_c² = ΣT_c² − 2·Σ T_c·l_c + Σl_c²`` for class totals
    ``T``.  ``class_orders`` lists the rows by class, then in the feature's
    order, so a row's rank is its offset in its class's block.

    That screen score and the reference float score
    (:func:`_weighted_impurity`) each round by less than ``eps·n`` with
    ``eps = (C + 4)·2**-53``.  With ``tol = 1e-9·(n + F)``:

    * Features whose best screen score is above ``cutoff`` (the screen
      minimum plus ``tol``) are dropped.  Every dropped feature's reference
      score is above ``cutoff − eps·n``, and the screen's argmin feature
      ``f*`` is kept with a reference score ``tol − 2·eps·n`` below that.
      The reference rule (``score < best − 1e-12``, in search order) over
      the kept features then ends where it ends over all of them: the two
      scans can disagree only after the full one accepts a dropped feature,
      each later feature lowers the smaller of their two best scores by less
      than ``1e-12``, so until ``f*`` arrives both stay above
      ``cutoff − eps·n − F·1e-12``; ``f*`` beats that by more than
      ``1e-12`` and is accepted by both, after which no dropped feature can
      be accepted and the scans run in lockstep.
    * Within a kept feature, every cut that attains (or ties) its reference
      minimum is within ``2·eps·n < tol`` of its screen minimum, so the
      reference score is computed only at cuts within ``tol`` of it, and the
      first of its equal minima is the first such cut attaining it.
    """
    n_features, n = orders.shape
    labels = y[orders]
    totals = np.bincount(labels[0], minlength=n_classes)
    # ``steps[j·N + row]`` is the row's ``2·rank + 1`` in feature j's order:
    # scattered from the class blocks, gathered back in feature order.
    lanes = np.arange(0, n_features * y.size, y.size)[:, None]
    rank = np.arange(n) - np.repeat(np.cumsum(totals) - totals, totals)
    steps = np.empty(n_features * y.size, dtype=np.intp)
    steps[class_orders + lanes] = 2 * rank + 1
    left_sq = np.cumsum(steps[orders + lanes], axis=1)[:, :-1]
    right_sq = totals @ totals - np.cumsum((2 * totals)[labels], axis=1)[:, :-1] + left_sq
    left_n = np.arange(1, n)
    screen = np.where(valid, n - left_sq / left_n - right_sq / (n - left_n), np.inf)
    best = screen.min(axis=1)
    tol = 1e-9 * (n + n_features)
    kept = np.flatnonzero(best <= best.min() + tol)
    if not np.isfinite(best[kept[0]]):
        return []
    near = valid[kept] & (screen[kept] <= best[kept, None] + tol)
    lane_of, cut_of = np.nonzero(near)
    left = _left_class_counts(labels[kept], n_classes)[lane_of, cut_of]
    scores = np.full(near.shape, np.inf)
    scores[lane_of, cut_of] = _weighted_impurity(left.astype(float), totals.astype(float), "gini")
    cuts = scores.argmin(axis=1)
    return list(zip(kept.tolist(), cuts.tolist(), scores[np.arange(kept.size), cuts].tolist()))


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    orders: np.ndarray,
    features: np.ndarray,
    *,
    criterion: str,
    min_samples_leaf: int,
    n_classes: int,
    impurity: float,
    class_orders: np.ndarray | None = None,
) -> Split | None:
    """The best split of one node among ``features``, from presorted orders.

    Every (feature, cut) is scored; the first feature, in ``features`` order,
    to lead by more than ``1e-12`` wins, its first minimal cut is the split,
    and the threshold is the midpoint of the values either side of it.  Only
    cuts between distinct values that leave ``min_samples_leaf`` rows on each
    side count.  No split improving impurity by more than ``1e-12`` is
    ``None``.  Nothing here sorts.

    Args:
        X: The training matrix the node's rows index.
        y: Per training row, the encoded class (``0 .. n_classes - 1``).
        rows: The node's training rows, ascending.
        orders: ``orders[j]`` is ``rows`` stably sorted by
            ``X[:, features[j]]``.
        features: Candidate feature indices, in search order.
        criterion: ``"gini"`` or ``"entropy"``.
        min_samples_leaf: Minimum rows on each side of a split.
        n_classes: Number of classes.
        impurity: The node's impurity under ``criterion``.
        class_orders: Gini only: ``class_orders[j]`` is ``orders[j]`` stably
            sorted by class.
    """
    n = rows.size
    if n < 2 * min_samples_leaf or features.size == 0:
        return None
    values = X[orders, features[:, None]]
    valid = values[:, :-1] != values[:, 1:]
    valid[:, : min_samples_leaf - 1] = False
    valid[:, n - min_samples_leaf :] = False

    if criterion == "gini":
        leaders = _gini_leaders(y, orders, class_orders, valid, n_classes)
    else:
        counts = _left_class_counts(y[orders], n_classes)
        left = counts[:, :-1].astype(float).reshape(-1, n_classes)
        scores = _weighted_impurity(left, counts[0, -1].astype(float), criterion)
        scores = np.where(valid, scores.reshape(features.size, n - 1), np.inf)
        cuts = scores.argmin(axis=1)
        leaders = [
            (j, int(cut), float(scores[j, cut]))
            for j, cut in enumerate(cuts)
            if valid[j, cut]
        ]

    best = None
    best_score = np.inf
    for j, cut, score in leaders:
        if score < best_score - 1e-12:
            best, best_score = (j, cut), score
    if best is None:
        return None
    improvement = (n * impurity - best_score) / n
    if improvement <= 1e-12:
        return None
    j, cut = best
    below, above = values[j, cut], values[j, cut + 1]
    threshold = float((below + above) / 2.0)
    # Guard against degenerate midpoints caused by float rounding.
    if threshold >= above:
        threshold = float(below)
    feature = int(features[j])
    return Split(
        feature=feature,
        threshold=threshold,
        improvement=float(improvement),
        left_mask=X[rows, feature] <= threshold,
    )


def class_major(orders: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each row of ``orders`` stably sorted by the classes ``y`` of its rows."""
    # Labels in the narrowest dtype: NumPy radix-sorts 8- and 16-bit keys.
    labels = y.astype(np.min_scalar_type(y.max(initial=0)))[orders]
    return np.take_along_axis(orders, np.argsort(labels, axis=1, kind="stable"), axis=1)


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
    :func:`best_split`.  A tree does not come through here; it sorts once
    per fit and calls :func:`best_split` at every node.

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

    X = np.asarray(X if indices is None else X[indices], dtype=float)
    orders = np.argsort(X.T[features], axis=1, kind="stable")
    if impurity is None:
        impurity = node_impurity(np.bincount(y, minlength=n_classes).astype(float), criterion)
    class_orders = class_major(orders, y) if criterion == "gini" else None
    return best_split(
        X,
        y,
        np.arange(n_samples),
        orders,
        features,
        criterion=criterion,
        min_samples_leaf=min_samples_leaf,
        n_classes=n_classes,
        impurity=impurity,
        class_orders=class_orders,
    )
