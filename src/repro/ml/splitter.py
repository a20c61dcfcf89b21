"""Vectorised best-split search for CART trees.

The splitter evaluates every candidate threshold of every allowed feature with
numpy prefix sums, which keeps training fast enough to run the paper's
design-space exploration (hundreds of trees per search) in pure Python.
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


def mse_impurity(y: np.ndarray) -> float:
    """Mean-squared-error impurity (variance) of a target vector."""
    if y.size == 0:
        return 0.0
    return float(np.var(y))


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


def _one_hot_labels(y: np.ndarray, n_classes: int) -> np.ndarray:
    """One-hot float matrix of an integer label vector."""
    one_hot = np.zeros((y.shape[0], n_classes), dtype=float)
    one_hot[np.arange(y.shape[0]), y] = 1.0
    return one_hot


def _split_scores_from_one_hot(sorted_one_hot: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity-sum for every prefix cut of a feature-sorted one-hot matrix.

    ``sorted_one_hot`` is the node's one-hot label matrix reordered by the
    candidate feature; building the one-hot once per node and gathering it
    per feature is cheaper than reconstructing it from the sorted labels for
    every feature (the split search visits every feature of every node).
    """
    left_counts = np.cumsum(sorted_one_hot, axis=0)[:-1]
    total_counts = left_counts[-1] + sorted_one_hot[-1]
    right_counts = total_counts - left_counts

    left_totals = left_counts.sum(axis=1)
    right_totals = right_counts.sum(axis=1)

    left_impurity = _batch_impurity(left_counts, criterion)
    right_impurity = _batch_impurity(right_counts, criterion)

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


def _gini_screen(
    columns: np.ndarray, y: np.ndarray, n_classes: int, min_samples_leaf: int
) -> np.ndarray:
    """Which rows of ``columns`` (features x samples) can hold the best gini cut.

    The reference loop scores a cut as ``L·gini(left) + R·gini(right)``, which
    is ``n − Σl_c²/L − Σr_c²/R``: two integers per cut.  With the labels in
    feature order, ``Σl_c²`` grows by ``2·rank + 1`` per sample, ``rank``
    being the earlier samples of the same class, and ``Σr_c² = ΣT_c² −
    2·Σ T_c·l_c + Σl_c²`` for class totals ``T`` — exact ``int64`` (for
    ``n < 2**26``), no class axis, every feature of the node at once.

    Returns a mask keeping feature ``f`` iff its best valid cut (the loop's
    own mask) scores within ``tol = 1e-9·(n + F)`` of the best of all ``F``.
    Both formulas round by less than ``eps·n`` with ``eps = (C + 4)·2**-53``,
    so every dropped feature's *reference* score is above ``cutoff − eps·n``
    (``cutoff`` = screen minimum + ``tol``) and the screen's argmin ``f*``
    is kept with a reference score ``tol − 2·eps·n`` below that.  The loop's
    ``score < best − 1e-12`` scan over the kept features in pool order then
    ends where the scan over all features does: the two can disagree only
    after the full scan accepts a dropped feature, each later feature lowers
    the smaller of their two best scores by less than ``1e-12``, so until
    ``f*`` arrives both stay above ``cutoff − eps·n − F·1e-12``; ``f*`` beats
    that by more than ``1e-12`` and is accepted by both, after which no
    dropped feature can be accepted and the scans run in lockstep.
    """
    n_features, n_samples = columns.shape
    order = np.argsort(columns, axis=1, kind="stable")
    rows = np.arange(n_features)[:, None]
    sorted_x = columns[rows, order]
    # Labels in the narrowest dtype: NumPy radix-sorts 8- and 16-bit keys.
    sorted_y = y.astype(np.min_scalar_type(n_classes))[order]
    totals = np.bincount(y, minlength=n_classes)
    # Stable-sorting the labels groups each class in feature order, so the
    # within-class rank of those positions is one vector for every feature.
    rank = np.empty_like(order)
    rank[rows, np.argsort(sorted_y, axis=1, kind="stable")] = np.arange(n_samples) - np.repeat(
        np.cumsum(totals) - totals, totals
    )
    left_sq = np.cumsum(2 * rank + 1, axis=1)[:, :-1]
    right_sq = int(totals @ totals) - 2 * np.cumsum(totals[sorted_y], axis=1)[:, :-1] + left_sq
    left_n = np.arange(1, n_samples)
    right_n = n_samples - left_n
    scores = n_samples - left_sq / left_n - right_sq / right_n
    valid = (
        (sorted_x[:, :-1] != sorted_x[:, 1:])
        & (left_n >= min_samples_leaf)
        & (right_n >= min_samples_leaf)
    )
    best = np.where(valid, scores, np.inf).min(axis=1)
    return best <= best.min() + 1e-9 * (n_samples + n_features)


def _best_split_over(
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

    The only code that scores a cut, breaks ties (first feature to lead by
    more than ``1e-12`` wins) and builds a :class:`Split`.
    """
    n_samples = y.shape[0] if indices is not None else X.shape[0]
    is_classification = criterion in CLASSIFICATION_CRITERIA
    one_hot = _one_hot_labels(y, n_classes) if is_classification else None
    if impurity is None and is_classification:
        impurity = node_impurity(np.bincount(y, minlength=n_classes).astype(float), criterion)
    elif impurity is None:
        impurity = mse_impurity(y)
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
            scores = _split_scores_from_one_hot(one_hot[order], criterion)
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


def find_best_split(
    X: np.ndarray,
    y: np.ndarray,
    *,
    allowed_features: np.ndarray,
    criterion: str,
    min_samples_leaf: int,
    n_classes: int | None,
    rng: np.random.Generator,
    max_features: int | None = None,
    indices: np.ndarray | None = None,
    impurity: float | None = None,
) -> Split | None:
    """Search ``allowed_features`` for the split with maximal impurity decrease.

    The search is :func:`_best_split_over`; for gini, :func:`_gini_screen`
    first narrows its pool to the features that can win, which changes
    nothing it returns.

    Args:
        X: Node sample matrix ``(n_samples, n_features)`` — or, when
            ``indices`` is given, the *full* training matrix the node rows
            are gathered from.
        y: Node labels (classification, int) or targets (regression, float).
        allowed_features: Feature indices the splitter may consider.
        criterion: ``"gini"``, ``"entropy"`` or ``"mse"``.
        min_samples_leaf: Minimum samples required on each side of a split.
        n_classes: Number of classes (classification only).
        rng: Random generator used for feature sub-sampling and tie breaks.
        max_features: If given, a random subset of this many features from
            ``allowed_features`` is searched (used by random forests).
        indices: Row indices of the node's samples within ``X``.  Passing
            the full matrix plus indices gathers only the candidate feature
            columns instead of copying every column of every node — the tree
            grower's dominant allocation once the feature budget narrows the
            pool.
        impurity: The node's impurity under ``criterion`` if the caller
            already has it; computed from ``y`` otherwise.

    Returns:
        The best :class:`Split`, or ``None`` when no valid split exists.
    """
    n_samples = y.shape[0] if indices is not None else X.shape[0]
    if n_samples < 2 * min_samples_leaf:
        return None

    features = np.asarray(allowed_features, dtype=np.intp)
    if max_features is not None and max_features < features.size:
        features = rng.choice(features, size=max_features, replace=False)

    if criterion == "gini" and features.size > 1:
        columns = X.T[features[:, None], indices] if indices is not None else X.T[features]
        features = features[_gini_screen(columns, y, n_classes, min_samples_leaf)]

    return _best_split_over(
        X,
        y,
        features,
        criterion=criterion,
        min_samples_leaf=min_samples_leaf,
        n_classes=n_classes,
        indices=indices,
        impurity=impurity,
    )
