"""Exact gini best-split search for CART classifiers from presorted orders.

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

import numpy as np


def _batch_impurity(counts: np.ndarray) -> np.ndarray:
    """Row-wise gini impurity of an ``(n_cuts, n_classes)`` class-count matrix.

    Rows with a zero total contribute impurity 0, like an empty node.  The
    zero rows are handled by dividing by 1 instead of 0 — their counts are
    all zero, so the proportions come out exactly 0.0 without the
    ``nan_to_num`` pass the old implementation paid on every candidate cut
    (it dominated split-search profiles).
    """
    totals = counts.sum(axis=1)
    safe_totals = np.where(totals > 0.0, totals, 1.0)
    props = counts / safe_totals[:, None]
    return 1.0 - np.sum(props**2, axis=1)


def _weighted_impurity(left: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """``L·impurity(left) + R·impurity(right)`` of ``(k, C)`` left class counts.

    ``totals`` holds each row's node class counts.  The counts are exact
    integers in float, so every sum here is exact and each row's impurities
    are those of :func:`_batch_impurity` on that row alone.
    """
    sides = np.concatenate([left, totals - left])
    weighted = sides.sum(axis=1) * _batch_impurity(sides)
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


def node_impurities(counts: np.ndarray, n_classes: np.ndarray) -> np.ndarray:
    """Gini impurity of each row ``counts[i, :n_classes[i]]``.

    Bit for bit the scalar impurity of one node (``tests/split_oracle.py``).
    """
    out = np.empty(counts.shape[0])
    totals = counts.sum(axis=1)
    for width, at in _by_width(n_classes):
        proportions = counts[at, :width] / totals[at, None]
        out[at] = 1.0 - np.sum(proportions**2, axis=1)
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
    class_orders: np.ndarray,
    features: np.ndarray,
    n_searched: np.ndarray,
    lengths: np.ndarray,
    totals: np.ndarray,
    n_classes: np.ndarray,
    impurity: np.ndarray,
    *,
    min_samples_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The best split of every node of a growth step, in one pass.

    The step's nodes are consecutive column ranges of ``orders`` (``(S,
    M)``): node ``i`` has ``lengths[i]`` rows of ``(X, y)``, class counts
    ``totals[i, :n_classes[i]]`` (zero after) and impurity ``impurity[i]``,
    and searches ``features[:n_searched[i], i]`` in that order (``features``
    may be one column every node searches).  Row ``s`` of its columns lists
    its rows stably sorted by ``X[:, features[s, i]]`` and the same row of
    ``class_orders`` lists them stably sorted by class within that; rows
    from ``n_searched[i]`` on are padding, some other row's orders of its
    rows, and are never cut.  Per node, as a one-node scan does: every cut
    between distinct values leaving ``min_samples_leaf`` rows each side is
    scored ``L·gini(left) + R·gini(right)``; the first feature to lead by
    more than ``1e-12`` wins with its first minimal cut and the midpoint
    threshold; an improvement on ``impurity`` of at most ``1e-12`` is no
    split.  Nothing here sorts, and no float is summed along a node's rows:
    class counts are integers.

    An exact integer screen picks the cuts that can win.  A cut into ``L``
    and ``R`` rows with class counts ``l_c``, ``r_c`` scores ``n −
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

    # Every lane of a node's columns holds its rows, so the row at a column
    # of the class-major order has a class (and a rank) that depends on the
    # column only.  Scattered per (lane, row), gathered back in feature
    # order: a step's nodes share no row.
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
    # A node's entries of either sum to ΣT_c²: taking the previous node's
    # off at each node's first column restarts one running sum.
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
    # Only the kept (lane, node) pairs are scored, as one flat run of segments.
    kept_lane, kept_node = kept.nonzero()
    lead = np.full(kept.shape, np.inf)
    first_cut = np.zeros(kept.shape, dtype=np.intp)
    if kept_lane.size:
        kept_len = lengths[kept_node]
        kept_start = kept_len.cumsum() - kept_len
        flat_column = _ranges(start[kept_node], kept_len)
        flat = (kept_lane * width).repeat(kept_len) + flat_column
        bound = (pair_best[kept_lane, kept_node] + tol[kept_node]).repeat(kept_len)
        # Invalid cuts screen at ``inf``, above every kept pair's bound.
        scored = screen.take(flat) <= bound
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
