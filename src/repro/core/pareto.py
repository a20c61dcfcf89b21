"""Pareto-frontier utilities for the (F1 score, #flows) objective space."""

from __future__ import annotations

import numpy as np


def pareto_front_indices(points: np.ndarray) -> np.ndarray:
    """Indices of the Pareto-optimal points when *maximising* every column.

    Args:
        points: Array ``(n_points, n_objectives)``.

    Returns:
        Sorted indices of non-dominated points.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be 2-D")
    n = points.shape[0]
    is_optimal = np.ones(n, dtype=bool)
    for i in range(n):
        if not is_optimal[i]:
            continue
        dominated_by_i = np.all(points <= points[i], axis=1) & np.any(points < points[i], axis=1)
        is_optimal[dominated_by_i] = False
    return np.flatnonzero(is_optimal)

