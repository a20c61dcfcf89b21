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


def pareto_front(points: np.ndarray) -> np.ndarray:
    """The non-dominated points themselves, sorted by the first objective."""
    indices = pareto_front_indices(points)
    front = np.asarray(points, dtype=float)[indices]
    order = np.argsort(front[:, 0])
    return front[order]


def hypervolume_2d(points: np.ndarray, reference: tuple[float, float] = (0.0, 0.0)) -> float:
    """Hypervolume (area) dominated by a 2-D maximisation front.

    Used to compare the quality of Pareto frontiers (e.g. SpliDT versus the
    baselines) with a single number.
    """
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        return 0.0
    front = pareto_front(points)
    # Sort by first objective descending; accumulate rectangles.
    front = front[np.argsort(-front[:, 0])]
    ref_x, ref_y = reference
    volume = 0.0
    previous_y = ref_y
    for x, y in front:
        width = max(x - ref_x, 0.0)
        height = max(y - previous_y, 0.0)
        volume += width * height
        previous_y = max(previous_y, y)
    return float(volume)

