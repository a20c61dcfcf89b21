"""Unit tests for Pareto-frontier utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pareto import pareto_front_indices


def dominates(a, b) -> bool:
    """Reference relation: ``a`` Pareto-dominates ``b`` (maximisation)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(a >= b) and np.any(a > b))


def _front_of(a, b) -> list[int]:
    return pareto_front_indices(np.array([a, b], dtype=float)).tolist()


class TestDominates:
    """The dominance relation as the front applies it to a pair of points."""

    def test_strict_domination(self):
        assert _front_of([2, 2], [1, 1]) == [0]

    def test_partial_improvement_dominates(self):
        assert _front_of([2, 1], [1, 1]) == [0]

    def test_equal_points_do_not_dominate(self):
        assert _front_of([1, 1], [1, 1]) == [0, 1]

    def test_tradeoff_points_do_not_dominate(self):
        assert _front_of([2, 0], [0, 2]) == [0, 1]
        assert _front_of([0, 2], [2, 0]) == [0, 1]


class TestParetoFront:
    def test_single_point(self):
        indices = pareto_front_indices(np.array([[1.0, 1.0]]))
        np.testing.assert_array_equal(indices, [0])

    def test_dominated_points_removed(self):
        points = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
        indices = pareto_front_indices(points)
        np.testing.assert_array_equal(indices, [1])

    def test_tradeoff_points_kept(self):
        points = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        assert len(pareto_front_indices(points)) == 3

    def test_front_members_not_dominated(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 1, size=(100, 2))
        front = points[pareto_front_indices(points)]
        for member in front:
            assert not any(dominates(other, member) for other in points)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            pareto_front_indices(np.array([1.0, 2.0]))
