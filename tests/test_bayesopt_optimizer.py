"""Unit tests for surrogates, acquisitions and the Bayesian optimisers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bayesopt.acquisition import (
    expected_improvement,
    random_scalarization_weights,
    scalarize,
)
from repro.bayesopt.optimizer import BayesianOptimizer, MultiObjectiveBayesianOptimizer
from repro.bayesopt.space import IntegerParameter, ParameterSpace
from repro.bayesopt.surrogate import RandomForestSurrogate


class TestSurrogates:
    def _data(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, size=(40, 2))
        y = np.sin(X[:, 0] * 6) + X[:, 1]
        return X, y

    def test_forest_surrogate_shapes(self):
        X, y = self._data()
        forest = RandomForestSurrogate(n_estimators=10).fit(X, y)
        mean, std = forest.predict(X[:7])
        assert mean.shape == (7,)
        assert np.all(std > 0)

    def test_forest_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestSurrogate().predict(np.zeros((1, 2)))
        # The forest is the only surrogate: the GP is gone, not aliased.
        with pytest.raises(ImportError):
            from repro.bayesopt import GaussianProcessSurrogate  # noqa: F401


class TestAcquisitions:
    def test_expected_improvement_positive_for_promising(self):
        ei = expected_improvement(np.array([1.0]), np.array([0.1]), best=0.5)
        assert ei[0] > 0

    def test_expected_improvement_near_zero_for_poor(self):
        ei = expected_improvement(np.array([-5.0]), np.array([0.01]), best=0.5)
        assert ei[0] == pytest.approx(0.0, abs=1e-6)

    def test_ei_increases_with_mean(self):
        means = np.array([0.1, 0.5, 0.9])
        ei = expected_improvement(means, np.full(3, 0.1), best=0.0)
        assert ei[0] < ei[1] < ei[2]

    def test_ei_increases_with_uncertainty_below_best(self):
        ei = expected_improvement(np.array([0.0, 0.0]), np.array([0.01, 1.0]), best=0.5)
        assert ei[1] > ei[0]

    def test_scalarization_weights_sum_to_one(self):
        weights = random_scalarization_weights(3, np.random.default_rng(0))
        assert weights.shape == (3,)
        assert weights.sum() == pytest.approx(1.0)

    def test_scalarize_prefers_dominating_point(self):
        objectives = np.array([[0.9, 0.9], [0.1, 0.1]])
        weights = np.array([0.5, 0.5])
        scores = scalarize(objectives, weights)
        assert scores[0] > scores[1]


class TestBayesianOptimizer:
    def test_optimises_simple_quadratic(self):
        space = ParameterSpace([IntegerParameter("x", -5, 5)])
        optimizer = MultiObjectiveBayesianOptimizer(
            space, n_objectives=1, n_initial=5, candidate_pool=64, seed=0
        )
        for _ in range(25):
            config = optimizer.ask(1)[0]
            value = -(config["x"] - 2.0) ** 2
            optimizer.tell(config, value)
        best = max(optimizer.history.observations, key=lambda o: o.objectives[0])
        assert abs(best.config["x"] - 2.0) < 1.5

    def test_ask_returns_batch(self):
        space = ParameterSpace([IntegerParameter("a", 0, 10)])
        optimizer = MultiObjectiveBayesianOptimizer(space, n_objectives=1, seed=1)
        assert len(optimizer.ask(4)) == 4
        with pytest.raises(TypeError, match="surrogate"):
            BayesianOptimizer(space, surrogate="gp")


class TestMultiObjectiveOptimizer:
    def test_objective_count_enforced(self):
        space = ParameterSpace([IntegerParameter("a", 0, 10)])
        optimizer = MultiObjectiveBayesianOptimizer(space, n_objectives=2, seed=0)
        with pytest.raises(ValueError):
            optimizer.tell({"a": 1}, [0.5])

    def test_converges_towards_better_tradeoffs(self):
        # Maximise (x, 10-x) scalarised: any x is Pareto-optimal, but the
        # optimiser must at least keep proposing valid points after warm-up.
        space = ParameterSpace([IntegerParameter("x", 0, 10)])
        optimizer = MultiObjectiveBayesianOptimizer(space, n_objectives=2, n_initial=4, seed=2)
        for _ in range(12):
            config = optimizer.ask(1)[0]
            assert 0 <= config["x"] <= 10
            optimizer.tell(config, [config["x"], 10 - config["x"]])
        proposed = {obs.config["x"] for obs in optimizer.history.observations}
        assert len(proposed) >= 2
