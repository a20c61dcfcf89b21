"""Bayesian-optimisation substrate (HyperMapper equivalent).

Provides integer parameter spaces, a random-forest surrogate, the
expected-improvement acquisition and a multi-objective optimiser with
feasibility awareness — the pieces SpliDT's design-space exploration needs.
"""

from repro.bayesopt.acquisition import (
    expected_improvement,
    random_scalarization_weights,
    scalarize,
)
from repro.bayesopt.optimizer import (
    BayesianOptimizer,
    MultiObjectiveBayesianOptimizer,
    Observation,
)
from repro.bayesopt.space import (
    IntegerParameter,
    ParameterSpace,
)
from repro.bayesopt.surrogate import RandomForestSurrogate

__all__ = [
    "BayesianOptimizer",
    "IntegerParameter",
    "MultiObjectiveBayesianOptimizer",
    "Observation",
    "ParameterSpace",
    "RandomForestSurrogate",
    "expected_improvement",
    "random_scalarization_weights",
    "scalarize",
]
