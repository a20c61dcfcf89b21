"""Bayesian-optimisation substrate (HyperMapper equivalent).

Provides mixed parameter spaces, a random-forest surrogate, the
expected-improvement acquisition and single-/multi-objective optimisers with
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
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    Parameter,
    ParameterSpace,
    RealParameter,
)
from repro.bayesopt.surrogate import RandomForestSurrogate

__all__ = [
    "BayesianOptimizer",
    "CategoricalParameter",
    "IntegerParameter",
    "MultiObjectiveBayesianOptimizer",
    "Observation",
    "OrdinalParameter",
    "Parameter",
    "ParameterSpace",
    "RandomForestSurrogate",
    "RealParameter",
    "expected_improvement",
    "random_scalarization_weights",
    "scalarize",
]
