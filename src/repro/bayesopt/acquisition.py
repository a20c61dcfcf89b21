"""Acquisition functions for Bayesian optimisation."""

from __future__ import annotations

import numpy as np
from scipy import stats


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.01
) -> np.ndarray:
    """Expected improvement over the incumbent ``best`` (maximisation)."""
    mean = np.asarray(mean, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    improvement = mean - best - xi
    z = improvement / std
    return improvement * stats.norm.cdf(z) + std * stats.norm.pdf(z)


def random_scalarization_weights(n_objectives: int, rng: np.random.Generator) -> np.ndarray:
    """Dirichlet-uniform weights used to scalarise multi-objective problems."""
    weights = rng.dirichlet(np.ones(n_objectives))
    return weights


def scalarize(objectives: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Augmented Chebyshev scalarisation of normalised objectives (maximise)."""
    objectives = np.atleast_2d(np.asarray(objectives, dtype=float))
    weighted = objectives * weights[None, :]
    return weighted.min(axis=1) + 0.05 * weighted.sum(axis=1)
