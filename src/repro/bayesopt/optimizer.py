"""Bayesian optimisation: a multi-objective optimiser with feasibility.

The multi-objective optimiser mirrors the HyperMapper workflow the paper uses:

* integer parameter spaces,
* several objectives maximised simultaneously (F1 score, #flows),
* a feasibility flag per evaluation that the optimiser learns to avoid, and
* batch suggestions (the paper evaluates 16 configurations per iteration).

Ask/tell interface::

    optimizer = MultiObjectiveBayesianOptimizer(space, n_objectives=2, seed=1)
    for _ in range(iterations):
        for config in optimizer.ask(batch_size):
            objectives, feasible = evaluate(config)
            optimizer.tell(config, objectives, feasible)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bayesopt.acquisition import (
    expected_improvement,
    random_scalarization_weights,
    scalarize,
)
from repro.bayesopt.space import ParameterSpace
from repro.bayesopt.surrogate import RandomForestSurrogate


@dataclass
class Observation:
    """One evaluated configuration."""

    config: dict
    objectives: np.ndarray
    feasible: bool


@dataclass
class _History:
    observations: list[Observation] = field(default_factory=list)

    def encoded(self, space: ParameterSpace) -> np.ndarray:
        return np.stack([space.encode(obs.config) for obs in self.observations])

    def objective_matrix(self) -> np.ndarray:
        return np.stack([obs.objectives for obs in self.observations])

    def feasibility(self) -> np.ndarray:
        return np.array([obs.feasible for obs in self.observations], dtype=bool)

    def __len__(self) -> int:
        return len(self.observations)


class BayesianOptimizer:
    """The ask/tell loop of a Bayesian optimiser (maximisation).

    Batches suggestions, fits the surrogate and picks the unseen candidate of
    highest expected improvement; a subclass supplies ``_ask_one`` (one
    suggestion, given the batch's pending picks) and ``tell``.
    """

    def __init__(
        self,
        space: ParameterSpace,
        *,
        n_initial: int = 8,
        candidate_pool: int = 256,
        seed: int = 0,
    ) -> None:
        self.space = space
        self.n_initial = n_initial
        self.candidate_pool = candidate_pool
        self.rng = np.random.default_rng(seed)
        self.history = _History()

    # ------------------------------------------------------------------
    def ask(self, batch_size: int = 1) -> list[dict]:
        """Suggest ``batch_size`` configurations to evaluate next."""
        suggestions = []
        for _ in range(batch_size):
            suggestions.append(self._ask_one(suggestions))
        return suggestions

    def _best_unseen(
        self, surrogate, candidates: list[dict], X: np.ndarray, best: float, pending: list[dict]
    ) -> dict:
        """The candidate of highest expected improvement not yet evaluated or pending.

        ``X`` is the encoded history the surrogate was fitted on.  Falls back
        to a fresh random sample when every candidate has been seen.
        """
        encoded = np.stack([self.space.encode(c) for c in candidates])
        mean, std = surrogate.predict(encoded)
        acquisition = expected_improvement(mean, std, best=best)

        # Penalise candidates identical to already-evaluated or pending points.
        seen = set(map(tuple, np.round(X, 6)))
        seen |= {tuple(np.round(self.space.encode(c), 6)) for c in pending}
        for i, key in enumerate(map(tuple, np.round(encoded, 6))):
            if key in seen:
                acquisition[i] = -np.inf

        best_index = int(np.argmax(acquisition))
        if not np.isfinite(acquisition[best_index]):
            return self.space.sample(self.rng)
        return candidates[best_index]

    def tell_many(self, configs, objectives, feasibility=None) -> None:
        """Record a batch of evaluations, strictly in the order given.

        Equivalent to calling :meth:`tell` once per element; exists so batch
        evaluators (the parallel DSE pool) state their ordering contract in
        one place — observations enter the history in *proposal* order, which
        keeps subsequent ``ask`` calls bit-identical to a serial loop no
        matter which evaluation finished first.
        """
        configs = list(configs)
        objectives = list(objectives)
        if feasibility is None:
            feasibility = [True] * len(configs)
        else:
            feasibility = list(feasibility)
        if not (len(configs) == len(objectives) == len(feasibility)):
            raise ValueError(
                f"mismatched batch lengths: {len(configs)} configs, "
                f"{len(objectives)} objectives, {len(feasibility)} feasibility flags"
            )
        for config, objective, feasible in zip(configs, objectives, feasibility):
            self.tell(config, objective, feasible)

    def _make_surrogate(self):
        return RandomForestSurrogate(random_state=int(self.rng.integers(0, 2**31 - 1)))


class MultiObjectiveBayesianOptimizer(BayesianOptimizer):
    """Multi-objective optimiser using random scalarisations per suggestion."""

    def __init__(self, space: ParameterSpace, *, n_objectives: int = 2, **kwargs) -> None:
        super().__init__(space, **kwargs)
        if n_objectives < 1:
            raise ValueError("n_objectives must be >= 1")
        self.n_objectives = n_objectives

    def tell(self, config: dict, objectives, feasible: bool = True) -> None:
        """Record a multi-objective evaluation."""
        objectives = np.atleast_1d(np.asarray(objectives, dtype=float))
        if objectives.shape[0] != self.n_objectives:
            raise ValueError(f"expected {self.n_objectives} objectives")
        self.history.observations.append(
            Observation(config=dict(config), objectives=objectives, feasible=feasible)
        )

    def _ask_one(self, pending: list[dict]) -> dict:
        if len(self.history) < self.n_initial:
            return self.space.sample(self.rng)

        X = self.history.encoded(self.space)
        raw_objectives = self.history.objective_matrix()
        feasible = self.history.feasibility()

        # Normalise each objective to [0, 1]; infeasible points are pushed to 0.
        mins = raw_objectives.min(axis=0)
        maxs = raw_objectives.max(axis=0)
        spans = np.where(maxs > mins, maxs - mins, 1.0)
        normalised = (raw_objectives - mins) / spans
        normalised[~feasible] = 0.0

        weights = random_scalarization_weights(self.n_objectives, self.rng)
        scalar = scalarize(normalised, weights)

        surrogate = self._make_surrogate()
        surrogate.fit(X, scalar)

        candidates = self.space.sample_many(self.candidate_pool, self.rng)
        return self._best_unseen(surrogate, candidates, X, float(scalar.max()), pending)
