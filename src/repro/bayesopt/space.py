"""Parameter-space definitions for the design-space exploration.

The design search's knobs (depth, features per subtree, partitions) are
integers: :class:`IntegerParameter` samples them and encodes them onto
``[0, 1]`` for the surrogate, and :class:`ParameterSpace` does the same for a
whole configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class IntegerParameter:
    """Uniform integer parameter over ``[low, high]`` (inclusive)."""

    name: str
    low: int
    high: int

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ValueError("high must be >= low")

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.low, self.high + 1))

    def encode(self, value: int) -> float:
        if self.high == self.low:
            return 0.0
        return (float(value) - self.low) / (self.high - self.low)


class ParameterSpace:
    """An ordered collection of parameters."""

    def __init__(self, parameters: list[IntegerParameter]) -> None:
        if not parameters:
            raise ValueError("parameter space must not be empty")
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise ValueError("parameter names must be unique")
        self.parameters = list(parameters)

    def sample(self, rng: np.random.Generator) -> dict:
        """Draw a random configuration."""
        return {p.name: p.sample(rng) for p in self.parameters}

    def sample_many(self, n: int, rng: np.random.Generator) -> list[dict]:
        """Draw ``n`` random configurations."""
        return [self.sample(rng) for _ in range(n)]

    def encode(self, config: dict) -> np.ndarray:
        """Encode a configuration as a vector in the unit hypercube."""
        return np.array([p.encode(config[p.name]) for p in self.parameters], dtype=float)
