"""Unit tests for the BO parameter space."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bayesopt.space import IntegerParameter, ParameterSpace


class TestParameters:
    def test_integer_sample_in_range(self):
        parameter = IntegerParameter("d", 1, 10)
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert 1 <= parameter.sample(rng) <= 10

    def test_integer_degenerate_range(self):
        parameter = IntegerParameter("d", 5, 5)
        assert parameter.encode(5) == 0.0

    def test_integer_invalid_range(self):
        with pytest.raises(ValueError):
            IntegerParameter("d", 5, 1)


class TestParameterSpace:
    def _space(self) -> ParameterSpace:
        return ParameterSpace(
            [IntegerParameter("depth", 1, 20), IntegerParameter("k", 1, 6),
             IntegerParameter("partitions", 1, 7)]
        )

    def test_sample_has_all_names(self):
        config = self._space().sample(np.random.default_rng(0))
        assert set(config) == {"depth", "k", "partitions"}

    def test_sample_many(self):
        configs = self._space().sample_many(5, np.random.default_rng(0))
        assert len(configs) == 5

    def test_encode_shape_and_range(self):
        space = self._space()
        vector = space.encode({"depth": 10, "k": 3, "partitions": 4})
        assert vector.shape == (3,)
        assert np.all((0 <= vector) & (vector <= 1))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ParameterSpace([IntegerParameter("a", 0, 1), IntegerParameter("a", 0, 1)])

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            ParameterSpace([])
