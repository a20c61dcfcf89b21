"""Unit tests for ternary matching and range-to-ternary expansion."""

from __future__ import annotations

import pytest

from repro.switch.tcam import TernaryMatch, range_to_ternary


class TestTernaryMatch:
    def test_exact_match(self):
        match = TernaryMatch(value=5, mask=0xFF)
        assert match.matches(5)
        assert not match.matches(4)

    def test_wildcard_bits(self):
        match = TernaryMatch(value=0b1000, mask=0b1000)
        assert match.matches(0b1000)
        assert match.matches(0b1111)
        assert not match.matches(0b0111)

    def test_full_wildcard(self):
        match = TernaryMatch(value=0, mask=0)
        assert match.matches(12345)


class TestRangeToTernary:
    def _covered(self, matches, width):
        return {v for v in range(2**width) if any(m.matches(v) for m in matches)}

    @pytest.mark.parametrize(
        "low,high,width",
        [(0, 255, 8), (0, 0, 8), (255, 255, 8), (3, 17, 8), (5, 200, 8), (0, 127, 8),
         (1, 14, 4), (7, 9, 4), (2, 13, 4)],
    )
    def test_expansion_covers_exactly_the_range(self, low, high, width):
        matches = range_to_ternary(low, high, width)
        assert self._covered(matches, width) == set(range(low, high + 1))

    def test_empty_range(self):
        assert range_to_ternary(10, 5, 8) == []

    def test_full_range_single_entry(self):
        matches = range_to_ternary(0, 255, 8)
        assert len(matches) == 1
        assert matches[0].mask == 0

    def test_single_value_single_entry(self):
        matches = range_to_ternary(42, 42, 8)
        assert len(matches) == 1

    def test_entry_count_bounded_by_2w(self):
        # Classic result: a w-bit range needs at most 2w - 2 prefixes.
        width = 8
        matches = range_to_ternary(1, 254, width)
        assert len(matches) <= 2 * width

    def test_values_clipped_to_width(self):
        matches = range_to_ternary(0, 10_000, 8)
        assert self._covered(matches, 8) == set(range(0, 256))

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            range_to_ternary(0, 1, 0)
