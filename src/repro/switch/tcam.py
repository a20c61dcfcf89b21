"""Ternary (TCAM) matching.

A TCAM entry matches a key against a (value, mask) pair: bits where the mask
is 0 are wildcards.  :func:`range_to_ternary` is the classic prefix expansion
of an integer range into such pairs, which is what the range-marking
algorithm uses to turn feature thresholds into TCAM rules; what the rules
cost in TCAM bits is :meth:`repro.core.range_marking.RuleSet.tcam_bits`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TernaryMatch:
    """One ternary key: ``key & mask == value & mask``."""

    value: int
    mask: int

    def matches(self, key: int) -> bool:
        """Whether ``key`` matches this value/mask pair."""
        return (key & self.mask) == (self.value & self.mask)


def prefix_cover_size(low: int, high: int) -> int:
    """``len(range_to_ternary(low, high, width))`` for ``0 <= low <= high < 2**width``.

    The greedy cover climbs from ``low`` to the aligned boundary ``split``
    with one block per set bit of ``split - low``, then descends to ``high``
    with one per set bit of ``high + 1 - split``; ``split`` is ``high`` with
    every bit below the highest one where ``low`` and ``high`` differ
    cleared.  The two halves merge only when the range is itself one
    aligned block.
    """
    span = (low ^ high).bit_length()
    if low & ((1 << span) - 1) == 0 and high - low + 1 == 1 << span:
        return 1
    split = high >> (span - 1) << (span - 1)
    return (split - low).bit_count() + (high + 1 - split).bit_count()


def range_to_ternary(low: int, high: int, width: int) -> list[TernaryMatch]:
    """Expand the inclusive integer range ``[low, high]`` into ternary matches.

    This is standard prefix expansion: the range is covered by the minimal set
    of aligned power-of-two blocks, each of which is one (value, mask) pair.
    ``width`` bounds the key width; values outside ``[0, 2**width - 1]`` are
    clipped.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    max_value = (1 << width) - 1
    low = max(0, min(low, max_value))
    high = max(0, min(high, max_value))
    if high < low:
        return []

    matches = []
    cursor = low
    while cursor <= high:
        # Largest aligned block starting at cursor that stays within the range.
        block = 1
        while True:
            next_block = block * 2
            if cursor % next_block != 0:
                break
            if cursor + next_block - 1 > high:
                break
            block = next_block
        mask = max_value & ~(block - 1)
        matches.append(TernaryMatch(value=cursor, mask=mask))
        cursor += block
    return matches
