"""Ternary content-addressable memory (TCAM) model.

TCAM entries match a key against a (value, mask) pair: bits where the mask is
0 are wildcards.  Range-marking rules and the DT model table both compile to
TCAM entries; the model here supports priority-ordered lookup and reports the
bit cost used by the resource estimator.

The module also provides the classic prefix-expansion of an integer range
into ternary (value, mask) pairs, which is what the range-marking algorithm
uses to turn feature thresholds into TCAM rules.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TernaryMatch:
    """One ternary key: ``key & mask == value & mask``."""

    value: int
    mask: int

    def matches(self, key: int) -> bool:
        """Whether ``key`` matches this value/mask pair."""
        return (key & self.mask) == (self.value & self.mask)


@dataclass
class TcamEntry:
    """A TCAM entry: per-field ternary matches, a priority and an action.

    Attributes:
        fields: Mapping from field name to its ternary match.
        priority: Higher priority wins when multiple entries match.
        action: Action name (e.g. ``"set_mark"``, ``"set_next_sid"``).
        action_data: Parameters of the action (e.g. the mark value).
    """

    fields: dict[str, TernaryMatch]
    priority: int
    action: str
    action_data: dict = field(default_factory=dict)

    def matches(self, key: dict[str, int]) -> bool:
        """Whether every field of ``key`` satisfies the entry's ternary matches."""
        for name, match in self.fields.items():
            if name not in key or not match.matches(key[name]):
                return False
        return True


@dataclass
class TcamTable:
    """A priority-ordered ternary table.

    Attributes:
        name: Table name.
        key_fields: Mapping from field name to its width in bits.
    """

    name: str
    key_fields: dict[str, int]
    entries: list[TcamEntry] = field(default_factory=list)
    lookups: int = field(default=0, init=False)
    hits: int = field(default=0, init=False)

    def add_entry(self, entry: TcamEntry) -> None:
        """Install an entry (kept sorted by descending priority)."""
        for name in entry.fields:
            if name not in self.key_fields:
                raise ValueError(f"field {name!r} not part of table {self.name!r} key")
        # After every equal priority already installed, as a stable sort would.
        insort(self.entries, entry, key=lambda e: -e.priority)

    def lookup(self, key: dict[str, int]) -> TcamEntry | None:
        """Highest-priority matching entry, or ``None`` on a miss."""
        self.lookups += 1
        for entry in self.entries:
            if entry.matches(key):
                self.hits += 1
                return entry
        return None

    @property
    def n_entries(self) -> int:
        """Number of installed entries."""
        return len(self.entries)

    @property
    def key_width_bits(self) -> int:
        """Total match-key width in bits."""
        return sum(self.key_fields.values())

    def memory_bits(self, entry_overhead_bits: int = 0) -> int:
        """TCAM bits consumed: (key + mask + overhead) per entry."""
        per_entry = 2 * self.key_width_bits + entry_overhead_bits
        return per_entry * self.n_entries


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
