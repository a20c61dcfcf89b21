"""Unit tests for the TCAM model and range-to-ternary expansion."""

from __future__ import annotations

import math
import random

import pytest

from repro.switch.tcam import TcamEntry, TcamTable, TernaryMatch, range_to_ternary


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


class TestTcamTable:
    def _table(self) -> TcamTable:
        table = TcamTable(name="t", key_fields={"value": 8})
        table.add_entry(
            TcamEntry(fields={"value": TernaryMatch(0, 0xF0)}, priority=1, action="low")
        )
        table.add_entry(
            TcamEntry(fields={"value": TernaryMatch(0, 0)}, priority=0, action="default")
        )
        return table

    def test_priority_order(self):
        table = self._table()
        assert table.lookup({"value": 5}).action == "low"
        assert table.lookup({"value": 200}).action == "default"

    def test_miss_returns_none(self):
        table = TcamTable(name="t", key_fields={"value": 8})
        assert table.lookup({"value": 1}) is None

    def test_unknown_field_rejected(self):
        table = TcamTable(name="t", key_fields={"value": 8})
        with pytest.raises(ValueError):
            table.add_entry(TcamEntry(fields={"other": TernaryMatch(0, 0)}, priority=0, action="a"))

    def test_memory_accounting(self):
        table = self._table()
        assert table.key_width_bits == 8
        assert table.memory_bits(entry_overhead_bits=16) == (2 * 8 + 16) * 2

    def test_lookup_statistics(self):
        table = self._table()
        table.lookup({"value": 5})
        table.lookup({"value": 200})
        assert table.lookups == 2
        assert table.hits == 2

    def test_missing_key_field_no_match(self):
        table = self._table()
        assert table.lookup({}) is None

    def test_entries_keep_stable_descending_priority_order(self):
        # Equal priorities stay in installation order, as a stable sort of
        # the installed sequence would leave them.
        rng = random.Random(3)
        table = TcamTable(name="t", key_fields={"value": 8})
        inserted = []
        for serial in range(300):
            entry = TcamEntry(
                fields={"value": TernaryMatch(serial % 256, 0xFF)},
                priority=rng.randint(0, 9),
                action=str(serial),
            )
            inserted.append(entry)
            table.add_entry(entry)
        expected = sorted(inserted, key=lambda e: -e.priority)
        assert [e.action for e in table.entries] == [e.action for e in expected]

    def test_install_cost_is_n_log_n_priority_reads(self):
        # add_entry used to re-sort the whole table per insert: n^2 / 2 reads.
        class CountingEntry(TcamEntry):
            reads = 0

            def __getattribute__(self, name):
                if name == "priority":
                    CountingEntry.reads += 1
                return super().__getattribute__(name)

        n = 5000
        rng = random.Random(5)
        table = TcamTable(name="t", key_fields={"value": 8})
        for _ in range(n):
            table.add_entry(
                CountingEntry(
                    fields={"value": TernaryMatch(0, 0)}, priority=rng.randint(0, 50), action="a"
                )
            )
        assert table.n_entries == n
        assert CountingEntry.reads <= n * (math.ceil(math.log2(n)) + 2)
