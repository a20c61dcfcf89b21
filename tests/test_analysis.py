"""Unit tests for the reporting/analysis helpers."""

from __future__ import annotations

import numpy as np

from repro.analysis import (
    format_recirculation_table,
    format_timings_table,
    render_table,
    summarize_ttd,
)
from repro.core.dse import StageTimings


class TestRenderTable:
    def test_contains_headers_and_rows(self):
        text = render_table(["a", "b"], [["1", "2"], ["3", "4"]])
        assert "a" in text and "b" in text
        assert "3" in text and "4" in text
        assert len(text.splitlines()) == 4

    def test_column_alignment(self):
        text = render_table(["name", "v"], [["x", "1"], ["longer", "2"]])
        lines = text.splitlines()
        assert len(set(line.index("1") if "1" in line else len(lines[0]) for line in lines[2:3])) == 1


class TestFormatters:
    def test_recirculation_table(self):
        table = format_recirculation_table(
            {"WS": {"D3": {100_000: 1.0, 500_000: 12.2, 1_000_000: 19.5}}}
        )
        assert "WS" in table and "D3" in table and "12.2" in table

    def test_timings_table(self):
        timings = {"D3": StageTimings(fetch=0.1, training=1.0, optimizer=0.2, rulegen=0.05, backend=0.01)}
        table = format_timings_table(timings)
        assert "Training" in table
        assert "Total" in table


class TestSummarizeTtd:
    def test_summary_statistics(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
        summary = summarize_ttd(values)
        assert summary["median"] == 3.0
        assert summary["max"] == 100.0
        assert summary["p90"] >= summary["median"]
        assert summary["p99"] >= summary["p90"]

    def test_empty(self):
        summary = summarize_ttd(np.array([]))
        assert summary["mean"] == 0.0
