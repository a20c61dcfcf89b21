"""Analysis and reporting helpers (tables, frontiers, TTD, robustness)."""

from repro.analysis.reporting import (
    format_max_flows,
    format_recirculation_table,
    format_timings_table,
    render_table,
)
from repro.analysis.robustness import SpoofingResult, evaluate_flow_size_spoofing
from repro.analysis.streaming import RollingReport, RollingTTD
from repro.analysis.ttd import summarize_ttd

__all__ = [
    "RollingReport",
    "RollingTTD",
    "SpoofingResult",
    "evaluate_flow_size_spoofing",
    "format_max_flows",
    "format_recirculation_table",
    "format_timings_table",
    "render_table",
    "summarize_ttd",
]
