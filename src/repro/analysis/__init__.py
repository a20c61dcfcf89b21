"""Analysis and reporting helpers (tables, frontiers, TTD, robustness).

Verdicts are scored against ground truth in one place,
:func:`repro.dataplane.runtime.score_verdicts`, for finished replays and
live serving sessions alike; :func:`summarize_ttd` summarises their
``time_to_detection()`` column.
"""

from repro.analysis.reporting import (
    format_max_flows,
    format_recirculation_table,
    format_timings_table,
    render_table,
)
from repro.analysis.robustness import SpoofingResult, evaluate_flow_size_spoofing
from repro.analysis.ttd import summarize_ttd

__all__ = [
    "SpoofingResult",
    "evaluate_flow_size_spoofing",
    "format_max_flows",
    "format_recirculation_table",
    "format_timings_table",
    "render_table",
    "summarize_ttd",
]
