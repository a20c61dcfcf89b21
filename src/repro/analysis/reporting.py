"""Plain-text table rendering matching the paper's result tables.

The benchmark harness prints the same rows the paper reports (Table 5's
recirculation bandwidths, Table 4's timing breakdown) so runs can be
compared against the publication at a glance.
"""

from __future__ import annotations

from repro.core.dse import StageTimings
from repro.core.resources import UNBOUNDED_FLOWS


def render_table(headers: list[str], rows: list[list[str]]) -> str:
    """Render an aligned plain-text table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines = []
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_max_flows(max_flows: int) -> str:
    """A ``max_flows`` cell; a model that keeps nothing per flow has no bound."""
    return "unbounded" if max_flows == UNBOUNDED_FLOWS else f"{max_flows:,}"


def format_recirculation_table(entries: dict[str, dict[str, dict[int, float]]]) -> str:
    """Table 5-style recirculation bandwidth table (Mbps)."""
    headers = ["Environment", "Dataset", "100K", "500K", "1M"]
    rows = []
    for environment, datasets in entries.items():
        for dataset, by_flows in datasets.items():
            row = [environment, dataset]
            for flows in (100_000, 500_000, 1_000_000):
                value = by_flows.get(flows)
                row.append(f"{value:.1f}" if value is not None else "-")
            rows.append(row)
    return render_table(headers, rows)


def format_timings_table(timings: dict[str, StageTimings]) -> str:
    """Table 4-style per-iteration timing breakdown (seconds)."""
    headers = ["Stage"] + list(timings.keys())
    stage_names = ["fetch", "training", "optimizer", "rulegen", "backend", "total"]
    rows = []
    for stage in stage_names:
        row = [stage.capitalize()]
        for dataset in timings:
            timing = timings[dataset]
            value = timing.total if stage == "total" else getattr(timing, stage)
            row.append(f"{value:.3f}s")
        rows.append(row)
    return render_table(headers, rows)
