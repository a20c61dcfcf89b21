"""Figure 6 — Pareto frontier (F1 vs #flows): SpliDT vs NetBeacon vs Leo, D1–D7.

Expected shape: for every dataset and flow count SpliDT's F1 matches or
exceeds both baselines, and every system's F1 decreases as the flow target
grows (resources per flow shrink).
"""

from __future__ import annotations

from bench_common import (
    FLOW_TARGETS,
    baseline_at_flows,
    best_splidt_at_flows,
    get_store,
    write_result,
)
from repro.analysis import render_table
from repro.datasets import DATASET_KEYS


def _run() -> str:
    rows = []
    for key in DATASET_KEYS:
        store = get_store(key)
        for n_flows in FLOW_TARGETS:
            netbeacon = baseline_at_flows(store, "netbeacon", n_flows)
            leo = baseline_at_flows(store, "leo", n_flows)
            splidt = best_splidt_at_flows(store, n_flows)
            rows.append(
                [
                    key,
                    f"{n_flows:,}",
                    f"{netbeacon.report.f1_score:.3f}" if netbeacon else "-",
                    f"{leo.report.f1_score:.3f}" if leo else "-",
                    f"{splidt.f1_score:.3f}" if splidt else "-",
                ]
            )
    return render_table(["Dataset", "#Flows", "NetBeacon", "Leo", "SpliDT"], rows)


def test_fig6_pareto_frontier(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    write_result("fig6_pareto_frontier", table)
    assert "SpliDT" in table
