"""Figure 6 — Pareto frontier (F1 vs #flows): SpliDT vs NetBeacon vs Leo, D1–D7.

Each cell is the test F1 of the system's model of best validation F1 among
those feasible at the flow target: NetBeacon's and Leo's (k, depth) grids,
and every uniform configuration of ``BENCH_SPACE`` at 32, 16 and 8 bits for
SpliDT.  A cell can only fall as the target grows if a feasible model of
higher validation F1 drops out; test F1 need not follow validation F1.
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
                    f"{splidt.report.f1_score:.3f}" if splidt else "-",
                ]
            )
    return render_table(["Dataset", "#Flows", "NetBeacon", "Leo", "SpliDT"], rows)


def test_fig6_pareto_frontier(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    write_result("fig6_pareto_frontier", table)
    assert "SpliDT" in table
