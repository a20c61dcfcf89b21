"""Figure 9 — F1 score versus #TCAM entries for SpliDT and the baselines.

Expected shape: at any TCAM-entry budget, SpliDT's best achievable F1 is at
least as high as NetBeacon's and Leo's because its per-subtree match keys are
narrower (fewer features per key) and its leaves map to single rules.
"""

from __future__ import annotations

import numpy as np

from bench_common import baseline_at_flows, evaluate_splidt_config, get_store, write_result
from repro.analysis import render_table
from repro.core.pareto import best_at_budget

DATASETS = ("D1", "D2", "D3")
BUDGETS = (100, 1_000, 10_000, 100_000)

SPLIDT_SWEEP = ((3, 1, 1), (4, 2, 2), (6, 2, 3), (9, 3, 3), (12, 4, 3), (10, 3, 5))


def _run() -> str:
    rows = []
    for key in DATASETS:
        store = get_store(key)
        splidt_points = []
        for depth, k, partitions in SPLIDT_SWEEP:
            candidate = evaluate_splidt_config(store, depth=depth, k=k, partitions=partitions)
            splidt_points.append((candidate.rules.n_entries, candidate.f1_score))

        baseline_points = {"NetBeacon": [], "Leo": []}
        for n_flows in (100_000, 500_000, 1_000_000):
            netbeacon = baseline_at_flows(store, "netbeacon", n_flows)
            if netbeacon:
                baseline_points["NetBeacon"].append((netbeacon.resources.tcam_entries, netbeacon.report.f1_score))
            leo = baseline_at_flows(store, "leo", n_flows)
            if leo:
                baseline_points["Leo"].append((leo.resources.tcam_entries, leo.report.f1_score))

        for budget in BUDGETS:
            def best(points):
                if not points:
                    return 0.0
                costs = np.array([p[0] for p in points], dtype=float)
                values = np.array([p[1] for p in points], dtype=float)
                return float(best_at_budget(costs, np.array([budget]), values)[0])

            rows.append(
                [
                    key,
                    f"{budget:,}",
                    f"{best(baseline_points['NetBeacon']):.3f}",
                    f"{best(baseline_points['Leo']):.3f}",
                    f"{best(splidt_points):.3f}",
                ]
            )
    return render_table(["Dataset", "TCAM-entry budget", "NetBeacon", "Leo", "SpliDT"], rows)


def test_fig9_tcam_vs_f1(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    write_result("fig9_tcam_vs_f1", table)
    assert "TCAM-entry budget" in table
