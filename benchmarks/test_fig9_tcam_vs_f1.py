"""Figure 9 — F1 score versus #TCAM entries for SpliDT and the baselines.

Expected shape: at any TCAM-entry budget, SpliDT's best achievable F1 is at
least as high as NetBeacon's and Leo's because its per-subtree match keys are
narrower (fewer features per key) and its leaves map to single rules.
"""

from __future__ import annotations

from bench_common import baseline_at_flows, evaluate_splidt_config, get_store, write_result
from repro.analysis import render_table

DATASETS = ("D1", "D2", "D3")
BUDGETS = (100, 1_000, 10_000, 100_000)

SPLIDT_SWEEP = ((3, 1, 1), (4, 2, 2), (6, 2, 3), (9, 3, 3), (12, 4, 3), (10, 3, 5))


def _f1_at_budget(points, budget: int) -> float:
    """Test F1 of the best-on-validation ``(cost, candidate)`` point within ``budget``.

    0 when no point fits.
    """
    fitting = [candidate for cost, candidate in points if cost <= budget]
    best = max(fitting, key=lambda c: c.validation.f1_score, default=None)
    return best.report.f1_score if best else 0.0


def _run() -> str:
    rows = []
    for key in DATASETS:
        store = get_store(key)
        splidt_points = []
        for depth, k, partitions in SPLIDT_SWEEP:
            candidate = evaluate_splidt_config(store, depth=depth, k=k, partitions=partitions)
            splidt_points.append((candidate.rules.n_entries, candidate))

        baseline_points = {"NetBeacon": [], "Leo": []}
        for n_flows in (100_000, 500_000, 1_000_000):
            for name, system in (("NetBeacon", "netbeacon"), ("Leo", "leo")):
                candidate = baseline_at_flows(store, system, n_flows)
                if candidate:
                    baseline_points[name].append((candidate.resources.tcam_entries, candidate))

        for budget in BUDGETS:
            rows.append(
                [
                    key,
                    f"{budget:,}",
                    f"{_f1_at_budget(baseline_points['NetBeacon'], budget):.3f}",
                    f"{_f1_at_budget(baseline_points['Leo'], budget):.3f}",
                    f"{_f1_at_budget(splidt_points, budget):.3f}",
                ]
            )
    return render_table(["Dataset", "TCAM-entry budget", "NetBeacon", "Leo", "SpliDT"], rows)


def test_fig9_tcam_vs_f1(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    write_result("fig9_tcam_vs_f1", table)
    assert "TCAM-entry budget" in table
