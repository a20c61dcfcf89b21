"""Figure 2 — SpliDT and top-k (k ≤ 7) versus the ideal unlimited model.

The paper's motivating figure: on D1–D3, a top-k model's F1 saturates well
below a model with access to all features, while SpliDT approaches the ideal.
Measured here, per dataset and flow target, is the test F1 of each system's
model of best validation F1 among those feasible at the target: NetBeacon's
(k, depth) grid for Top-k, and every uniform configuration of
``BENCH_SPACE`` at 32, 16 and 8 bits for SpliDT.  Per-packet is that
selection at 100K flows (its models keep no per-flow state).  Ideal is one
fixed model, not a selection: a depth-20 tree over every feature of three
windows, trained on the whole train split.
"""

from __future__ import annotations

from bench_common import FLOW_TARGETS, baseline_at_flows, best_splidt_at_flows, get_store, ideal_f1, write_result
from repro.analysis import render_table

DATASETS = ("D1", "D2", "D3")


def _run() -> str:
    rows = []
    for key in DATASETS:
        store = get_store(key)
        ideal = ideal_f1(store)
        per_packet = baseline_at_flows(store, "per_packet", 100_000)
        for n_flows in FLOW_TARGETS:
            splidt = best_splidt_at_flows(store, n_flows)
            topk = baseline_at_flows(store, "netbeacon", n_flows)
            rows.append(
                [
                    key,
                    f"{n_flows:,}",
                    f"{topk.report.f1_score:.3f}" if topk else "-",
                    f"{splidt.report.f1_score:.3f}" if splidt else "-",
                    f"{ideal:.3f}",
                    f"{per_packet.report.f1_score:.3f}" if per_packet else "-",
                ]
            )
    return render_table(
        ["Dataset", "#Flows", "Top-k", "SpliDT", "Ideal", "Per-packet"], rows
    )


def test_fig2_topk_vs_splidt(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    write_result("fig2_topk_vs_splidt", table)
    assert "SpliDT" in table
