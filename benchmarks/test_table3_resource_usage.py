"""Table 3 — model performance versus resource usage on Tofino1.

For each dataset and flow target, report the chosen SpliDT model's F1, its
realised depth / partition count, the number of distinct features, TCAM
entries and the per-flow feature-register footprint, next to NetBeacon and
Leo.  Expected shape: SpliDT reaches higher F1 with many more total features
at an equal or smaller register footprint.
"""

from __future__ import annotations

from bench_common import FLOW_TARGETS, baseline_at_flows, best_splidt_at_flows, get_store, write_result
from repro.analysis import render_table
from repro.core import PartitionedDecisionTree

DATASETS = ("D1", "D2", "D3", "D4", "D5", "D6", "D7")


def _cells(candidate) -> list[str]:
    """F1, depth, #features, #TCAM entries and register bits of any system's candidate."""
    if candidate is None:
        return ["-", "-", "-", "-", "-"]
    model = candidate.model
    if isinstance(model, PartitionedDecisionTree):
        depth = f"{model.total_depth}/{model.n_partitions}"
    else:
        depth = str(model.depth)
    return [
        f"{candidate.report.f1_score:.2f}",
        depth,
        str(len(model.features_used())),
        str(candidate.resources.tcam_entries),
        str(candidate.resources.layout.feature_bits),
    ]


def _run() -> str:
    rows = []
    for key in DATASETS:
        store = get_store(key)
        for n_flows in FLOW_TARGETS:
            splidt = best_splidt_at_flows(store, n_flows)
            netbeacon = baseline_at_flows(store, "netbeacon", n_flows)
            leo = baseline_at_flows(store, "leo", n_flows)
            rows.append(
                [key, f"{n_flows:,}"] + _cells(netbeacon) + _cells(leo) + _cells(splidt)
            )
    headers = ["Data", "#Flows"]
    for system in ("NB", "Leo", "SpliDT"):
        headers += [f"{system} F1", f"{system} Depth", f"{system} #Feat", f"{system} #TCAM", f"{system} RegBits"]
    return render_table(headers, rows)


def test_table3_resource_usage(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    write_result("table3_resource_usage", table)
    assert "SpliDT F1" in table
