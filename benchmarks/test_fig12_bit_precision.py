"""Figure 12 — the D3 Pareto frontier at 32-, 16- and 8-bit feature precision.

Lowering feature precision shrinks the per-flow register footprint, roughly
doubling (16-bit) and quadrupling (8-bit) the supported flow count, at the
cost of a modest F1 drop.  Expected shape: max supported flows grows as the
precision falls, F1 falls slightly, and SpliDT retains more features than a
top-k baseline at every precision.
"""

from __future__ import annotations

from bench_common import baseline_at_flows, evaluate_splidt_config, get_store, write_result
from repro.analysis import render_table

PRECISIONS = (32, 16, 8)


def _run() -> str:
    store = get_store("D3")
    rows = []
    netbeacon = baseline_at_flows(store, "netbeacon", 100_000)
    for bit_width in PRECISIONS:
        candidate = evaluate_splidt_config(store, depth=9, k=4, partitions=3, bit_width=bit_width)
        rows.append(
            [
                f"SpliDT ({bit_width}-bit)",
                f"{candidate.f1_score:.3f}",
                f"{candidate.resources.layout.feature_bits}",
                f"{candidate.max_flows:,}",
                str(len(candidate.model.features_used())),
            ]
        )
    if netbeacon is not None:
        rows.append(
            [
                "NetBeacon (32-bit)",
                f"{netbeacon.report.f1_score:.3f}",
                str(netbeacon.resources.layout.feature_bits),
                "100,000",
                str(len(netbeacon.model.features_used())),
            ]
        )
    return render_table(
        ["Model", "F1", "Feature register bits/flow", "Max flows", "#Features"], rows
    )


def test_fig12_bit_precision(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    write_result("fig12_bit_precision", table)
    assert "SpliDT (8-bit)" in table
