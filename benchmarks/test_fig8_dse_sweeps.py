"""Figure 8 — Pareto frontiers under fixed depth, partitions, and features/subtree.

Three sweeps over the SpliDT hyper-parameters, reported for D1–D3:

* (a) fixed tree depth (10 / 20 / 30): deeper trees generally help at low
  flow counts;
* (b) fixed number of partitions (1 / 3 / 5): fewer partitions give each
  subtree more packets per window and often a better frontier;
* (c) fixed features per subtree (1 / 2 / 3): more features improve F1 but
  shrink the supported flow count.
"""

from __future__ import annotations

from bench_common import (
    evaluate_splidt_config,
    get_store,
    write_result,
)
from repro.analysis import render_table

DATASETS = ("D1", "D2", "D3")


def _sweep_depth() -> list[list[str]]:
    rows = []
    for key in DATASETS:
        store = get_store(key)
        for depth in (10, 20, 30):
            candidate = evaluate_splidt_config(store, depth=depth, k=3, partitions=5)
            rows.append(
                ["(a) depth", key, str(depth),
                 f"{candidate.report.f1_score:.3f}", f"{candidate.max_flows:,}"]
            )
    return rows


def _sweep_partitions() -> list[list[str]]:
    rows = []
    for key in DATASETS:
        store = get_store(key)
        for partitions in (1, 3, 5):
            candidate = evaluate_splidt_config(store, depth=10, k=3, partitions=partitions)
            rows.append(
                ["(b) partitions", key, str(partitions),
                 f"{candidate.report.f1_score:.3f}", f"{candidate.max_flows:,}"]
            )
    return rows


def _sweep_features() -> list[list[str]]:
    rows = []
    for key in DATASETS:
        store = get_store(key)
        for k in (1, 2, 3):
            candidate = evaluate_splidt_config(store, depth=9, k=k, partitions=3)
            rows.append(
                ["(c) features/subtree", key, str(k),
                 f"{candidate.report.f1_score:.3f}", f"{candidate.max_flows:,}"]
            )
    return rows


def _run() -> str:
    rows = _sweep_depth() + _sweep_partitions() + _sweep_features()
    return render_table(["Sweep", "Dataset", "Value", "F1", "Max flows"], rows)


def test_fig8_dse_sweeps(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    write_result("fig8_dse_sweeps", table)
    assert "(c) features/subtree" in table
