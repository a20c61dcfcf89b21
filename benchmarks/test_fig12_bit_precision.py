"""Figure 12 — the D3 Pareto frontier at 32-, 16- and 8-bit feature precision.

Lowering feature precision shrinks the per-flow register footprint, roughly
doubling (16-bit) and quadrupling (8-bit) the supported flow count, at the
cost of a modest F1 drop.  A reduced-precision model trains on
``WindowedDataset.with_precision``: every feature value stands in for the
level the switch's rules match, so "F1" (offline, on the test windows) and
"Deployed F1" (the test flows replayed through the compiled rules) agree.
Expected shape: max supported flows grows as the precision falls, F1 falls
slightly, and SpliDT retains more features than a top-k baseline at every
precision.
"""

from __future__ import annotations

from bench_common import (
    baseline_at_flows,
    evaluate_splidt_config,
    get_store,
    run_replay,
    write_result,
)
from repro.analysis import render_table
from repro.datasets import FlowDataset
from repro.pipeline import ExperimentSpec, get_system

PRECISIONS = (32, 16, 8)


def _deployed_f1(store, system: str, model, rules, spec: ExperimentSpec) -> float:
    """F1 of the test flows replayed through ``system``'s program for ``rules``."""
    dataset = store.dataset
    test_flows = FlowDataset(
        dataset.name,
        dataset.description,
        [dataset.flows[i] for i in store.fetch(3).test_indices],
        list(dataset.class_names),
    )
    program = get_system(system).build_program(model, rules, spec)
    return run_replay(program, test_flows).report.f1_score


def _run() -> str:
    store = get_store("D3")
    rows = []
    netbeacon = baseline_at_flows(store, "netbeacon", 100_000)
    for bit_width in PRECISIONS:
        candidate = evaluate_splidt_config(store, depth=9, k=4, partitions=3, bit_width=bit_width)
        spec = ExperimentSpec(bit_width=bit_width)
        rows.append(
            [
                f"SpliDT ({bit_width}-bit)",
                f"{candidate.report.f1_score:.3f}",
                f"{_deployed_f1(store, 'splidt', candidate.model, candidate.rules, spec):.3f}",
                f"{candidate.resources.layout.feature_bits}",
                f"{candidate.max_flows:,}",
                str(len(candidate.model.features_used())),
            ]
        )
    if netbeacon is not None:
        spec = ExperimentSpec(system="netbeacon")
        rules = get_system("netbeacon").compile(netbeacon, store.fetch(3), spec)
        rows.append(
            [
                "NetBeacon (32-bit)",
                f"{netbeacon.report.f1_score:.3f}",
                f"{_deployed_f1(store, 'netbeacon', netbeacon, rules, spec):.3f}",
                str(netbeacon.resources.layout.feature_bits),
                "100,000",
                str(len(netbeacon.model.features_used())),
            ]
        )
    return render_table(
        ["Model", "F1", "Deployed F1", "Feature register bits/flow", "Max flows", "#Features"],
        rows,
    )


def test_fig12_bit_precision(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    write_result("fig12_bit_precision", table)
    assert "SpliDT (8-bit)" in table
