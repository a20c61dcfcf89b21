"""Figure 10 — time-to-detection (TTD) ECDF for D3 on the WS and HD workloads.

SpliDT's recirculation-based partitioned inference must not slow detection:
its TTD distribution should closely track the one-shot NetBeacon baseline
(both are bounded by how fast packets of the flow arrive), while SpliDT's F1
is higher.  Expected shape: similar percentiles for both systems.

NetBeacon's verdict is the inference at the flow's last packet: its program
is a one-partition ``SpliDTDataPlane`` built by the registered system, the
same program every SpliDT row runs on.
"""

from __future__ import annotations

import numpy as np

from bench_common import (
    baseline_at_flows,
    get_store,
    run_replay,
    splidt_experiment,
    write_result,
)
from repro.analysis import render_table, summarize_ttd
from repro.pipeline import ExperimentSpec, get_system

REPLAY_FLOWS = 120


def _scaled_dataset(store, time_scale: float):
    """Copy of the benchmark dataset with inter-arrival times scaled.

    The WS environment has long-lived flows (larger inter-arrival gaps), HD
    has short bursty flows — modelled by scaling packet timestamps.
    """
    from repro.datasets.flows import Flow, FlowDataset, Packet

    dataset = store.dataset
    flows = []
    for flow in dataset.flows[:REPLAY_FLOWS]:
        packets = [
            Packet(
                timestamp=packet.timestamp * time_scale,
                size=packet.size,
                flags=packet.flags,
                direction=packet.direction,
                payload=packet.payload,
            )
            for packet in flow.packets
        ]
        flows.append(
            Flow(
                five_tuple=flow.five_tuple,
                packets=packets,
                label=flow.label,
                class_name=flow.class_name,
                flow_id=flow.flow_id,
            )
        )
    return FlowDataset(dataset.name, dataset.description, flows, list(dataset.class_names))


def _run() -> str:
    store = get_store("D3")
    # Train/compile through the pipeline stages; each scaled replay below
    # gets its own freshly built program from the system adapter.
    experiment = splidt_experiment("D3", depth=9, k=4, partitions=3, flow_slots=8192)
    netbeacon = baseline_at_flows(store, "netbeacon", 100_000)
    netbeacon_system = get_system("netbeacon")
    netbeacon_spec = ExperimentSpec(system="netbeacon", flow_slots=8192)
    netbeacon_rules = netbeacon_system.compile(netbeacon, store.fetch(3), netbeacon_spec)
    rows = []
    for environment, time_scale in (("WS", 3.0), ("HD", 1.0)):
        subset = _scaled_dataset(store, time_scale)

        splidt_program = experiment.system.build_program(
            experiment.train(), experiment.compile(), experiment.spec
        )
        splidt_result = run_replay(splidt_program, subset)
        netbeacon_program = netbeacon_system.build_program(
            netbeacon, netbeacon_rules, netbeacon_spec
        )
        netbeacon_result = run_replay(netbeacon_program, subset)

        for system, result in (("SpliDT", splidt_result), ("NetBeacon", netbeacon_result)):
            summary = summarize_ttd(result.time_to_detection())
            rows.append(
                [
                    environment,
                    system,
                    f"{result.report.f1_score:.3f}",
                    f"{summary['median']*1e3:.1f}",
                    f"{summary['p90']*1e3:.1f}",
                    f"{summary['p99']*1e3:.1f}",
                ]
            )
    return render_table(
        ["Environment", "System", "F1", "Median TTD (ms)", "p90 TTD (ms)", "p99 TTD (ms)"],
        rows,
    )


def test_fig10_ttd(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    write_result("fig10_ttd", table)
    assert "Median TTD" in table
