"""Robustness of SpliDT to spoofed flow-size information (paper §6).

SpliDT derives window boundaries from the flow-size field carried in packet
headers (Homa/NDP-style).  The paper flags this as an attack surface: a
spoofed flow size shifts window boundaries, so subtrees observe the wrong
packet windows.  :func:`evaluate_flow_size_spoofing` quantifies the effect by
replaying the same traffic through the data plane with the advertised flow
size scaled by an attacker-controlled factor and reporting the F1 degradation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.partitioned_tree import PartitionedDecisionTree
from repro.core.range_marking import RuleSet
from repro.dataplane.runtime import ReplayResult
from repro.dataplane.splidt_program import SpliDTDataPlane
from repro.datasets.flows import FlowDataset
from repro.switch.phv import make_data_phv


@dataclass
class SpoofingResult:
    """Outcome of one spoofing scenario."""

    scale: float
    f1_score: float
    decided_fraction: float
    mean_recirculations: float


def _replay_with_spoofed_size(
    model: PartitionedDecisionTree,
    rules: RuleSet,
    dataset: FlowDataset,
    *,
    scale: float,
    flow_slots: int = 8192,
) -> ReplayResult:
    """Replay ``dataset`` advertising ``scale``× the true flow size."""
    program = SpliDTDataPlane(model, rules, flow_slots=flow_slots)
    labels = {flow.flow_id: flow.label for flow in dataset.flows}
    for flow in dataset.flows:
        spoofed_size = max(int(round(flow.n_packets * scale)), 1)
        for packet in flow.packets:
            phv = make_data_phv(flow.five_tuple, packet)
            program.process_packet(phv, flow.flow_id, spoofed_size)

    import numpy as np

    from repro.core.evaluation import ClassificationReport

    verdicts = program.verdicts
    decided = [flow_id for flow_id in verdicts if flow_id in labels]
    if decided:
        y_true = np.array([labels[i] for i in decided])
        y_pred = np.array([verdicts[i].label for i in decided])
        report = ClassificationReport.from_predictions(y_true, y_pred)
    else:
        report = ClassificationReport(0.0, 0.0, 0.0, 0.0, 0, np.zeros((0, 0)))
    return ReplayResult(
        verdicts=verdicts,
        labels=labels,
        report=report,
        recirculation=program.recirculation_stats(),
    )


def replay_with_advertised_sizes(
    program: SpliDTDataPlane,
    flows,
    advertised,
    *,
    soa=None,
) -> None:
    """Replay ``soa`` through ``program`` with per-flow advertised flow sizes.

    The scenario-suite entry point for evasion workloads: packets are fed in
    global arrival order (``soa.interleave_order``) — matching the
    vectorized engine's replay order exactly — but each flow advertises
    ``advertised[flow_id]`` instead of its true packet count, shifting the
    window boundaries the subtrees observe.  Verdicts land on
    ``program.verdicts``, as with :func:`repro.dataplane.vectorized.replay_arrays`.
    """
    from repro.datasets.flows import Packet, PacketArrays

    if soa is None:
        soa = PacketArrays.from_flows(flows)
    tuples = [flows[i].five_tuple for i in range(soa.n_flows)]
    packet_flow = soa.packet_flow
    flow_ids = soa.flow_ids
    for pos in soa.interleave_order:
        pos = int(pos)
        fi = int(packet_flow[pos])
        packet = Packet(
            timestamp=float(soa.timestamps[pos]),
            size=int(soa.sizes[pos]),
            flags=int(soa.flags[pos]),
            direction=int(soa.directions[pos]),
            payload=int(soa.payloads[pos]),
        )
        phv = make_data_phv(tuples[fi], packet)
        program.process_packet(phv, int(flow_ids[fi]), int(advertised[fi]))


def evaluate_flow_size_spoofing(
    model: PartitionedDecisionTree,
    rules: RuleSet,
    dataset: FlowDataset,
    *,
    scales: tuple[float, ...] = (1.0, 0.5, 0.25, 2.0, 4.0),
    flow_slots: int = 8192,
) -> list[SpoofingResult]:
    """Measure classification quality under spoofed flow-size advertisements.

    ``scale = 1.0`` is the honest baseline; smaller scales make windows close
    early (subtrees see truncated windows and later packets are ignored),
    larger scales delay boundaries (later subtrees may never run).
    """
    results = []
    n_flows = len(dataset.flows)
    for scale in scales:
        replay = _replay_with_spoofed_size(
            model, rules, dataset, scale=scale, flow_slots=flow_slots
        )
        recirculations = replay.recirculations_per_flow()
        results.append(
            SpoofingResult(
                scale=scale,
                f1_score=replay.report.f1_score,
                decided_fraction=len(replay.verdicts) / max(n_flows, 1),
                mean_recirculations=float(recirculations.mean()) if recirculations.size else 0.0,
            )
        )
    return results
