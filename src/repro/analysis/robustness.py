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
from repro.dataplane import vectorized as vz
from repro.dataplane.runtime import ReplayResult, build_replay_result
from repro.dataplane.splidt_program import SpliDTDataPlane
from repro.datasets.flows import FlowDataset


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
    """Replay ``dataset`` in arrival order, advertising ``scale``× the true flow size."""
    program = SpliDTDataPlane(model, rules, flow_slots=flow_slots)
    spoofed = [max(int(round(flow.n_packets * scale)), 1) for flow in dataset.flows]
    vz.replay_arrays(program, dataset.flows, dataset.packet_arrays(), sizes=spoofed)
    labels = {flow.flow_id: flow.label for flow in dataset.flows}
    return build_replay_result(program.verdicts, labels, program.recirculation_stats())


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
