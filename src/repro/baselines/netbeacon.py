"""NetBeacon baseline (Zhou et al., USENIX Security 2023).

NetBeacon deploys one-shot decision trees with a global top-k stateful
feature set and compresses the tree into ternary rules with the range-marking
encoding (the same encoding SpliDT borrows per subtree).  Its flow scalability
is bounded by the per-flow register cost of the k features; its feature
coverage is bounded by k.

NetBeacon performs inference at *phase* boundaries whose intervals grow
exponentially (2, 4, 8, … packets) while retaining flow statistics across
phases, so the model always sees cumulative (whole-flow) statistics — which
is how the evaluation here models it.
"""

from __future__ import annotations

from repro.baselines.topk import TopKModel
from repro.core.resources import TableCost, range_marking_cost
from repro.datasets.materialize import WindowedDataset
from repro.switch.targets import TargetSpec

#: Phase boundaries (packets) used by NetBeacon's public artifact.
NETBEACON_PHASES = (2, 4, 8, 16, 32, 64, 128, 256)


def netbeacon_table_cost(
    model: TopKModel, windowed: WindowedDataset, target: TargetSpec
) -> TableCost:
    """NetBeacon's cost model: the tree compiled with the range-marking encoding."""
    return range_marking_cost(model.generate_rules(windowed.flow_matrix("train")), target)


def phase_for_packet_count(n_packets: int) -> int:
    """NetBeacon phase index (exponential boundaries) for a packet count."""
    for index, boundary in enumerate(NETBEACON_PHASES):
        if n_packets <= boundary:
            return index
    return len(NETBEACON_PHASES)
