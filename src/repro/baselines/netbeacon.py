"""NetBeacon baseline (Zhou et al., USENIX Security 2023).

NetBeacon deploys one-shot decision trees with a global top-k stateful
feature set and compresses the tree into ternary rules with the range-marking
encoding (the same encoding SpliDT borrows per subtree).  Its flow scalability
is bounded by the per-flow register cost of the k features; its feature
coverage is bounded by k.

NetBeacon's artifact infers at *phase* boundaries whose intervals grow
exponentially (2, 4, 8, … packets) while retaining flow statistics across
phases, and each inference overwrites the one before.  Here a NetBeacon
verdict is the inference at the flow's last packet, over whole-flow
statistics: the deployed program is the one-partition model
:func:`~repro.baselines.topk.exit_tree`, and time to detection is measured at
that packet.
"""

from __future__ import annotations

from repro.baselines.topk import TopKModel
from repro.core.resources import TableCost, range_marking_cost
from repro.datasets.materialize import WindowedDataset
from repro.switch.targets import TargetSpec


def netbeacon_table_cost(
    model: TopKModel, windowed: WindowedDataset, target: TargetSpec
) -> TableCost:
    """NetBeacon's cost model: the tree compiled with the range-marking encoding."""
    return range_marking_cost(model.generate_rules(windowed.flow_matrix("train")), target)
