"""IIsy / Planter-style stateless (per-packet) baseline.

These systems map decision trees onto match-action tables using only
per-packet header features — no per-flow registers at all.  They scale to
arbitrarily many flows but, as the paper's Figure 2 shows, their accuracy
saturates well below stateful models because they lack flow context.
"""

from __future__ import annotations

from repro.baselines.topk import TopKModel, train_topk_model
from repro.core.config import TopKConfig
from repro.core.resources import TableCost, range_marking_cost
from repro.datasets.materialize import WindowedDataset
from repro.switch.targets import TargetSpec


def per_packet_table_cost(
    model: TopKModel, windowed: WindowedDataset, target: TargetSpec
) -> TableCost:
    """Range-marking rules over per-packet features: tables only, no registers."""
    return range_marking_cost(model.generate_rules(windowed.packet_matrix("train")), target)


def train_per_packet_model(
    windowed: WindowedDataset, *, depth: int = 8, random_state: int = 0
) -> TopKModel:
    """Train a single stateless per-packet model (no search)."""
    config = TopKConfig(depth=depth, top_k=4, use_stateful=False)
    return train_topk_model(windowed, config, name="iisy", random_state=random_state)
