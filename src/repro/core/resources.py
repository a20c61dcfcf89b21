"""Hardware resource estimation and feasibility testing.

This module is the analytical counterpart of the paper's "Resource
Estimation" and "Feasibility Testing" stages (Figure 5): given a trained
model and its compiled rule set, estimate

* the register layout per flow (reserved state + dependency chain + the ``k``
  feature slots),
* the pipeline stages consumed by feature collection and prediction,
* the TCAM bits consumed by the rules,
* the number of concurrent flows the remaining register budget supports, and
* the recirculation bandwidth the model generates under a datacenter
  workload,

and decide whether a (model, #flows) pairing fits a hardware target.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.partitioned_tree import PartitionedDecisionTree
from repro.core.range_marking import RuleSet, SID_BITS
from repro.datasets.workloads import (
    RecirculationEstimate,
    WorkloadProfile,
    estimate_recirculation,
)
from repro.features.definitions import FEATURES, dependency_depth
from repro.switch.targets import TargetSpec

if TYPE_CHECKING:
    from repro.baselines.pforest import PForestModel
    from repro.baselines.topk import TopKModel

#: Width of the per-window packet counter.
PACKET_COUNTER_BITS = 8

#: Bits of reserved per-flow state: subtree id + per-window packet counter.
RESERVED_BITS = SID_BITS + PACKET_COUNTER_BITS

#: Width of one dependency-chain register (a compressed timestamp delta).
DEPENDENCY_REGISTER_BITS = 8

#: ``max_flows`` of a model that keeps nothing per flow: no flow count exhausts it.
UNBOUNDED_FLOWS = sys.maxsize


@dataclass
class RegisterLayout:
    """Per-flow register layout of a model.

    Attributes:
        feature_bits: Bits for the ``k`` feature slots (the paper's
            "Register Size" column).
        reserved_bits: Bits for the SID and packet-count registers.
        dependency_bits: Bits for dependency-chain intermediates.
    """

    feature_bits: int
    reserved_bits: int
    dependency_bits: int

    @property
    def total_bits(self) -> int:
        """Total per-flow register bits."""
        return self.feature_bits + self.reserved_bits + self.dependency_bits


@dataclass
class ResourceEstimate:
    """Resource usage of one compiled model on one target."""

    target: TargetSpec
    layout: RegisterLayout
    tcam_entries: int
    tcam_bits: float
    match_key_bits: int
    stages_for_tables: int
    stages_for_registers: int
    max_flows: int
    n_features_total: int
    n_subtrees: int
    recirculation: dict[str, RecirculationEstimate] = field(default_factory=dict)


@dataclass(frozen=True)
class TableCost:
    """What a system's table layout costs on a target.

    The one part of a one-shot model's estimate its own module decides:
    NetBeacon, per-packet and pForest install range-marking rules
    (:func:`range_marking_cost`), Leo pre-allocates power-of-two blocks and
    spends ``extra_stages`` on its depth-wise layout.
    """

    entries: int
    bits: float
    match_key_bits: int
    n_tables: int = 1
    extra_stages: int = 0


@dataclass
class FeasibilityResult:
    """Verdict of the feasibility test for a (model, #flows) pairing."""

    feasible: bool
    n_flows: int
    violations: list[str] = field(default_factory=list)


def splidt_register_layout(
    model: PartitionedDecisionTree, *, bit_width: int | None = None
) -> RegisterLayout:
    """Register layout of a SpliDT model: only ``k`` slots regardless of the
    total number of features the model uses (the paper's key scaling claim).

    The dependency chain is also reused across partitions (it is cleared at
    every subtree transition), so its depth is the *maximum over subtrees*,
    not the union over the whole model.
    """
    width = bit_width if bit_width is not None else model.config.bit_width
    k = model.config.features_per_subtree
    per_subtree_chain = [
        _dependency_chain_bits(sorted(subtree.features_used()))
        for subtree in model.subtrees.values()
    ]
    dependency = max(per_subtree_chain, default=0)
    return RegisterLayout(
        feature_bits=k * width,
        reserved_bits=RESERVED_BITS,
        dependency_bits=dependency,
    )


def topk_register_layout(feature_indices: list[int], *, bit_width: int = 32) -> RegisterLayout:
    """Register layout of a one-shot top-k model: one register per stateful feature."""
    n_stateful = sum(1 for i in feature_indices if FEATURES[i].stateful)
    return RegisterLayout(
        feature_bits=n_stateful * bit_width,
        reserved_bits=RESERVED_BITS,
        dependency_bits=_dependency_chain_bits(feature_indices),
    )


def _dependency_chain_bits(feature_indices: list[int]) -> int:
    """Register bits for the dependency chain the features need."""
    stateful = [i for i in feature_indices if FEATURES[i].stateful]
    depth = dependency_depth(stateful)
    return depth * DEPENDENCY_REGISTER_BITS


def stages_for_tables(
    *,
    features_per_subtree: int,
    dependency_stages: int,
    target: TargetSpec,
) -> int:
    """Pipeline stages consumed by the program logic (not per-flow registers).

    The layout follows Figure 4: one stage for hashing + reserved state, the
    dependency chain stages, one stage for the ``k`` feature registers and
    their operator-selection MATs, one stage for the ``k`` match-key (mark)
    generator tables, and one stage for the model table.
    """
    mark_table_stages = max(1, int(np.ceil(features_per_subtree / target.max_mats_per_stage)))
    return 1 + dependency_stages + 1 + mark_table_stages + 1


def stages_reserved_for_tcam(*, features_per_subtree: int, target: TargetSpec) -> int:
    """Stages whose memory is consumed by TCAM tables and unavailable to registers.

    The hashing, dependency-chain and feature-slot stages *host* per-flow
    register arrays — that is their job — so only the match-key generator and
    model-table stages are excluded from the register capacity calculation.
    """
    mark_table_stages = max(1, int(np.ceil(features_per_subtree / target.max_mats_per_stage)))
    return mark_table_stages + 1


def flow_capacity(
    layout: RegisterLayout, *, target: TargetSpec, stages_for_logic: int
) -> int:
    """Concurrent flows supported by the register budget left after the logic.

    Register arrays for per-flow state can only live in stages not already
    saturated by the model's tables, mirroring the stage-sharing trade-off the
    paper describes (§2.1).  A layout of zero bits keeps nothing per flow, so
    no flow count exhausts it (:data:`UNBOUNDED_FLOWS`).
    """
    if layout.total_bits <= 0:
        return UNBOUNDED_FLOWS
    stages_for_registers = max(target.n_stages - stages_for_logic, 0)
    budget_bits = stages_for_registers * target.register_bits_per_stage
    return int(budget_bits // layout.total_bits)


def range_marking_cost(rules: RuleSet, target: TargetSpec) -> TableCost:
    """Table cost of rules compiled with the range-marking encoding."""
    return TableCost(
        entries=rules.n_entries,
        bits=rules.tcam_bits(target.tcam_entry_overhead_bits),
        match_key_bits=rules.max_match_key_bits,
        n_tables=len(rules.subtree_rules),
    )


def estimate_splidt_resources(
    model: PartitionedDecisionTree,
    rules: RuleSet,
    *,
    target: TargetSpec,
    workloads: dict[str, WorkloadProfile] | None = None,
    concurrent_flows: int | None = None,
    duration_moments: Callable[[WorkloadProfile, int], tuple[float, float]] | None = None,
) -> ResourceEstimate:
    """Full resource estimate for a compiled SpliDT model.

    ``duration_moments`` is handed to :func:`estimate_recirculation` (a
    design search's per-search memo of the flow-duration moments).
    """
    layout = splidt_register_layout(model)
    dependency_stages = layout.dependency_bits // DEPENDENCY_REGISTER_BITS
    logic_stages = stages_for_tables(
        features_per_subtree=model.config.features_per_subtree,
        dependency_stages=dependency_stages,
        target=target,
    )
    tcam_stages = stages_reserved_for_tcam(
        features_per_subtree=model.config.features_per_subtree, target=target
    )
    capacity = flow_capacity(layout, target=target, stages_for_logic=tcam_stages)

    recirculation: dict[str, RecirculationEstimate] = {}
    flows_for_recirc = concurrent_flows if concurrent_flows is not None else capacity
    if workloads:
        for key, workload in workloads.items():
            recirculation[key] = estimate_recirculation(
                workload,
                concurrent_flows=flows_for_recirc,
                n_partitions=model.config.n_partitions,
                duration_moments=duration_moments,
            )

    cost = range_marking_cost(rules, target)
    return ResourceEstimate(
        target=target,
        layout=layout,
        tcam_entries=cost.entries,
        tcam_bits=cost.bits,
        match_key_bits=cost.match_key_bits,
        stages_for_tables=logic_stages,
        # The stages ``capacity`` was computed over, not what the logic leaves.
        stages_for_registers=max(target.n_stages - tcam_stages, 0),
        max_flows=capacity,
        n_features_total=len(model.features_used()),
        n_subtrees=model.n_subtrees,
        recirculation=recirculation,
    )


def estimate_topk_resources(
    model: TopKModel | PForestModel, cost: TableCost, *, target: TargetSpec
) -> ResourceEstimate:
    """Resource estimate of a one-shot top-k model under its system's table cost.

    Every one-shot system (NetBeacon, Leo, per-packet, a pinned top-k tree,
    pForest) keeps one register per global stateful feature and differs only
    in ``cost``.  The stateless setting (``use_stateful=False``) keeps
    nothing per flow.
    """
    config = model.config
    if config.use_stateful:
        layout = topk_register_layout(model.feature_indices, bit_width=config.bit_width)
    else:
        layout = RegisterLayout(feature_bits=0, reserved_bits=0, dependency_bits=0)
    tcam_stages = (
        stages_reserved_for_tcam(features_per_subtree=config.top_k, target=target)
        + cost.extra_stages
    )
    logic_stages = cost.extra_stages + stages_for_tables(
        features_per_subtree=config.top_k,
        dependency_stages=layout.dependency_bits // DEPENDENCY_REGISTER_BITS,
        target=target,
    )
    return ResourceEstimate(
        target=target,
        layout=layout,
        tcam_entries=cost.entries,
        tcam_bits=cost.bits,
        match_key_bits=cost.match_key_bits,
        stages_for_tables=logic_stages,
        stages_for_registers=max(target.n_stages - tcam_stages, 0),
        max_flows=flow_capacity(layout, target=target, stages_for_logic=tcam_stages),
        n_features_total=len(model.features_used()),
        n_subtrees=cost.n_tables,
    )


def check_feasibility(
    estimate: ResourceEstimate,
    *,
    n_flows: int,
) -> FeasibilityResult:
    """Decide whether the estimated model supports ``n_flows`` on its target."""
    violations = []
    target = estimate.target

    if estimate.tcam_bits > target.tcam_bits:
        violations.append(
            f"TCAM over budget: {estimate.tcam_bits:.0f} > {target.tcam_bits:.0f} bits"
        )
    if estimate.stages_for_tables > target.n_stages:
        violations.append(
            f"logic needs {estimate.stages_for_tables} stages, target has {target.n_stages}"
        )
    if estimate.max_flows < n_flows:
        violations.append(
            f"register budget supports {estimate.max_flows} flows, {n_flows} requested"
        )
    for key, recirc in estimate.recirculation.items():
        if recirc.peak_bps > target.recirculation_bps:
            violations.append(
                f"recirculation for workload {key} exceeds the path capacity: "
                f"{recirc.peak_bps:.3e} bps"
            )

    return FeasibilityResult(feasible=not violations, n_flows=n_flows, violations=violations)


def register_bits_vs_features(
    n_features_list: list[int], *, features_per_subtree: int, bit_width: int = 32
) -> list[int]:
    """Per-flow feature-register bits as the total feature count grows (Figure 11).

    For SpliDT the footprint is constant at ``k * bit_width`` once the model
    uses at least ``k`` features; for the one-shot baselines it grows linearly
    with the number of features.
    """
    bits = []
    for n_features in n_features_list:
        effective = min(n_features, features_per_subtree)
        bits.append(effective * bit_width)
    return bits


def baseline_register_bits_vs_features(
    n_features_list: list[int], *, bit_width: int = 32
) -> list[int]:
    """Per-flow register bits for NB/Leo, which store every feature (Figure 11)."""
    return [n * bit_width for n in n_features_list]
