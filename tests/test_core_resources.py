"""Unit tests for resource estimation and feasibility testing."""

from __future__ import annotations

import pytest

from repro.core.resources import (
    DEPENDENCY_REGISTER_BITS,
    RESERVED_BITS,
    baseline_register_bits_vs_features,
    check_feasibility,
    estimate_splidt_resources,
    flow_capacity,
    register_bits_vs_features,
    splidt_register_layout,
    stages_for_tables,
    topk_register_layout,
)
from repro.datasets.workloads import WORKLOADS
from repro.features.definitions import FEATURES_BY_NAME
from repro.switch.targets import BLUEFIELD3, TARGETS, TOFINO1, TOFINO2


class TestRegisterLayouts:
    def test_splidt_feature_bits_depend_only_on_k(self, splidt_model):
        layout = splidt_register_layout(splidt_model)
        expected = splidt_model.config.features_per_subtree * splidt_model.config.bit_width
        assert layout.feature_bits == expected

    def test_splidt_total_includes_reserved(self, splidt_model):
        layout = splidt_register_layout(splidt_model)
        assert layout.total_bits == layout.feature_bits + RESERVED_BITS + layout.dependency_bits

    def test_splidt_lower_precision_smaller_layout(self, splidt_model):
        wide = splidt_register_layout(splidt_model, bit_width=32)
        narrow = splidt_register_layout(splidt_model, bit_width=8)
        assert narrow.feature_bits < wide.feature_bits

    def test_topk_layout_scales_with_feature_count(self):
        pkt = FEATURES_BY_NAME["pkt_count"].index
        syn = FEATURES_BY_NAME["syn_count"].index
        small = topk_register_layout([pkt])
        large = topk_register_layout([pkt, syn])
        assert large.feature_bits == small.feature_bits + 32

    def test_topk_dependency_bits_from_features(self):
        iat = FEATURES_BY_NAME["std_iat"].index
        layout = topk_register_layout([iat])
        assert layout.dependency_bits == 3 * DEPENDENCY_REGISTER_BITS


class TestStagesAndCapacity:
    def test_stage_count_grows_with_dependencies(self):
        base = stages_for_tables(features_per_subtree=4, dependency_stages=0, target=TOFINO1)
        chained = stages_for_tables(features_per_subtree=4, dependency_stages=3, target=TOFINO1)
        assert chained == base + 3

    def test_stage_count_within_target(self):
        stages = stages_for_tables(features_per_subtree=6, dependency_stages=3, target=TOFINO1)
        assert stages <= TOFINO1.n_stages

    def test_flow_capacity_decreases_with_per_flow_bits(self, splidt_model):
        small = splidt_register_layout(splidt_model, bit_width=8)
        large = splidt_register_layout(splidt_model, bit_width=32)
        capacity_small = flow_capacity(small, target=TOFINO1, stages_for_logic=5)
        capacity_large = flow_capacity(large, target=TOFINO1, stages_for_logic=5)
        assert capacity_small > capacity_large

    def test_flow_capacity_decreases_with_logic_stages(self, splidt_model):
        layout = splidt_register_layout(splidt_model)
        fewer = flow_capacity(layout, target=TOFINO1, stages_for_logic=4)
        more = flow_capacity(layout, target=TOFINO1, stages_for_logic=8)
        assert fewer > more

    def test_flow_capacity_larger_on_bigger_target(self, splidt_model):
        layout = splidt_register_layout(splidt_model)
        assert flow_capacity(layout, target=TOFINO2, stages_for_logic=5) > flow_capacity(
            layout, target=BLUEFIELD3, stages_for_logic=5
        )


class TestResourceEstimate:
    def test_estimate_fields(self, splidt_model, splidt_rules):
        estimate = estimate_splidt_resources(
            splidt_model, splidt_rules, target=TOFINO1, workloads=WORKLOADS
        )
        assert estimate.max_flows > 0
        assert estimate.tcam_entries == splidt_rules.n_entries
        assert estimate.n_subtrees == splidt_model.n_subtrees
        assert set(estimate.recirculation) == {"WS", "HD"}

    def test_supports_paper_scale_flow_counts(self, splidt_model, splidt_rules):
        # A k=4 model must support at least the paper's smallest target (100K).
        estimate = estimate_splidt_resources(splidt_model, splidt_rules, target=TOFINO1)
        assert estimate.max_flows >= 100_000

    def test_feasibility_accepts_supported_flow_count(self, splidt_model, splidt_rules):
        estimate = estimate_splidt_resources(splidt_model, splidt_rules, target=TOFINO1)
        verdict = check_feasibility(estimate, n_flows=min(estimate.max_flows, 100_000))
        assert verdict.feasible
        assert verdict.violations == []

    def test_feasibility_rejects_excessive_flow_count(self, splidt_model, splidt_rules):
        estimate = estimate_splidt_resources(splidt_model, splidt_rules, target=TOFINO1)
        verdict = check_feasibility(estimate, n_flows=estimate.max_flows * 10)
        assert not verdict.feasible
        assert any("register budget" in violation for violation in verdict.violations)

    @pytest.mark.parametrize("target", TARGETS.values(), ids=list(TARGETS))
    def test_register_stages_give_max_flows(self, splidt_model, splidt_rules, target):
        estimate = estimate_splidt_resources(splidt_model, splidt_rules, target=target)
        assert 0 < estimate.stages_for_registers < target.n_stages
        assert estimate.max_flows == int(
            estimate.stages_for_registers * target.register_bits_per_stage
            // estimate.layout.total_bits
        )
        assert check_feasibility(estimate, n_flows=estimate.max_flows).feasible
        assert not check_feasibility(estimate, n_flows=estimate.max_flows + 1).feasible

    def test_recirculation_tiny_fraction_of_capacity(self, splidt_model, splidt_rules):
        estimate = estimate_splidt_resources(
            splidt_model, splidt_rules, target=TOFINO1, workloads=WORKLOADS,
            concurrent_flows=1_000_000,
        )
        for recirc in estimate.recirculation.values():
            assert recirc.fraction_of_capacity < 0.01


class TestFigure11Model:
    def test_splidt_register_bits_constant_beyond_k(self):
        bits = register_bits_vs_features([1, 2, 4, 8, 16, 32], features_per_subtree=4)
        assert bits[0] == 32
        assert bits[2] == 128
        assert bits[3] == bits[4] == bits[5] == 128

    def test_baseline_register_bits_grow_linearly(self):
        bits = baseline_register_bits_vs_features([1, 2, 4, 8])
        assert bits == [32, 64, 128, 256]

    def test_splidt_never_exceeds_baseline(self):
        features = list(range(1, 20))
        splidt = register_bits_vs_features(features, features_per_subtree=4)
        baseline = baseline_register_bits_vs_features(features)
        assert all(s <= b for s, b in zip(splidt, baseline))
