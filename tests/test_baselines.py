"""Unit tests for the NetBeacon, Leo and per-packet baselines."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines import (
    TopKTrainer,
    evaluate_grid,
    leo_table_cost,
    leo_tcam_bits,
    leo_tcam_entries,
    netbeacon_table_cost,
    per_packet_table_cost,
    select_top_k_features,
    train_topk_model,
)
from repro.core import best_at_flows, check_feasibility
from repro.core.config import TopKConfig
from repro.core.resources import RESERVED_BITS, UNBOUNDED_FLOWS, topk_register_layout
from repro.features.definitions import FEATURES, FEATURES_BY_NAME, STATELESS_INDICES
from repro.switch.targets import TOFINO1


def grid(k_range, depth_range, **config):
    """A k-major (k, depth) grid, the order every system's candidates come in."""
    return [TopKConfig(depth=d, top_k=k, **config) for k in k_range for d in depth_range]


@pytest.fixture(scope="module")
def trainer(windowed3):
    return TopKTrainer(windowed3)


@pytest.fixture(scope="module")
def netbeacon_grid(trainer):
    """NetBeacon's registered grid, evaluated once for every test that selects from it."""
    return evaluate_grid(
        trainer, grid((1, 2, 4, 6), (4, 8, 12)), name="netbeacon",
        table_cost=netbeacon_table_cost, target=TOFINO1,
    )


class TestTopKSelection:
    def test_returns_k_features(self, windowed3):
        X = windowed3.flow_matrix("train")
        y = windowed3.split_labels("train")
        for k in (1, 3, 6):
            features = select_top_k_features(X, y, k)
            assert len(features) == k
            assert len(set(features)) == k

    def test_candidate_restriction(self, windowed3):
        X = windowed3.flow_matrix("train")
        y = windowed3.split_labels("train")
        features = select_top_k_features(X, y, 3, candidate_indices=tuple(STATELESS_INDICES))
        assert set(features) <= set(STATELESS_INDICES)

    def test_invalid_k(self, windowed3):
        with pytest.raises(ValueError):
            select_top_k_features(windowed3.flow_matrix("train"), windowed3.split_labels("train"), 0)


class TestTopKModel:
    def test_train_and_predict(self, windowed3):
        config = TopKConfig(depth=6, top_k=4)
        model = train_topk_model(windowed3, config)
        predictions = model.predict(windowed3.flow_matrix("test"))
        assert predictions.shape == (windowed3.test_indices.shape[0],)
        assert len(model.feature_indices) == 4
        assert model.features_used() <= set(model.feature_indices)

    def test_depth_respected(self, windowed3):
        model = train_topk_model(windowed3, TopKConfig(depth=3, top_k=4))
        assert model.depth <= 3

    def test_register_layout_counts_stateful_features_only(self, windowed3):
        model = train_topk_model(windowed3, TopKConfig(depth=5, top_k=4))
        stateful = [i for i in model.feature_indices if FEATURES[i].stateful]
        layout = topk_register_layout(model.feature_indices)
        assert layout.feature_bits == 32 * len(stateful)

    def test_rules_generated(self, windowed3):
        model = train_topk_model(windowed3, TopKConfig(depth=5, top_k=4))
        rules = model.generate_rules(windowed3.flow_matrix("train"))
        assert rules.n_entries > 0
        assert rules.n_model_entries == model.n_leaves

    def test_per_flow_bits_formula(self):
        counters = [FEATURES_BY_NAME[name].index for name in ("pkt_count", "syn_count")]
        layout = topk_register_layout(counters, bit_width=32)
        assert layout.total_bits == 2 * 32 + RESERVED_BITS + layout.dependency_bits

    def test_stateless_model_uses_only_stateless_features(self, windowed3):
        config = TopKConfig(depth=6, top_k=4, use_stateful=False)
        model = TopKTrainer(windowed3).fit(config, name="per_packet")
        assert set(model.feature_indices) <= set(STATELESS_INDICES)


class TestNetBeacon:
    def test_tcam_cost_positive(self, windowed3):
        model = train_topk_model(windowed3, TopKConfig(depth=6, top_k=4), name="netbeacon")
        cost = netbeacon_table_cost(model, windowed3, TOFINO1)
        assert cost.entries > 0 and cost.bits > 0

    def test_tcam_overhead_comes_from_the_target(self, windowed3):
        # Equal on all four TARGETS, so only a synthetic target can tell the
        # target's overhead from the literal 16 the cost used to assume.
        model = train_topk_model(windowed3, TopKConfig(depth=6, top_k=4), name="netbeacon")
        wide = dataclasses.replace(TOFINO1, tcam_entry_overhead_bits=48)
        base = netbeacon_table_cost(model, windowed3, TOFINO1)
        cost = netbeacon_table_cost(model, windowed3, wide)
        assert cost.entries == base.entries
        assert cost.bits == base.bits + 32 * base.entries

    def test_search_returns_feasible_candidate(self, trainer):
        candidates = evaluate_grid(
            trainer, grid((2, 4), (4, 8)), name="netbeacon",
            table_cost=netbeacon_table_cost, target=TOFINO1,
        )
        candidate = best_at_flows(candidates, 100_000)
        assert candidate is not None
        assert check_feasibility(candidate.resources, n_flows=100_000).feasible
        assert candidate.resources.tcam_bits <= TOFINO1.tcam_bits
        assert candidate.validation.f1_score == max(c.validation.f1_score for c in candidates)

    def test_search_degrades_with_more_flows(self, netbeacon_grid):
        at_100k = best_at_flows(netbeacon_grid, 100_000)
        at_1m = best_at_flows(netbeacon_grid, 1_000_000)
        assert at_100k is not None
        if at_1m is not None:
            assert at_1m.model.config.top_k <= at_100k.model.config.top_k
            assert at_1m.report.f1_score <= at_100k.report.f1_score + 0.05

    def test_selection_is_monotone_in_the_flow_count(self, netbeacon_grid):
        # Feasibility only shrinks as the count grows, so the best validation
        # F1 — what the selection ranks on — never rises.
        best = [best_at_flows(netbeacon_grid, n) for n in (1, 10**5, 5 * 10**5, 10**6, 10**7)]
        scores = [c.validation.f1_score if c else -1.0 for c in best]
        assert scores == sorted(scores, reverse=True)
        assert best[0].validation.f1_score == max(c.validation.f1_score for c in netbeacon_grid)


class TestLeo:
    def test_entry_counts_are_powers_of_two(self):
        for depth in (3, 6, 10, 11):
            entries = leo_tcam_entries(depth, 4)
            assert entries & (entries - 1) == 0

    def test_entries_grow_with_depth(self):
        assert leo_tcam_entries(11, 4) >= leo_tcam_entries(6, 4)

    def test_entries_capped(self):
        assert leo_tcam_entries(30, 8) == 2**14

    def test_tcam_bits_scale_with_k(self):
        assert leo_tcam_bits(6, 6) > leo_tcam_bits(6, 2)

    def test_tcam_overhead_comes_from_the_target(self, windowed3):
        model = train_topk_model(windowed3, TopKConfig(depth=6, top_k=4), name="leo")
        wide = dataclasses.replace(TOFINO1, tcam_entry_overhead_bits=48)
        base = leo_table_cost(model, windowed3, TOFINO1)
        assert base.bits == leo_tcam_bits(6, 4)
        assert leo_table_cost(model, windowed3, wide).bits == base.bits + 32 * base.entries

    def test_search_returns_candidate(self, trainer):
        candidates = evaluate_grid(
            trainer, grid((2, 4), (6, 11)), name="leo", table_cost=leo_table_cost, target=TOFINO1
        )
        candidate = best_at_flows(candidates, 100_000)
        assert candidate is not None
        assert candidate.resources.tcam_entries in {2**n for n in range(11, 15)}

    def test_depth_costs_register_stages(self, trainer):
        shallow, deep = evaluate_grid(
            trainer, grid((4,), (4, 11)), name="leo", table_cost=leo_table_cost, target=TOFINO1
        )
        assert deep.resources.stages_for_registers == shallow.resources.stages_for_registers - 2
        assert deep.resources.max_flows < shallow.resources.max_flows


class TestPerPacket:
    @pytest.fixture(scope="class")
    def stateless(self, trainer):
        return evaluate_grid(
            trainer, grid((4,), (6, 8), use_stateful=False), name="per_packet",
            table_cost=per_packet_table_cost, target=TOFINO1,
        )

    def test_search_returns_candidate(self, stateless):
        candidate = best_at_flows(stateless, 100_000)
        assert candidate is not None
        assert candidate.resources.layout.total_bits == 0

    def test_no_flow_count_exhausts_a_stateless_model(self, stateless):
        for candidate in stateless:
            assert candidate.resources.max_flows == UNBOUNDED_FLOWS
            assert check_feasibility(candidate.resources, n_flows=10**12).feasible
        assert best_at_flows(stateless, 10**12) is best_at_flows(stateless, 1)

    def test_stateless_model_weaker_than_stateful(self, trainer, stateless):
        (stateful,) = evaluate_grid(
            trainer, grid((6,), (10,)), name="netbeacon",
            table_cost=netbeacon_table_cost, target=TOFINO1,
        )
        weak = best_at_flows(stateless, 100_000)
        assert weak.report.f1_score <= stateful.report.f1_score + 0.05
        assert weak.resources.max_flows > stateful.resources.max_flows
