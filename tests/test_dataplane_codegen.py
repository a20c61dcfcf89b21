"""Unit tests for the P4-style code generator."""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

from repro.core.partitioned_tree import train_partitioned_tree
from repro.core.range_marking import generate_rules, stacked_training_matrix
from repro.core.resources import splidt_register_layout
from repro.dataplane.codegen import generate_p4_program, generate_table_entries
from repro.features.definitions import FEATURES
from repro.switch.tcam import TernaryMatch


class TestGenerateP4Program:
    def test_program_contains_register_declarations(self, splidt_model, splidt_rules):
        program = generate_p4_program(splidt_model, splidt_rules)
        assert "reg_sid" in program
        assert "reg_pkt_count" in program
        for slot in range(splidt_model.config.features_per_subtree):
            assert f"reg_feature_slot_{slot}" in program

    @pytest.mark.parametrize("bit_width", [32, 16])
    def test_register_widths_sum_to_the_layout(self, windowed3, splidt_config, bit_width):
        windowed = windowed3.with_precision(bit_width)
        model = train_partitioned_tree(
            windowed, replace(splidt_config, bit_width=bit_width), random_state=3
        )
        rules = generate_rules(model, stacked_training_matrix(windowed, 3))
        program = generate_p4_program(model, rules)
        widths = [int(width) for width in re.findall(r"Register<bit<(\d+)>,", program)]
        layout = splidt_register_layout(model)
        assert sum(widths) == layout.total_bits
        assert widths.count(bit_width) >= model.config.features_per_subtree
        assert layout.feature_bits == model.config.features_per_subtree * bit_width

    def test_program_contains_one_mark_table_per_slot(self, splidt_model, splidt_rules):
        program = generate_p4_program(splidt_model, splidt_rules)
        for slot in range(splidt_model.config.features_per_subtree):
            assert f"table mark_slot_{slot}" in program
            assert f"table operator_select_{slot}" in program

    def test_program_contains_model_table_and_recirculation(self, splidt_model, splidt_rules):
        program = generate_p4_program(splidt_model, splidt_rules)
        assert "table splidt_model" in program
        assert "resubmit_with_next_sid" in program
        assert "digest_classification" in program

    def test_flow_slots_parameter(self, splidt_model, splidt_rules):
        program = generate_p4_program(splidt_model, splidt_rules, flow_slots=1024)
        assert "(1024)" in program

    def test_summary_comment_reflects_model(self, splidt_model, splidt_rules):
        program = generate_p4_program(splidt_model, splidt_rules)
        assert f"{splidt_model.n_subtrees} subtrees" in program
        assert f"{splidt_rules.n_entries} TCAM entries" in program


class TestGenerateTableEntries:
    def test_entry_count_matches_rule_set(self, splidt_model, splidt_rules):
        entries = generate_table_entries(splidt_model, splidt_rules)
        mark_entries = [e for e in entries if e["table"].startswith("mark_slot_")]
        model_entries = [e for e in entries if e["table"] == "splidt_model"]
        assert len(mark_entries) == splidt_rules.n_feature_entries
        assert len(model_entries) == splidt_rules.n_model_entries

    def test_every_entry_carries_a_sid(self, splidt_model, splidt_rules):
        entries = generate_table_entries(splidt_model, splidt_rules)
        sids = {entry["sid"] for entry in entries}
        assert sids == set(splidt_model.subtrees)

    def test_model_entries_reference_feature_names(self, splidt_model, splidt_rules):
        from repro.features.definitions import feature_names
        names = set(feature_names())
        entries = generate_table_entries(splidt_model, splidt_rules)
        for entry in entries:
            if entry["table"] == "splidt_model":
                assert set(entry["mark_intervals"]) <= names

    def test_mark_entries_have_value_and_mask(self, splidt_model, splidt_rules):
        entries = generate_table_entries(splidt_model, splidt_rules)
        for entry in entries:
            if entry["table"].startswith("mark_slot_"):
                assert 0 <= entry["value"] < 2**32
                assert 0 <= entry["mask"] < 2**32

    def test_first_match_is_the_mark_table(self, splidt_model, splidt_rules):
        """The entry list is the only statement of the mark tables: it must *be* them."""
        emitted: dict[tuple[int, str], list[tuple[TernaryMatch, int]]] = {}
        for entry in generate_table_entries(splidt_model, splidt_rules):
            if entry["table"].startswith("mark_slot_"):
                emitted.setdefault((entry["sid"], entry["feature"]), []).append(
                    (TernaryMatch(entry["value"], entry["mask"]), entry["mark"])
                )

        def first_match(pairs, value):
            return next((mark for match, mark in pairs if match.matches(value)), None)

        rng = np.random.default_rng(23)
        n_tables = 0
        for sid, subtree_rules in splidt_rules.subtree_rules.items():
            for feature, mark_table in subtree_rules.mark_tables.items():
                pairs = emitted[(sid, FEATURES[feature].name)]
                n_tables += 1
                for mark in range(mark_table.n_ranges):
                    low, high = mark_table.range_bounds(mark)
                    if high < low:  # a threshold at the register's maximum: no entry
                        continue
                    values = {low, high, *rng.integers(low, high + 1, size=8).tolist()}
                    for value in values:
                        assert first_match(pairs, value) == mark_table.mark_for(value) == mark
        assert n_tables == len(emitted) > 0
