"""Unit tests for range-marking rule generation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.range_marking import (
    FeatureQuantizer,
    MarkTable,
    generate_rules,
    generate_subtree_rules,
)
from repro.core.partitioned_tree import OUTCOME_EXIT
from repro.switch.tcam import prefix_cover_size, range_to_ternary


@st.composite
def _thresholds(draw):
    """A width and thresholds in its domain, often at or next to its ends."""
    width = draw(st.integers(1, 32))
    top = (1 << width) - 1
    edge = st.sampled_from([0, 1, top - 1, top]).map(lambda v: min(max(v, 0), top))
    thresholds = draw(st.lists(st.integers(0, top) | edge, max_size=8))
    return width, thresholds


def _leaf_intervals_by_search(tree, leaf_id):
    """The path intervals of one leaf, searched for from the root (the old way)."""
    intervals = {}

    def descend(node_id, bounds):
        node = tree.nodes[node_id]
        if node.node_id == leaf_id:
            intervals.update(bounds)
            return True
        if node.is_leaf:
            return False
        low, high = bounds.get(node.feature, (-np.inf, np.inf))
        if descend(node.left, {**bounds, node.feature: (low, min(high, node.threshold))}):
            return True
        return descend(node.right, {**bounds, node.feature: (max(low, node.threshold), high)})

    descend(0, {})
    return intervals


class TestFeatureQuantizer:
    def test_fit_and_quantize_bounds(self):
        matrix = np.array([[0.0, 10.0], [5.0, 100.0]])
        quantizer = FeatureQuantizer(bit_width=8).fit(matrix)
        assert quantizer.quantize_value(0, 0.0) == 0
        assert quantizer.quantize_value(0, 5.0) == 255
        assert quantizer.quantize_value(1, 200.0) == 255  # saturates

    def test_monotone(self):
        matrix = np.array([[0.0], [100.0]])
        quantizer = FeatureQuantizer(bit_width=16).fit(matrix)
        values = [quantizer.quantize_value(0, v) for v in (0, 10, 50, 99, 100)]
        assert values == sorted(values)

    def test_quantize_row(self):
        matrix = np.array([[0.0, 0.0], [10.0, 20.0]])
        quantizer = FeatureQuantizer(bit_width=8).fit(matrix)
        row = quantizer.quantize_row(np.array([5.0, 10.0]))
        assert row.shape == (2,)
        assert row[0] == pytest.approx(128, abs=1)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            FeatureQuantizer().quantize_value(0, 1.0)

    def test_invalid_bit_width(self):
        with pytest.raises(ValueError):
            FeatureQuantizer(bit_width=0)

    def test_constant_feature_handled(self):
        matrix = np.zeros((5, 1))
        quantizer = FeatureQuantizer(bit_width=8).fit(matrix)
        assert quantizer.quantize_value(0, 0.0) == 0

    @pytest.mark.parametrize("bit_width", [8, 16])
    def test_level_values_round_trip(self, bit_width):
        rng = np.random.default_rng(bit_width)
        matrix = np.column_stack(
            [rng.uniform(0, 1000, 50), rng.integers(0, 7, 50), np.zeros(50)]
        )
        quantizer = FeatureQuantizer(bit_width=bit_width).fit(matrix)
        held_out = np.vstack([matrix * 1.7, [[-1.0, 3.0, 0.4]]])
        for rows in (matrix, held_out):
            values = quantizer.level_values(rows)
            np.testing.assert_array_equal(
                quantizer.quantize_matrix(values), quantizer.quantize_matrix(rows)
            )
        # Refitted on its training rows' stand-ins, the quantiser keeps its scales.
        refit = FeatureQuantizer(bit_width=bit_width).fit(quantizer.level_values(matrix))
        np.testing.assert_array_equal(refit.scales_, quantizer.scales_)


class TestMarkTable:
    def test_ranges_and_marks(self):
        table = MarkTable(sid=1, feature=0, thresholds=[10, 20, 30], bit_width=8)
        assert table.n_ranges == 4
        assert table.mark_for(5) == 0
        assert table.mark_for(10) == 0
        assert table.mark_for(11) == 1
        assert table.mark_for(25) == 2
        assert table.mark_for(255) == 3

    def test_duplicate_thresholds_collapse(self):
        table = MarkTable(sid=1, feature=0, thresholds=[10, 10, 20], bit_width=8)
        assert table.n_ranges == 3

    def test_range_bounds_cover_domain(self):
        table = MarkTable(sid=1, feature=0, thresholds=[50, 100], bit_width=8)
        covered = []
        for mark in range(table.n_ranges):
            low, high = table.range_bounds(mark)
            covered.extend(range(low, high + 1))
        assert covered == list(range(256))

    def test_mark_bits(self):
        assert MarkTable(sid=1, feature=0, thresholds=[], bit_width=8).mark_bits == 1
        assert MarkTable(sid=1, feature=0, thresholds=[1, 2, 3], bit_width=8).mark_bits == 2
        assert MarkTable(sid=1, feature=0, thresholds=list(range(1, 9)), bit_width=8).mark_bits == 4

    def test_ternary_entry_count_positive(self):
        table = MarkTable(sid=1, feature=0, thresholds=[17, 99], bit_width=8)
        assert table.n_ternary_entries >= table.n_ranges

    def test_invalid_mark(self):
        table = MarkTable(sid=1, feature=0, thresholds=[10], bit_width=8)
        with pytest.raises(ValueError):
            table.range_bounds(5)

    @settings(max_examples=300, deadline=None)
    @given(_thresholds())
    def test_ternary_entry_count_is_the_prefix_expansion(self, case):
        # Counted arithmetically; built, the expansion has as many entries.
        width, thresholds = case
        table = MarkTable(sid=1, feature=0, thresholds=thresholds, bit_width=width)
        expected = 0
        for mark in range(table.n_ranges):
            low, high = table.range_bounds(mark)
            if high >= low:
                expected += len(range_to_ternary(low, high, width))
        assert table.n_ternary_entries == expected

    @settings(max_examples=300, deadline=None)
    @given(_thresholds())
    def test_prefix_cover_size_is_the_expansion_length(self, case):
        width, bounds = case
        low, high = sorted((bounds + [0, (1 << width) - 1])[:2])
        assert prefix_cover_size(low, high) == len(range_to_ternary(low, high, width))


class TestRuleGeneration:
    def test_every_subtree_has_rules(self, splidt_model, splidt_rules):
        assert set(splidt_rules.subtree_rules) == set(splidt_model.subtrees)

    def test_model_entries_equal_leaf_count(self, splidt_model, splidt_rules):
        for sid, subtree in splidt_model.subtrees.items():
            leaves = sum(node.is_leaf for node in subtree.tree.tree_.nodes)
            assert splidt_rules.subtree_rules[sid].n_model_entries == leaves

    def test_mark_tables_cover_used_features(self, splidt_model, splidt_rules):
        for sid, subtree in splidt_model.subtrees.items():
            assert set(splidt_rules.subtree_rules[sid].mark_tables) == subtree.features_used()

    def test_entry_counts_positive(self, splidt_rules):
        assert splidt_rules.n_entries > 0
        assert splidt_rules.n_entries == splidt_rules.n_feature_entries + splidt_rules.n_model_entries

    def test_tcam_bits_positive_and_scaled(self, splidt_rules):
        bits = splidt_rules.tcam_bits()
        assert bits > 0
        assert bits > splidt_rules.n_entries  # every entry costs more than one bit

    def test_match_key_includes_sid(self, splidt_rules):
        from repro.core.range_marking import SID_BITS
        assert splidt_rules.max_match_key_bits >= SID_BITS

    def test_classify_agrees_with_tree_on_training_data(self, splidt_model, splidt_rules, windowed3):
        """The compiled rules must reproduce the direct tree traversal."""
        indices = windowed3.train_indices[:60]
        agreements = 0
        total = 0
        for flow in indices:
            windows = windowed3.window_features[:, flow, :]
            sid = splidt_model.root_sid
            direct = splidt_model._predict_single(windows)
            for _ in range(splidt_model.n_partitions):
                subtree = splidt_model.subtrees[sid]
                outcome = splidt_rules.classify(sid, windows[subtree.partition])
                assert outcome is not None, "compiled rules must always match"
                kind, value = outcome
                if kind == OUTCOME_EXIT:
                    total += 1
                    agreements += int(value == direct)
                    break
                sid = value
            else:
                total += 1
        assert total > 0
        assert agreements / total >= 0.9

    def test_leaf_paths_equal_a_search_from_the_root(self, splidt_model, splidt_rules):
        # One preorder walk gives every leaf the intervals a per-leaf search
        # from the root finds, so the compiled rules are those of the search.
        quantizer = splidt_rules.quantizer
        for sid, subtree in splidt_model.subtrees.items():
            tree = subtree.tree.tree_
            rules = generate_subtree_rules(subtree, quantizer)
            assert rules == splidt_rules.subtree_rules[sid]
            for leaf, rule in zip(tree.leaves(), rules.model_rules):
                intervals = _leaf_intervals_by_search(tree, leaf.node_id)
                assert list(rule.mark_intervals) == list(intervals)

    def test_classify_unknown_sid_returns_none(self, splidt_rules, windowed3):
        assert splidt_rules.classify(9999, windowed3.window_features[0, 0, :]) is None

    def test_lower_precision_reduces_or_keeps_entries(self, splidt_model, windowed3):
        matrix = np.vstack([windowed3.partition_matrix(p, "train") for p in range(3)])
        high = generate_rules(splidt_model, matrix, bit_width=32)
        low = generate_rules(splidt_model, matrix, bit_width=8)
        assert low.n_feature_entries <= high.n_feature_entries
        assert low.n_model_entries == high.n_model_entries
