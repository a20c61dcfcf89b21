"""Parity suite for the compiled lookup plane (`repro.core.rule_lut`).

The dense mark-space LUTs must be bit-identical to the first-match rule
scan for *any* rule set — including unreachable rules (intervals on
features the subtree has no mark table for), over-cap fallback subtrees,
single-leaf subtrees with no mark tables at all, and overlapping rules
where priority order decides the outcome.  The suite checks randomized
synthetic rule sets property-style, plus the compiled rules of a real
trained partitioned model.  The scan is the LUT's over-cap fallback, so a
copy of a rule set capped at ``lut_max_cells=0`` is the scan for every
subtree (:func:`_scanning`).
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.partitioned_tree import OUTCOME_EXIT, OUTCOME_NEXT
from repro.core.range_marking import (
    KIND_EXIT,
    KIND_NONE,
    FeatureQuantizer,
    MarkTable,
    ModelRule,
    RuleSet,
    SubtreeRuleSet,
    group_by_sid,
)
from repro.core.rule_lut import (
    DEFAULT_MAX_CELLS,
    compile_lookup,
    compile_subtree_lut,
)

N_FEATURES = 5
BIT_WIDTH = 12


def _random_ruleset(rng: np.random.Generator) -> RuleSet:
    """A randomized multi-subtree rule set (with deliberately nasty rules)."""
    quantizer = FeatureQuantizer(bit_width=BIT_WIDTH).fit(
        rng.uniform(1.0, 1000.0, size=(50, N_FEATURES))
    )
    max_level = quantizer.max_level
    subtree_rules: dict[int, SubtreeRuleSet] = {}
    for sid in range(1, int(rng.integers(2, 5))):
        features = rng.choice(N_FEATURES, size=int(rng.integers(0, 4)), replace=False)
        mark_tables = {
            int(f): MarkTable(
                sid=sid,
                feature=int(f),
                thresholds=rng.integers(0, max_level, size=int(rng.integers(1, 6))).tolist(),
                bit_width=BIT_WIDTH,
            )
            for f in features
        }
        model_rules = []
        for _ in range(int(rng.integers(1, 10))):
            intervals: dict[int, tuple[int, int]] = {}
            for f, table in mark_tables.items():
                if rng.random() < 0.7:
                    a, b = rng.integers(0, table.n_ranges, size=2)
                    intervals[f] = (int(min(a, b)), int(max(a, b)))
            if rng.random() < 0.2:
                missing = int(rng.integers(0, N_FEATURES))
                if missing not in mark_tables:
                    # Tests a feature the subtree has no mark table for:
                    # the rule can never match on either path.
                    intervals[missing] = (0, 1)
            model_rules.append(
                ModelRule(
                    sid=sid,
                    mark_intervals=intervals,
                    outcome_kind=OUTCOME_EXIT if rng.random() < 0.5 else OUTCOME_NEXT,
                    outcome_value=int(rng.integers(0, 7)),
                )
            )
        subtree_rules[sid] = SubtreeRuleSet(
            sid=sid, mark_tables=mark_tables, model_rules=model_rules
        )
    return RuleSet(subtree_rules=subtree_rules, quantizer=quantizer, bit_width=BIT_WIDTH)


def _random_matrix(rng: np.random.Generator, n_rows: int = 200) -> np.ndarray:
    return rng.uniform(-50.0, 1500.0, size=(n_rows, N_FEATURES))


def _scanning(rules: RuleSet) -> RuleSet:
    """``rules`` with every subtree over the LUT cap: classified by the first-match scan."""
    scanning = dataclasses.replace(rules, lut_max_cells=0)
    assert scanning.compiled_lookup().stats()["n_compiled"] == 0
    return scanning


def _assert_parity(rules: RuleSet, matrix: np.ndarray) -> None:
    scanning = _scanning(rules)
    for sid in rules.subtree_rules:
        kinds_scan, values_scan = scanning.classify_batch(sid, matrix)
        kinds_lut, values_lut = rules.classify_batch(sid, matrix)
        np.testing.assert_array_equal(kinds_scan, kinds_lut)
        np.testing.assert_array_equal(values_scan, values_lut)
        assert kinds_scan.dtype == kinds_lut.dtype
        assert values_scan.dtype == values_lut.dtype


class TestRandomizedParity:
    @pytest.mark.parametrize("seed", range(15))
    def test_lut_matches_scan_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        rules = _random_ruleset(rng)
        _assert_parity(rules, _random_matrix(rng))

    @pytest.mark.parametrize("seed", range(5))
    def test_overcap_fallback_matches_scan(self, seed):
        rng = np.random.default_rng(100 + seed)
        rules = dataclasses.replace(_random_ruleset(rng), lut_max_cells=2)
        plane = rules.compiled_lookup()
        stats = plane.stats()
        assert stats["n_fallback"] + stats["n_compiled"] == stats["n_subtrees"]
        _assert_parity(rules, _random_matrix(rng))

    def test_quantisation_happens_before_lookup(self):
        # Raw floats far outside the quantiser's domain must saturate the
        # same way on both paths.
        rng = np.random.default_rng(7)
        rules = _random_ruleset(rng)
        extreme = np.array(
            [[-1e9] * N_FEATURES, [1e9] * N_FEATURES, [0.0] * N_FEATURES]
        )
        _assert_parity(rules, extreme)


class TestEdgeSemantics:
    def _quantizer(self) -> FeatureQuantizer:
        return FeatureQuantizer(bit_width=BIT_WIDTH).fit(
            np.full((4, N_FEATURES), 100.0)
        )

    def test_rule_on_missing_feature_never_matches(self):
        quantizer = self._quantizer()
        table = MarkTable(sid=1, feature=0, thresholds=[2000], bit_width=BIT_WIDTH)
        unreachable = ModelRule(
            sid=1, mark_intervals={3: (0, 0)}, outcome_kind=OUTCOME_EXIT, outcome_value=9
        )
        fallback = ModelRule(
            sid=1, mark_intervals={0: (0, 1)}, outcome_kind=OUTCOME_EXIT, outcome_value=4
        )
        rules = RuleSet(
            subtree_rules={
                1: SubtreeRuleSet(
                    sid=1, mark_tables={0: table}, model_rules=[unreachable, fallback]
                )
            },
            quantizer=quantizer,
            bit_width=BIT_WIDTH,
        )
        matrix = np.array([[10.0, 0, 0, 99.0, 0], [90.0, 0, 0, 1.0, 0]])
        for mode, lookup in (("lut", rules), ("scan", _scanning(rules))):
            kinds, values = lookup.classify_batch(1, matrix)
            assert kinds.tolist() == [KIND_EXIT, KIND_EXIT]
            assert values.tolist() == [4, 4], mode

    def test_single_leaf_subtree_without_mark_tables(self):
        quantizer = self._quantizer()
        rule = ModelRule(
            sid=2, mark_intervals={}, outcome_kind=OUTCOME_EXIT, outcome_value=3
        )
        rules = RuleSet(
            subtree_rules={
                2: SubtreeRuleSet(sid=2, mark_tables={}, model_rules=[rule])
            },
            quantizer=quantizer,
            bit_width=BIT_WIDTH,
        )
        matrix = np.zeros((5, N_FEATURES))
        for lookup in (rules, _scanning(rules)):
            kinds, values = lookup.classify_batch(2, matrix)
            assert kinds.tolist() == [KIND_EXIT] * 5
            assert values.tolist() == [3] * 5

    def test_first_match_priority_wins_on_overlap(self):
        quantizer = self._quantizer()
        table = MarkTable(
            sid=1, feature=0, thresholds=[1000, 2000], bit_width=BIT_WIDTH
        )
        # Both rules cover mark 1; the first must win everywhere it matches.
        first = ModelRule(
            sid=1, mark_intervals={0: (1, 2)}, outcome_kind=OUTCOME_EXIT, outcome_value=1
        )
        second = ModelRule(
            sid=1, mark_intervals={0: (0, 1)}, outcome_kind=OUTCOME_EXIT, outcome_value=2
        )
        rules = RuleSet(
            subtree_rules={
                1: SubtreeRuleSet(
                    sid=1, mark_tables={0: table}, model_rules=[first, second]
                )
            },
            quantizer=quantizer,
            bit_width=BIT_WIDTH,
        )
        lut = compile_subtree_lut(rules.subtree_rules[1], quantizer)
        # Mark 0 only the second rule covers; mark 1 both cover and the
        # first (higher-priority) rule must win; mark 2 only the first.
        assert lut.kinds.tolist() == [KIND_EXIT, KIND_EXIT, KIND_EXIT]
        assert lut.values.tolist() == [2, 1, 1]
        _assert_parity(rules, _random_matrix(np.random.default_rng(0), 50))

    def test_astronomical_mark_space_falls_back_instead_of_crashing(self):
        """A mark-space product past int64 must hit the cap, not overflow."""
        from types import SimpleNamespace

        huge = SimpleNamespace(n_ranges=1 << 40)
        rules = SubtreeRuleSet.__new__(SubtreeRuleSet)
        rules.sid = 1
        rules.mark_tables = {0: huge, 1: huge}  # product 2**80 >> 2**63
        rules.model_rules = []
        quantizer = self._quantizer()
        assert compile_subtree_lut(rules, quantizer) is None

    def test_unknown_sid_and_empty_batch(self):
        rng = np.random.default_rng(3)
        rules = _random_ruleset(rng)
        kinds, values = rules.classify_batch(999, _random_matrix(rng, 4))
        assert kinds.tolist() == [KIND_NONE] * 4 and values.tolist() == [0] * 4
        kinds, values = rules.classify_batch(1, _random_matrix(rng, 0))
        assert kinds.size == 0 and values.size == 0


class TestTrainedModelParity:
    def test_trained_rules_parity(self, splidt_rules, windowed3):
        matrix = np.vstack(
            [windowed3.partition_matrix(p, "train") for p in range(3)]
        )
        _assert_parity(splidt_rules, matrix)

    def test_compiled_plane_covers_every_subtree(self, splidt_rules):
        plane = compile_lookup(splidt_rules)
        stats = plane.stats()
        assert stats["n_subtrees"] == len(splidt_rules.subtree_rules)
        assert stats["n_fallback"] == 0
        assert stats["total_cells"] > 0


class TestLookupPlumbing:
    def test_lut_is_the_default(self, splidt_rules):
        # Uncapped, every subtree of the trained rules gets a LUT.
        assert splidt_rules.lut_max_cells is None
        plane = splidt_rules.compiled_lookup()
        assert plane.max_cells == DEFAULT_MAX_CELLS
        assert plane.stats()["n_fallback"] == 0

    def test_lookup_selectors_are_rejected(self, splidt_rules):
        # The scan is a fallback, not a setting: the mode, its setter and the
        # per-call override are gone, rejected rather than aliased.
        assert not hasattr(splidt_rules, "set_lookup")
        assert not hasattr(splidt_rules, "lookup")
        with pytest.raises(TypeError, match="lookup"):
            splidt_rules.classify_batch(1, np.zeros((1, N_FEATURES)), lookup="scan")
        with pytest.raises(TypeError, match="lookup"):
            RuleSet(subtree_rules={}, quantizer=FeatureQuantizer(), bit_width=32, lookup="scan")

    def test_capped_copy_compiles_its_own_plane(self):
        rules = _random_ruleset(np.random.default_rng(5))
        full = rules.compiled_lookup()
        assert full.max_cells == DEFAULT_MAX_CELLS
        tiny = dataclasses.replace(rules, lut_max_cells=1).compiled_lookup()
        assert tiny is not full and tiny.max_cells == 1
        assert rules.compiled_lookup() is full

    def test_program_compiles_the_lut_at_build(self, splidt_model, splidt_rules):
        """Deploying compiles the plane, so the first window round never pays for it."""
        from repro.dataplane import SpliDTDataPlane

        rules = dataclasses.replace(splidt_rules)
        assert rules._compiled is None
        SpliDTDataPlane(splidt_model, rules, flow_slots=1024)
        assert rules._compiled is not None

    def test_compiled_plane_is_built_once(self):
        rules = _random_ruleset(np.random.default_rng(7))
        compiled = rules.compiled_lookup()
        sid = next(iter(rules.subtree_rules))
        rules.classify_batch(sid, _random_matrix(np.random.default_rng(7)))
        assert rules.compiled_lookup() is compiled

    def test_pickle_drops_compiled_cache(self):
        rules = dataclasses.replace(_random_ruleset(np.random.default_rng(6)), lut_max_cells=4)
        rules.compiled_lookup()
        clone = pickle.loads(pickle.dumps(rules))
        assert clone._compiled is None
        assert clone.lut_max_cells == 4
        _assert_parity(clone, _random_matrix(np.random.default_rng(6)))


class TestGroupBySid:
    def test_groups_match_unique_mask_loop(self):
        rng = np.random.default_rng(1)
        sids = rng.integers(0, 6, size=200)
        grouped = {sid: rows for sid, rows in group_by_sid(sids)}
        assert sorted(grouped) == np.unique(sids).tolist()
        for sid in grouped:
            np.testing.assert_array_equal(
                grouped[sid], np.flatnonzero(sids == sid)
            )

    def test_empty_input_yields_nothing(self):
        assert list(group_by_sid(np.array([], dtype=np.int64))) == []
