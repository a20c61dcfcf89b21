"""Range-marking rule generation (NetBeacon's encoding, per subtree).

The Range Marking algorithm turns a trained decision tree into two groups of
TCAM rules:

1. **Feature (mark) tables** — for every feature a subtree tests, the
   feature's value domain is segmented into the non-overlapping ranges induced
   by the subtree's thresholds; each range gets a *mark* (a small integer).
   The range → ternary conversion uses standard prefix expansion, so one range
   may cost several physical TCAM entries.
2. **Model table** — one rule per subtree leaf.  A leaf corresponds to a
   conjunction of per-feature ranges (the path conditions), which — because
   marks are assigned in range order — is a contiguous *interval of marks*
   per feature.  The rule matches the subtree id (SID) exactly and the mark
   intervals, and returns either the next SID or the final class.

SpliDT generates these rules for every subtree of the partitioned model; each
rule carries the subtree id so only the active subtree's rules can match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.partitioned_tree import (
    OUTCOME_EXIT,
    PartitionedDecisionTree,
    Subtree,
)
from repro.ml._tree import Tree
from repro.switch.tcam import prefix_cover_size

#: Width (bits) of the subtree-id match field.
SID_BITS = 8

#: Outcome codes returned by the batched classification path.
KIND_NONE, KIND_EXIT, KIND_NEXT = 0, 1, 2


class FeatureQuantizer:
    """Maps float feature values onto the integer domain used for match keys.

    The data plane matches on integer register values; offline, features are
    floats.  The quantiser learns a per-feature scale from training data and
    maps values linearly onto ``[0, 2**bit_width - 1]`` (saturating), exactly
    as the rule generator and the data-plane simulator must both do.  It is
    the only quantiser: a reduced-precision training view
    (:meth:`~repro.datasets.materialize.WindowedDataset.with_precision`)
    holds the :meth:`level_values` of one fitted on its training rows.
    """

    def __init__(self, bit_width: int = 32) -> None:
        if bit_width < 1 or bit_width > 32:
            raise ValueError("bit_width must be in [1, 32]")
        self.bit_width = bit_width
        self.max_level = (1 << bit_width) - 1
        self.scales_: np.ndarray | None = None

    def fit(self, matrix: np.ndarray) -> "FeatureQuantizer":
        """Learn per-feature scales (the observed maxima) from ``matrix``."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        scales = matrix.max(axis=0)
        scales[scales <= 0] = 1.0
        self.scales_ = scales
        return self

    def _check_fitted(self) -> np.ndarray:
        if self.scales_ is None:
            raise RuntimeError("quantizer is not fitted")
        return self.scales_

    def quantize_value(self, feature: int, value: float) -> int:
        """Quantise one feature value to its integer level."""
        scales = self._check_fitted()
        clipped = min(max(float(value), 0.0), float(scales[feature]))
        return int(round(clipped / scales[feature] * self.max_level))

    def quantize_row(self, row: np.ndarray) -> np.ndarray:
        """Quantise a full feature vector."""
        scales = self._check_fitted()
        clipped = np.clip(np.asarray(row, dtype=float), 0.0, scales)
        return np.round(clipped / scales * self.max_level).astype(np.int64)

    def quantize_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Quantise a batch of feature vectors (rows) in one shot.

        Elementwise identical to calling :meth:`quantize_row` on every row —
        the batched replay engine relies on this for bit-identical marks.
        """
        scales = self._check_fitted()
        clipped = np.clip(np.asarray(matrix, dtype=float), 0.0, scales[np.newaxis, :])
        return np.round(clipped / scales[np.newaxis, :] * self.max_level).astype(np.int64)

    def quantize_columns(self, matrix: np.ndarray, columns) -> np.ndarray:
        """Quantise only the selected feature columns of a batch.

        Returns an ``(n_rows, len(columns))`` integer array, elementwise
        identical to ``quantize_matrix(matrix)[:, columns]`` — the batched
        lookup paths quantise just the features a subtree actually tests
        instead of the whole feature vector.
        """
        scales = self._check_fitted()
        columns = np.asarray(columns, dtype=np.intp)
        sub_scales = scales[columns][np.newaxis, :]
        # One column-gather copy, then in-place clip / divide / scale /
        # round: the same operations in the same order as quantize_matrix
        # (bit-identical results), without the four full-size temporaries.
        out = np.asarray(matrix, dtype=float)[:, columns]
        np.clip(out, 0.0, sub_scales, out=out)
        np.divide(out, sub_scales, out=out)
        np.multiply(out, self.max_level, out=out)
        np.round(out, out=out)
        return out.astype(np.int64)

    def level_values(self, matrix: np.ndarray) -> np.ndarray:
        """Raw-unit stand-ins for the levels of a batch: what training reads.

        Level ``l`` becomes ``(l - 1/4) * scale / max_level`` and the top
        level ``scale`` itself, so :meth:`quantize_matrix` of the result
        gives back every level, a quantiser refitted on the stand-ins of its
        own training rows recovers its scales, and the midpoint of two
        stand-ins (a split threshold) quantises to the lower level without
        landing on a rounding tie.
        """
        scales = self._check_fitted()
        levels = self.quantize_matrix(matrix)
        values = (levels - 0.25) * (scales / self.max_level)
        return np.where(levels == self.max_level, scales, values)


@dataclass
class MarkTable:
    """Range-marking table for one (subtree, feature) pair.

    Attributes:
        sid: Owning subtree id.
        feature: Feature index.
        thresholds: Quantised split thresholds, ascending.
        n_ternary_entries: Physical TCAM entries after prefix expansion.
    """

    sid: int
    feature: int
    thresholds: list[int]
    bit_width: int
    n_ternary_entries: int = 0

    def __post_init__(self) -> None:
        self.thresholds = sorted(set(self.thresholds))
        self.n_ternary_entries = self._count_ternary_entries()

    @property
    def n_ranges(self) -> int:
        """Number of value ranges (thresholds + 1)."""
        return len(self.thresholds) + 1

    @property
    def mark_bits(self) -> int:
        """Bits needed to encode a mark for this feature."""
        return max(1, math.ceil(math.log2(max(self.n_ranges, 2))))

    def mark_for(self, quantized_value: int) -> int:
        """Mark (range index) of a quantised feature value."""
        mark = 0
        for threshold in self.thresholds:
            if quantized_value > threshold:
                mark += 1
            else:
                break
        return mark

    def marks_for(self, quantized_values: np.ndarray) -> np.ndarray:
        """Marks for a batch of quantised values (vectorized :meth:`mark_for`).

        The thresholds are sorted and unique, so the mark of a value is the
        number of thresholds strictly below it — a ``searchsorted``.
        """
        thresholds = np.asarray(self.thresholds, dtype=np.int64)
        return np.searchsorted(thresholds, np.asarray(quantized_values, dtype=np.int64), side="left")

    def range_bounds(self, mark: int) -> tuple[int, int]:
        """Inclusive integer bounds ``[low, high]`` of the given mark's range."""
        if not 0 <= mark < self.n_ranges:
            raise ValueError(f"mark {mark} out of range")
        max_value = (1 << self.bit_width) - 1
        low = 0 if mark == 0 else self.thresholds[mark - 1] + 1
        high = max_value if mark == len(self.thresholds) else self.thresholds[mark]
        return low, high

    def _count_ternary_entries(self) -> int:
        """``len(range_to_ternary(...))`` summed over the marks' ranges, counted, not built."""
        max_value = (1 << self.bit_width) - 1
        total = 0
        for mark in range(self.n_ranges):
            low, high = self.range_bounds(mark)
            if high < low:
                continue
            # Clipped into the key's domain, as the expansion clips it.
            low, high = (max(0, min(bound, max_value)) for bound in (low, high))
            if low <= high:
                total += prefix_cover_size(low, high)
        return total


@dataclass
class ModelRule:
    """One model-table rule: SID + per-feature mark intervals → outcome."""

    sid: int
    mark_intervals: dict[int, tuple[int, int]]
    outcome_kind: str
    outcome_value: int

    def matches(self, sid: int, marks: dict[int, int]) -> bool:
        """Whether the rule matches the given SID and per-feature marks."""
        if sid != self.sid:
            return False
        for feature, (low, high) in self.mark_intervals.items():
            mark = marks.get(feature)
            if mark is None or not low <= mark <= high:
                return False
        return True


@dataclass
class SubtreeRuleSet:
    """All rules generated for one subtree."""

    sid: int
    mark_tables: dict[int, MarkTable]
    model_rules: list[ModelRule]

    @property
    def n_feature_entries(self) -> int:
        """Physical TCAM entries across the subtree's feature tables."""
        return sum(table.n_ternary_entries for table in self.mark_tables.values())

    @property
    def n_model_entries(self) -> int:
        """Model-table entries (one per leaf)."""
        return len(self.model_rules)

    @property
    def match_key_bits(self) -> int:
        """Match-key width of the subtree's model table (SID + marks)."""
        return SID_BITS + sum(table.mark_bits for table in self.mark_tables.values())


@dataclass
class RuleSet:
    """The compiled rule set of a whole partitioned (or one-shot) model.

    Attributes:
        subtree_rules: Per-subtree mark tables and model rules.
        quantizer: The fitted feature quantiser rules were generated under.
        bit_width: Feature precision (bits) of the match keys.
        lut_max_cells: Per-subtree mark-space cap for the LUT compilation;
            ``None`` uses :data:`repro.core.rule_lut.DEFAULT_MAX_CELLS`.  A
            subtree over the cap is classified by the first-match scan, so
            ``dataclasses.replace(rules, lut_max_cells=0)`` scans every one.
    """

    subtree_rules: dict[int, SubtreeRuleSet]
    quantizer: FeatureQuantizer
    bit_width: int
    lut_max_cells: int | None = None
    _compiled: object | None = field(default=None, init=False, repr=False, compare=False)
    _fill_plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        # The compiled plane and fill plans are derived data: drop them so
        # pickles (run artifacts, sharded-mp workers) stay lean; consumers
        # rebuild them.
        state = dict(self.__dict__)
        state["_compiled"] = None
        state["_fill_plans"] = {}
        return state

    @property
    def n_feature_entries(self) -> int:
        """Total feature-table TCAM entries."""
        return sum(rules.n_feature_entries for rules in self.subtree_rules.values())

    @property
    def n_model_entries(self) -> int:
        """Total model-table entries."""
        return sum(rules.n_model_entries for rules in self.subtree_rules.values())

    @property
    def n_entries(self) -> int:
        """Total TCAM entries (the paper's #TCAM Entries column)."""
        return self.n_feature_entries + self.n_model_entries

    @property
    def max_match_key_bits(self) -> int:
        """Widest model-table match key across subtrees."""
        if not self.subtree_rules:
            return SID_BITS
        return max(rules.match_key_bits for rules in self.subtree_rules.values())

    def tcam_bits(self, entry_overhead_bits: int = 16) -> float:
        """Approximate TCAM bits consumed by all rules (key + mask + overhead)."""
        total = 0.0
        for rules in self.subtree_rules.values():
            # Feature tables match on the raw feature value.
            feature_entry_bits = 2 * self.bit_width + entry_overhead_bits
            total += rules.n_feature_entries * feature_entry_bits
            model_entry_bits = 2 * rules.match_key_bits + entry_overhead_bits
            total += rules.n_model_entries * model_entry_bits
        return total

    # ------------------------------------------------------------------
    # Lookup plane
    # ------------------------------------------------------------------
    def compiled_lookup(self):
        """The compiled dense lookup plane (built once, then cached).

        Returns a :class:`repro.core.rule_lut.CompiledLookup`.  Program
        construction calls this, so the first window round never pays the
        compilation.
        """
        if self._compiled is None:
            from repro.core.rule_lut import compile_lookup

            self._compiled = compile_lookup(self, max_cells=self.lut_max_cells)
        return self._compiled

    def fill_plan(self, features_by_sid: dict[int, list[int]]):
        """The window rounds' fill plan over ``features_by_sid`` (built once, then cached).

        Returns a :class:`repro.dataplane.vectorized.FillPlan`, kept per
        mapping of subtree to features read, so every program built over
        these rules (a factory's, one per serving session or worker) shares
        one plan and the round layouts it has worked out.
        """
        key = tuple(sorted((sid, tuple(features)) for sid, features in features_by_sid.items()))
        plan = self._fill_plans.get(key)
        if plan is None:
            from repro.dataplane.vectorized import FillPlan

            plan = self._fill_plans[key] = FillPlan(features_by_sid)
        return plan

    # ------------------------------------------------------------------
    # Scalar lookup path (used by the per-packet oracle)
    # ------------------------------------------------------------------
    def classify(self, sid: int, feature_values: np.ndarray) -> tuple[str, int] | None:
        """Evaluate the active subtree's rules against raw feature values.

        Returns ``(outcome_kind, outcome_value)`` — either ``("exit", class)``
        or ``("next", next_sid)`` — or ``None`` when no rule matches (which
        indicates a compilation bug and is asserted against in tests).
        """
        rules = self.subtree_rules.get(sid)
        if rules is None:
            return None
        quantized = self.quantizer.quantize_row(feature_values)
        marks = {
            feature: table.mark_for(int(quantized[feature]))
            for feature, table in rules.mark_tables.items()
        }
        for rule in rules.model_rules:
            if rule.matches(sid, marks):
                return rule.outcome_kind, rule.outcome_value
        return None

    def classify_batch(
        self, sid: "int | np.ndarray", feature_matrix: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`classify` over a batch of flows, one subtree per row.

        One lookup in the stacked mark-space LUT of every subtree
        (:meth:`repro.core.rule_lut.CompiledLookup.lookup`), whatever mix of
        subtrees the rows are in; rows in a subtree whose mark space exceeds
        ``lut_max_cells`` have no LUT and run the first-match rule scan.
        Both are bit-identical for finite feature values (``NaN`` rows are
        outside the contract — the scan's own ``float -> int64`` cast of
        ``NaN`` is undefined).

        Args:
            sid: The active subtree of each row — one id per row, or one
                int shared by every row.
            feature_matrix: ``(n_flows, n_features)`` raw feature values,
                one row per flow at its window boundary.

        Returns:
            ``(kinds, values)`` — ``kinds`` holds :data:`KIND_EXIT`,
            :data:`KIND_NEXT` or :data:`KIND_NONE` per row (first-match
            semantics, identical to the scalar path; ``KIND_NONE`` for a
            subtree without rules), ``values`` the matched class label or
            next subtree id (0 where no rule matched).

        Example::

            >>> kinds, values = rules.classify_batch(np.array([1, 2, 1]), features)
            >>> labels = values[kinds == KIND_EXIT]
        """
        n_rows = feature_matrix.shape[0]
        sids = np.asarray(sid, dtype=np.int64)
        if sids.ndim == 0:
            sids = np.full(n_rows, sids, dtype=np.int64)
        kinds, values, over_cap = self.compiled_lookup().lookup(sids, feature_matrix)
        if over_cap is not None and over_cap.size:
            scanned = sids[over_cap]
            for scan_sid in np.unique(scanned):
                rows = over_cap[scanned == scan_sid]
                kinds[rows], values[rows] = self._classify_batch_scan(
                    self.subtree_rules[int(scan_sid)], feature_matrix[rows]
                )
        return kinds, values

    def _classify_batch_scan(
        self, rules: SubtreeRuleSet, feature_matrix: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """First-match scan over the subtree's model rules (the over-cap fallback)."""
        n_rows = feature_matrix.shape[0]
        kinds = np.full(n_rows, KIND_NONE, dtype=np.int8)
        values = np.zeros(n_rows, dtype=np.int64)
        features = sorted(rules.mark_tables)
        quantized = self.quantizer.quantize_columns(feature_matrix, features)
        marks = {
            feature: rules.mark_tables[feature].marks_for(quantized[:, position])
            for position, feature in enumerate(features)
        }
        unmatched = np.ones(n_rows, dtype=bool)
        for rule in rules.model_rules:
            hit = unmatched.copy()
            for feature, (low, high) in rule.mark_intervals.items():
                feature_marks = marks.get(feature)
                if feature_marks is None:
                    # No mark table for this feature: the rule can never
                    # match, exactly as in the scalar ModelRule.matches.
                    hit[:] = False
                    break
                hit &= (feature_marks >= low) & (feature_marks <= high)
                if not hit.any():
                    break
            if not hit.any():
                continue
            kinds[hit] = KIND_EXIT if rule.outcome_kind == OUTCOME_EXIT else KIND_NEXT
            values[hit] = rule.outcome_value
            unmatched &= ~hit
            if not unmatched.any():
                break
        return kinds, values


# ----------------------------------------------------------------------
# Rule generation
# ----------------------------------------------------------------------
def _leaf_paths(tree: Tree) -> dict[int, dict[int, tuple[float, float]]]:
    """Per leaf, the per-feature float intervals its root path implies.

    One preorder walk tracks ``(low, high]`` constraints: left means
    ``value <= threshold``, right means ``value > threshold``.
    """
    paths: dict[int, dict[int, tuple[float, float]]] = {}
    stack: list[tuple[int, dict[int, tuple[float, float]]]] = [(0, {})]
    while stack:
        node_id, bounds = stack.pop()
        node = tree.nodes[node_id]
        if node.is_leaf:
            paths[node_id] = bounds
            continue
        low, high = bounds.get(node.feature, (-np.inf, np.inf))
        right_bounds = dict(bounds)
        right_bounds[node.feature] = (max(low, node.threshold), high)
        left_bounds = dict(bounds)
        left_bounds[node.feature] = (low, min(high, node.threshold))
        stack.append((node.right, right_bounds))
        stack.append((node.left, left_bounds))
    return paths


def generate_subtree_rules(
    subtree: Subtree, quantizer: FeatureQuantizer
) -> SubtreeRuleSet:
    """Compile one subtree into mark tables and model rules."""
    tree = subtree.tree.tree_
    bit_width = quantizer.bit_width

    mark_tables: dict[int, MarkTable] = {}
    for feature in sorted(tree.features_used()):
        thresholds = [
            quantizer.quantize_value(feature, threshold)
            for threshold in tree.thresholds_for_feature(feature)
        ]
        mark_tables[feature] = MarkTable(
            sid=subtree.sid, feature=feature, thresholds=thresholds, bit_width=bit_width
        )

    model_rules: list[ModelRule] = []
    paths = _leaf_paths(tree)
    for leaf in tree.leaves():
        intervals = paths[leaf.node_id]
        mark_intervals: dict[int, tuple[int, int]] = {}
        for feature, (low, high) in intervals.items():
            table = mark_tables[feature]
            low_q = 0 if np.isneginf(low) else quantizer.quantize_value(feature, low) + 1
            high_q = (
                (1 << bit_width) - 1
                if np.isposinf(high)
                else quantizer.quantize_value(feature, high)
            )
            low_mark = table.mark_for(max(low_q, 0))
            high_mark = table.mark_for(high_q)
            mark_intervals[feature] = (min(low_mark, high_mark), max(low_mark, high_mark))

        outcome = subtree.outcomes.get(leaf.node_id)
        if outcome is None:
            continue
        if outcome.kind == OUTCOME_EXIT:
            model_rules.append(
                ModelRule(
                    sid=subtree.sid,
                    mark_intervals=mark_intervals,
                    outcome_kind=OUTCOME_EXIT,
                    outcome_value=int(outcome.label),
                )
            )
        else:
            model_rules.append(
                ModelRule(
                    sid=subtree.sid,
                    mark_intervals=mark_intervals,
                    outcome_kind="next",
                    outcome_value=int(outcome.next_sid),
                )
            )

    return SubtreeRuleSet(sid=subtree.sid, mark_tables=mark_tables, model_rules=model_rules)


def stacked_training_matrix(windowed, n_partitions: int | None = None, split: str = "train") -> np.ndarray:
    """Row-stack the per-partition feature matrices of a windowed dataset.

    This is the matrix the quantiser scales are fitted on when compiling a
    partitioned model: every window of every training flow contributes one
    row, so the observed per-feature maxima cover all partitions.

    Args:
        windowed: A :class:`~repro.datasets.materialize.WindowedDataset`.
        n_partitions: How many leading partitions to stack; defaults to all
            of the dataset's windows.
        split: Which split to draw rows from.
    """
    count = windowed.n_partitions if n_partitions is None else n_partitions
    if count < 1 or count > windowed.n_partitions:
        raise ValueError(
            f"n_partitions must be in [1, {windowed.n_partitions}], got {count}"
        )
    return np.vstack([windowed.partition_matrix(p, split) for p in range(count)])


def generate_rules(
    model: PartitionedDecisionTree,
    training_matrix: np.ndarray | None = None,
    *,
    bit_width: int | None = None,
    quantizer: FeatureQuantizer | None = None,
) -> RuleSet:
    """Compile a partitioned model into its full TCAM rule set.

    Args:
        model: The trained partitioned decision tree.
        training_matrix: A feature matrix used to fit the quantiser scales
            (typically the whole-flow or stacked window training matrix).
            May be omitted when a fitted ``quantizer`` is supplied.
        bit_width: Feature precision; defaults to the model configuration's.
        quantizer: A pre-fitted :class:`FeatureQuantizer` to reuse instead of
            fitting one on ``training_matrix``.  The DSE's evaluation context
            caches the fit per ``(n_partitions, bit_width)`` — the scales only
            depend on the dataset, not the candidate — so repeated candidates
            skip the fit entirely.  Must have been fitted at ``bit_width``
            bits on the same matrix the direct path would use, or the
            compiled rules will differ.
    """
    width = bit_width if bit_width is not None else model.config.bit_width
    if quantizer is None:
        if training_matrix is None:
            raise ValueError("either training_matrix or quantizer is required")
        quantizer = FeatureQuantizer(bit_width=width).fit(training_matrix)
    subtree_rules = {
        sid: generate_subtree_rules(subtree, quantizer)
        for sid, subtree in model.subtrees.items()
    }
    return RuleSet(subtree_rules=subtree_rules, quantizer=quantizer, bit_width=width)
