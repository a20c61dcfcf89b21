"""Compiled lookup plane: dense mark-space LUTs for the model tables.

On hardware the model table is a TCAM: the match key (SID + per-feature
marks) indexes the table in one cycle.  The replay engines historically
emulated that lookup as a first-match *scan* over every
:class:`~repro.core.range_marking.ModelRule` in Python — correct, but a
per-rule interpreter tax on the single hottest loop in the repository (it
runs inside batch replay, micro-batch serving, and every worker of the
process-sharded engine).

This module compiles each :class:`~repro.core.range_marking.SubtreeRuleSet`
into a dense LUT over its *mark space* at deploy time, so a batch lookup is
three NumPy primitives:

1. per-feature ``searchsorted`` of the quantised values against the mark
   table's thresholds (the feature-table stage of the pipeline),
2. ``ravel_multi_index`` of the per-feature marks into one flat cell index
   (the match-key assembly), and
3. one gather each from the ``int8`` kinds and ``int64`` values arrays
   (the model-table lookup).

The LUT is filled by replaying the subtree's rules in *reverse* priority
order — earlier (higher-priority) rules overwrite later ones — so the dense
table reproduces first-match ternary semantics bit for bit, including rules
that can never match because they test a feature the subtree has no mark
table for, and cells no rule covers (``KIND_NONE``).

A subtree whose mark-space product exceeds ``max_cells`` is left
uncompiled; :meth:`repro.core.range_marking.RuleSet.classify_batch` falls
back to the scan for exactly those subtrees.

The bit-identity contract covers finite feature values (everything the
feature extractors produce).  ``NaN`` inputs are outside it: the scan path
pushes ``NaN`` through an undefined ``float -> int64`` cast while
``searchsorted`` sorts it past every boundary, so the two paths may pick
different cells for such rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.partitioned_tree import OUTCOME_EXIT
from repro.core.range_marking import (
    KIND_EXIT,
    KIND_NEXT,
    KIND_NONE,
    RuleSet,
    SubtreeRuleSet,
)

#: Default per-subtree cap on the dense mark-space size (LUT cells).  A cell
#: costs 9 bytes (int8 kind + int64 value), so the cap bounds a subtree's
#: LUT at ~9 MiB; paper-scale subtrees (depth D/P, k features) sit orders
#: of magnitude below it.
DEFAULT_MAX_CELLS = 1 << 20


@dataclass
class SubtreeLUT:
    """The dense mark-space LUT of one subtree's model table.

    The per-axis ``boundaries`` live in the *raw* feature domain — exactly
    like the hardware feature tables, which match on raw header values.
    Boundary ``b_t`` is the smallest float whose quantised level exceeds
    mark threshold ``t`` (bisected and verified at compile time), so
    ``searchsorted(boundaries, value, side="right")`` produces the same
    mark as quantising first — bit for bit — while the lookup itself never
    touches the quantiser.

    Attributes:
        sid: Owning subtree id.
        features: The subtree's mark-table features, ascending — one LUT
            axis per feature, in this order.
        boundaries: Per-axis raw-domain range boundaries (ascending
            ``float64``; duplicates allowed when quantisation is coarse).
        shape: Mark-space extent per axis (``n_ranges`` of each feature).
        kinds: Flat ``int8`` outcome-kind array (``KIND_NONE`` /
            ``KIND_EXIT`` / ``KIND_NEXT``), C-ordered over ``shape`` — the
            scan path's return dtype, so a gather needs no conversion.
        values: Flat ``int64`` outcome-value array (class label or next
            subtree id; 0 where no rule matches).
    """

    sid: int
    features: tuple[int, ...]
    boundaries: tuple[np.ndarray, ...]
    shape: tuple[int, ...]
    kinds: np.ndarray
    values: np.ndarray

    @property
    def n_cells(self) -> int:
        """Dense mark-space size (product of the per-feature range counts)."""
        return int(self.kinds.size)

    def lookup(self, feature_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched model-table lookup over raw feature rows.

        Three NumPy primitives, no quantisation: per-axis ``searchsorted``
        of the raw column against the compiled boundaries (the feature
        tables), a Horner fold of the marks into one flat cell index (the
        match-key assembly; equivalent to ``ravel_multi_index`` without its
        bounds checks), and one gather each from the kinds/values arrays
        (the model table).

        Args:
            feature_matrix: ``(n_rows, n_features)`` raw feature values.

        Returns:
            ``(kinds, values)`` with the exact dtypes and contents of the
            scan path: ``int8`` kinds and ``int64`` values.
        """
        if not self.features:
            # Single-leaf subtree: every row hits the one cell.
            flat = np.zeros(feature_matrix.shape[0], dtype=np.intp)
        else:
            matrix = np.asarray(feature_matrix, dtype=np.float64)
            flat = None
            for axis, bounds in enumerate(self.boundaries):
                column = matrix[:, self.features[axis]]
                if bounds.size == 1:
                    # One boundary -> the mark is a single comparison; the
                    # bool buffer is reused as uint8 (0/1) without a cast.
                    marks = (column >= bounds[0]).view(np.uint8)
                else:
                    marks = np.searchsorted(bounds, column, side="right")
                if flat is None:
                    flat = marks.astype(np.intp) if marks.dtype == np.uint8 else marks
                else:
                    np.multiply(flat, self.shape[axis], out=flat)
                    np.add(flat, marks, out=flat)
        return self.kinds[flat], self.values[flat]


def _raw_boundary(threshold: int, scale: float, max_level: int) -> float:
    """Smallest raw float whose quantised level exceeds ``threshold``.

    Bisects the raw domain against the exact quantisation chain (same
    float64 operations, in the same order, as
    ``FeatureQuantizer.quantize_matrix``), so
    ``value >= boundary  <=>  quantize(value) > threshold`` holds for every
    representable float — the compiled feature table is bit-identical to
    quantise-then-compare.  Returns ``inf`` when no finite value exceeds
    the threshold (``threshold >= max_level``).
    """

    def level(value: float):
        clipped = min(max(value, 0.0), scale)
        return np.round(np.float64(clipped) / scale * max_level)

    if not level(scale) > threshold:
        return np.inf
    lo, hi = 0.0, float(scale)
    # Invariant: level(lo) <= threshold < level(hi); stop when adjacent.
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if level(mid) > threshold:
            hi = mid
        else:
            lo = mid
    return hi


def compile_subtree_lut(
    rules: SubtreeRuleSet, quantizer, *, max_cells: int = DEFAULT_MAX_CELLS
) -> SubtreeLUT | None:
    """Compile one subtree's model rules into a dense LUT.

    ``quantizer`` is the fitted
    :class:`~repro.core.range_marking.FeatureQuantizer` the rules were
    generated under — its scales anchor the raw-domain boundary bisection.
    Returns ``None`` when the subtree's mark-space product exceeds
    ``max_cells`` — the caller keeps the first-match scan for that subtree.
    """
    features = tuple(sorted(rules.mark_tables))
    shape = tuple(rules.mark_tables[feature].n_ranges for feature in features)
    # math.prod: arbitrary-precision, so an astronomically large mark space
    # cannot wrap past the cap check and crash the allocation below.
    n_cells = math.prod(shape) if shape else 1
    if n_cells > max_cells:
        return None

    kinds = np.full(n_cells, KIND_NONE, dtype=np.int8)
    values = np.zeros(n_cells, dtype=np.int64)
    kinds_nd = kinds.reshape(shape)
    values_nd = values.reshape(shape)

    # Reverse priority order: the scan stops at the first matching rule, so
    # writing low-priority rules first and letting earlier rules overwrite
    # them leaves every cell holding its first-match outcome.
    for rule in reversed(rules.model_rules):
        if any(feature not in rules.mark_tables for feature in rule.mark_intervals):
            # The rule tests a feature the subtree has no mark table for:
            # it can never match (ModelRule.matches returns False), so it
            # must not occupy any cell.
            continue
        axes = []
        empty = False
        for axis, feature in enumerate(features):
            low, high = rule.mark_intervals.get(feature, (0, shape[axis] - 1))
            low, high = max(low, 0), min(high, shape[axis] - 1)
            if high < low:
                empty = True
                break
            axes.append(np.arange(low, high + 1, dtype=np.intp))
        if empty:
            continue
        kind = KIND_EXIT if rule.outcome_kind == OUTCOME_EXIT else KIND_NEXT
        if axes:
            region = np.ix_(*axes)
            kinds_nd[region] = kind
            values_nd[region] = rule.outcome_value
        else:
            kinds[0] = kind
            values[0] = rule.outcome_value

    scales = quantizer._check_fitted()
    boundaries = tuple(
        np.array(
            [
                _raw_boundary(threshold, float(scales[feature]), quantizer.max_level)
                for threshold in rules.mark_tables[feature].thresholds
            ],
            dtype=np.float64,
        )
        for feature in features
    )
    return SubtreeLUT(
        sid=rules.sid,
        features=features,
        boundaries=boundaries,
        shape=shape,
        kinds=kinds,
        values=values,
    )


@dataclass
class CompiledLookup:
    """The compiled lookup plane of a whole :class:`RuleSet`.

    Attributes:
        luts: Per-subtree LUT, or ``None`` for subtrees whose mark space
            exceeded ``max_cells`` (those keep the first-match scan).
        max_cells: The cap the plane was compiled under.
    """

    luts: dict[int, SubtreeLUT | None]
    max_cells: int

    def get(self, sid: int) -> SubtreeLUT | None:
        """The subtree's LUT, or ``None`` (unknown sid or over-cap)."""
        return self.luts.get(sid)

    def stats(self) -> dict[str, int]:
        """Compilation summary: subtree/cell counts and fallback tally."""
        compiled = [lut for lut in self.luts.values() if lut is not None]
        return {
            "n_subtrees": len(self.luts),
            "n_compiled": len(compiled),
            "n_fallback": len(self.luts) - len(compiled),
            "total_cells": sum(lut.n_cells for lut in compiled),
        }


def compile_lookup(
    rules: RuleSet, *, max_cells: int | None = None
) -> CompiledLookup:
    """Compile every subtree of ``rules`` into the dense lookup plane.

    Example::

        >>> plane = compile_lookup(rules)
        >>> plane.stats()["n_fallback"]  # doctest: +SKIP
        0
    """
    cap = DEFAULT_MAX_CELLS if max_cells is None else max_cells
    return CompiledLookup(
        luts={
            sid: compile_subtree_lut(subtree_rules, rules.quantizer, max_cells=cap)
            for sid, subtree_rules in rules.subtree_rules.items()
        },
        max_cells=cap,
    )
