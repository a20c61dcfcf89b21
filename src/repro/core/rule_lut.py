"""Compiled lookup plane: the model tables as one dense mark-space LUT.

On hardware the model table is a TCAM keyed by the subtree id (SID) plus the
per-feature marks: a window boundary costs one lookup whichever subtree is
active.  The replay engines historically emulated that lookup as a
first-match *scan* over every :class:`~repro.core.range_marking.ModelRule`
in Python — correct, but a per-rule interpreter tax on the single hottest
loop in the repository (it runs inside batch replay, micro-batch serving,
and every worker of the process-sharded engine).

This module compiles each :class:`~repro.core.range_marking.SubtreeRuleSet`
into a dense LUT over its *mark space* at deploy time, and stacks every
subtree's LUT into one plane (:class:`CompiledLookup`): concatenated kinds
and values, a first cell per SID, and per-(SID, axis) feature, boundary
block and mark weights.  A window round's rows, whatever subtrees they are in,
are classified by one :meth:`CompiledLookup.lookup` of a fixed number of
NumPy primitives:

1. one gather of every row's axes (its SID's, padded to the most any SID
   has) and their raw feature values (the feature-table stage of the
   pipeline),
2. a vectorised bisection of each value within its axis's sorted boundaries
   — ``searchsorted(boundaries, value, side="right")`` for every pair at
   once, a step per bit of the longest boundary list,
3. one sum of each row's mark weights into its flat cell (the match-key
   assembly), and
4. one gather each from the ``int8`` kinds and ``int64`` values arrays
   (the model-table lookup).

Each LUT is filled by replaying the subtree's rules in *reverse* priority
order — earlier (higher-priority) rules overwrite later ones — so the dense
table reproduces first-match ternary semantics bit for bit, including rules
that can never match because they test a feature the subtree has no mark
table for, and cells no rule covers (``KIND_NONE``).  A row whose SID has no
rules lands on one extra ``KIND_NONE`` cell.

A subtree whose mark-space product exceeds ``max_cells`` is left
uncompiled; :meth:`repro.core.range_marking.RuleSet.classify_batch` runs the
first-match scan for exactly the rows in those subtrees.

The bit-identity contract covers finite feature values (everything the
feature extractors produce).  ``NaN`` inputs are outside it: the scan path
pushes ``NaN`` through an undefined ``float -> int64`` cast while the
bisection compares ``NaN`` below every boundary, so the two paths may pick
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
    """The compiled lookup plane of a whole :class:`RuleSet`: one stacked model table.

    Every compiled subtree LUT is stacked at build time — kinds and values
    concatenated behind one extra ``KIND_NONE`` cell, a first cell per SID,
    and per (SID, axis) the feature and a block of its sorted boundaries
    with each mark's weight in the flat cell index, padded per SID to the
    most axes any SID has — so :meth:`lookup`
    classifies rows of any mix of subtrees at once, as the switch's one
    model table keyed by SID plus marks does.

    Attributes:
        luts: Per-subtree LUT, or ``None`` for subtrees whose mark space
            exceeded ``max_cells`` (those keep the first-match scan).
        max_cells: The cap the plane was compiled under.
    """

    luts: dict[int, SubtreeLUT | None]
    max_cells: int

    def __post_init__(self) -> None:
        compiled = sorted(sid for sid, lut in self.luts.items() if lut is not None)
        n_tables = len(compiled)
        #: Table code of a SID without rules, and of an over-cap SID; both
        #: start at the extra KIND_NONE cell and have no axis.
        self._no_table, self._over_cap = n_tables, n_tables + 1
        # Indexed by sid + 1 (SIDs are non-negative), clipped: a negative or
        # unknown SID reads "no table".
        self._code = np.full(max(self.luts, default=0) + 3, self._no_table, dtype=np.intp)
        for sid in self.luts:
            self._code[sid + 1] = self._over_cap
        for code, sid in enumerate(compiled):
            self._code[sid + 1] = code
        tables = [self.luts[sid] for sid in compiled]

        sizes = np.array([lut.n_cells for lut in tables] + [1, 0], dtype=np.intp)
        self._base = np.cumsum(sizes) - sizes
        self._base[self._over_cap] = self._base[self._no_table]
        self._kinds = np.concatenate(
            [lut.kinds for lut in tables] + [np.array([KIND_NONE], dtype=np.int8)]
        )
        self._values = np.concatenate(
            [lut.values for lut in tables] + [np.zeros(1, dtype=np.int64)]
        )
        for lut, base in zip(tables, self._base):
            # The plane holds the cells once: each LUT keeps views of its block.
            lut.kinds = self._kinds[base : base + lut.n_cells]
            lut.values = self._values[base : base + lut.n_cells]
        axes = [
            (feature, math.prod(lut.shape[axis + 1:]), lut.boundaries[axis])
            for lut in tables
            for axis, feature in enumerate(lut.features)
        ]
        # Axis a owns the 2**steps slots from ``a << steps``: its sorted
        # boundaries, then NaN, which compares False against any value like a
        # boundary past them all, so a fixed ``steps``-step bisection from the
        # block's first slot ends on slot ``(a << steps) + mark``.  That
        # slot's weight is the mark's share of the flat cell index.  One more
        # axis, all NaN and weight 0, pads a subtree's axes to the most any
        # subtree has: it adds nothing to a row's cell.
        longest = max((bounds.size for _, _, bounds in axes), default=0)
        self._steps = longest.bit_length()
        span = 1 << self._steps
        self._bounds = np.full((len(axes) + 1) * span, np.nan)
        self._weight = np.zeros((len(axes) + 1) * span, dtype=np.intp)
        for index, (_, stride, bounds) in enumerate(axes):
            block = index * span
            self._bounds[block : block + bounds.size] = bounds
            self._weight[block : block + span] = np.arange(span) * stride
        # Per bisection step: its half, and the boundaries as seen from the
        # slot the step tests (``slot + half - 1``), a view.
        self._halves = tuple(
            (half, self._bounds[half - 1 :])
            for half in (1 << step for step in reversed(range(self._steps)))
        )
        # Per (axis position, table code): the axis's first slot
        # (``_axes[0]``) and feature (``_axes[1]``), padded; a lookup's pairs
        # are a (position, row) grid.
        width = max([len(lut.features) for lut in tables] + [1])
        self._axes = np.zeros((2, width, n_tables + 2), dtype=np.intp)
        self._axes[0] = len(axes) << self._steps
        first = 0
        for code, lut in enumerate(tables):
            n_axes = len(lut.features)
            self._axes[0, :n_axes, code] = np.arange(first, first + n_axes) << self._steps
            self._axes[1, :n_axes, code] = lut.features
            first += n_axes

    def lookup(
        self, sids: np.ndarray, feature_matrix: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """One model-table lookup for rows in any mix of subtrees.

        Row ``i`` is matched in subtree ``sids[i]``.  Each of its subtree's
        axes reads the row's raw feature value and finds its mark as
        ``searchsorted(boundaries, value, side="right")`` — a branch-free
        bisection of every (row, axis) pair at once, one step per bit of the
        longest boundary list — and the marks' weights sum to the row's flat
        cell.  The work is per pair, whatever the number of subtrees.

        Returns:
            ``(kinds, values, over_cap)``: ``int8`` kinds and ``int64``
            values (``KIND_NONE`` / 0 for a SID without rules), and the rows
            whose subtree is over the cell cap (``None`` when the plane has
            none) — their kinds and values are placeholders for the caller's
            scan.
        """
        codes = self._code.take(sids + 1, mode="clip")
        # ``take`` along an axis: a 2-D fancy index costs several times more.
        slot, feature = self._axes.take(codes, axis=2)
        values = feature_matrix[np.arange(codes.size), feature]
        for half, bounds in self._halves:
            slot += (bounds[slot] <= values) * half
        flat = self._base[codes] + np.add.reduce(self._weight[slot], axis=0)
        over_cap = None
        if len(self.luts) > self._no_table:
            over_cap = (codes == self._over_cap).nonzero()[0]
        return self._kinds[flat], self._values[flat], over_cap

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
