"""Hand-computed regression tests for the fused window plane.

The parity-fuzz suite (:mod:`tests.test_parity_fuzz`) checks the batched
engines against the per-packet oracle; these tests pin the *intended*
semantics with expectations computed by hand, so a bug that broke oracle and
batched plane identically would still be caught:

* :func:`repro.dataplane.vectorized._segment_rounds` — the window-segment
  masks every fused round is built from, against hand-expanded boundary
  tables;
* :meth:`~repro.dataplane.splidt_program.SpliDTDataPlane.step_windows` — the
  last-window/early-exit/recirculation decision logic, driven by a scripted
  rule table so each row's classification outcome is chosen by the test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.range_marking import KIND_EXIT, KIND_NEXT, KIND_NONE
from repro.dataplane import SpliDTDataPlane
from repro.dataplane import vectorized as vz
from repro.features.definitions import N_FEATURES


# ----------------------------------------------------------------------
# _segment_rounds: hand-expanded window boundary tables (P = 3)
# ----------------------------------------------------------------------
class TestSegmentRounds:
    # For count c and P=3 the reference boundary rule yields cumulative
    # boundaries (c//3)*(w+1) + min(w+1, c%3); each round's segment is
    # [previous trigger, max(boundary, pos+1)) clipped to c, valid while
    # packets remain.  Expanded by hand:
    #
    #   c=1: [0,1)   --      --       (windows 1,2 never see a packet)
    #   c=2: [0,1)  [1,2)    --
    #   c=3: [0,1)  [1,2)   [2,3)
    #   c=5: [0,2)  [2,4)   [4,5)
    #   c=7: [0,3)  [3,5)   [5,7)
    EXPECTED = {
        1: [(True, 0, 1), (False, None, None), (False, None, None)],
        2: [(True, 0, 1), (True, 1, 2), (False, None, None)],
        3: [(True, 0, 1), (True, 1, 2), (True, 2, 3)],
        5: [(True, 0, 2), (True, 2, 4), (True, 4, 5)],
        7: [(True, 0, 3), (True, 3, 5), (True, 5, 7)],
    }

    def test_hand_expanded_boundaries(self):
        counts = np.array(sorted(self.EXPECTED), dtype=np.int64)
        rounds = vz._segment_rounds(counts, 3)
        assert len(rounds) == 3
        for w, (valid, start, end) in enumerate(rounds):
            for row, count in enumerate(counts.tolist()):
                want_valid, want_start, want_end = self.EXPECTED[count][w]
                assert bool(valid[row]) is want_valid, (count, w)
                if want_valid:
                    assert (start[row], end[row]) == (want_start, want_end), (count, w)

    def test_segments_tile_each_flow_exactly(self):
        # Valid segments are contiguous, disjoint, and cover [0, count).
        counts = np.arange(1, 40, dtype=np.int64)
        for n_partitions in (1, 2, 3, 4, 7):
            rounds = vz._segment_rounds(counts, n_partitions)
            position = np.zeros(counts.size, dtype=np.int64)
            for valid, start, end in rounds:
                idx = np.flatnonzero(valid)
                assert np.array_equal(start[idx], position[idx])
                assert np.all(end[idx] > start[idx])
                position[idx] = end[idx]
            assert np.array_equal(position, counts)

    def test_short_flow_runs_out_of_windows(self):
        # A flow with fewer packets than partitions exhausts its stream in
        # an early window: the remaining rounds are invalid, which is why
        # such a flow can end undecided (and must replay scalar when its
        # slot has successors).
        rounds = vz._segment_rounds(np.array([2], dtype=np.int64), 5)
        validity = [bool(valid[0]) for valid, _, _ in rounds]
        assert validity == [True, True, False, False, False]


# ----------------------------------------------------------------------
# step_windows: scripted classification outcomes
# ----------------------------------------------------------------------
class _ScriptedRules:
    """Stands in for the compiled rule set: outcomes chosen by the test."""

    def __init__(self, kinds, values):
        self.kinds = np.asarray(kinds, dtype=np.int8)
        self.values = np.asarray(values, dtype=np.int64)

    def classify_batch(self, sid, matrix, lookup=None):
        assert len(matrix) == self.kinds.size
        return self.kinds, self.values


def _step(program, kinds, values, *, window_index, staging=None):
    """Drive one ``step_windows`` round with scripted outcomes."""
    n = len(kinds)
    program.rules = _ScriptedRules(kinds, values)
    flow_ids = np.arange(n, dtype=np.int64)
    sids = np.full(n, program.model.root_sid, dtype=np.int64)
    program.begin_flows(np.arange(n, dtype=np.intp))
    advance, out_values = program.step_windows(
        flow_ids=flow_ids,
        sids=sids,
        window_index=window_index,
        feature_matrix=np.zeros((n, N_FEATURES)),
        boundary_ts=np.arange(n, dtype=np.float64) + 10.0,
        first_packet_ts=np.arange(n, dtype=np.float64),
        staging=staging,
    )
    return advance, out_values


@pytest.fixture()
def program(splidt_model, splidt_rules):
    return SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=64)


class TestStepWindows:
    def test_last_window_never_advances(self, program):
        # Even a "next subtree" outcome decides at the final window: there
        # is no further window to recirculate into.
        last = program.model.config.n_partitions - 1
        advance, _ = _step(program, [KIND_NEXT, KIND_NEXT], [5, 6], window_index=last)
        assert not advance.any()
        default = program.model.default_label
        assert program.verdicts[0].label == default
        assert program.verdicts[0].early_exit is False
        assert program.verdicts[0].n_recirculations == last
        assert program.recirculation.packets_recirculated == 0

    def test_early_exit_before_last_window(self, program):
        advance, _ = _step(program, [KIND_EXIT], [7], window_index=0)
        assert not advance.any()
        verdict = program.verdicts[0]
        assert verdict.label == 7
        assert verdict.early_exit is True
        assert verdict.n_recirculations == 0

    def test_exit_at_last_window_is_not_early(self, program):
        last = program.model.config.n_partitions - 1
        _step(program, [KIND_EXIT], [7], window_index=last)
        verdict = program.verdicts[0]
        assert verdict.label == 7
        assert verdict.early_exit is False

    def test_miss_decides_with_default_label(self, program):
        _step(program, [KIND_NONE], [0], window_index=0)
        verdict = program.verdicts[0]
        assert verdict.label == program.model.default_label
        assert verdict.early_exit is False

    def test_recirculation_while_decided_interleaving(self, program):
        # One batch mixing every outcome: rows 0 and 3 recirculate into
        # subtrees 11/13, row 1 exits early, row 2 misses.  The decided rows
        # must not recirculate, and the advancing rows must not decide.
        kinds = [KIND_NEXT, KIND_EXIT, KIND_NONE, KIND_NEXT]
        values = [11, 9, 0, 13]
        advance, out_values = _step(program, kinds, values, window_index=0)

        assert advance.tolist() == [True, False, False, True]
        assert out_values[advance].tolist() == [11, 13]
        # Verdicts exactly for the decided rows.
        assert sorted(program.verdicts) == [1, 2]
        assert program.verdicts[1].label == 9
        assert program.verdicts[1].early_exit is True
        assert program.verdicts[2].label == program.model.default_label
        # Exactly one control packet per advancing flow.
        assert program.recirculation.packets_recirculated == 2
        # Four flows were admitted, whatever became of them.
        assert program.eviction_stats()["admissions"] == 4
        # Digest per decided flow, stamped with the boundary timestamp.
        digests = {d.flow_id: d for d in program.controller.digests}
        assert sorted(digests) == [1, 2]
        assert digests[1].timestamp == 11.0

    def test_staging_defers_finalisation(self, program):
        staging = []
        _step(program, [KIND_EXIT, KIND_NONE], [4, 0], window_index=0,
              staging=staging)
        # Nothing materialised yet: the round loop owns finalisation.
        assert program.verdicts == {}
        assert program.controller.digests == []
        assert len(staging) == 1

        program.finalise_staged(staging)
        assert staging == []
        assert sorted(program.verdicts) == [0, 1]
        assert program.verdicts[0].label == 4
        assert [d.flow_id for d in program.controller.digests] == [0, 1]

        # Idempotent on the drained list.
        program.finalise_staged(staging)
        assert len(program.controller.digests) == 2

    @pytest.mark.parametrize("per_row_window", [False, True])
    def test_digests_are_built_only_when_retained(self, program, per_row_window):
        # Same verdicts and digest count either way; Digest objects only for a
        # controller that keeps them.  Flow 7 is decided twice in one batch.
        n_partitions = program.model.config.n_partitions
        columns = dict(
            flow_ids=np.array([7, 3, 7], dtype=np.int64),
            sids=np.array([1, 2, 5], dtype=np.int64),
            labels=np.array([4, 6, 8], dtype=np.int64),
            boundary_ts=np.array([1.5, 2.5, 3.5]),
            first_packet_ts=np.array([1.0, 2.0, 3.0]),
            window_index=np.array([0, 1, n_partitions - 1]) if per_row_window else 1,
            early_exits=np.array([True, False, False]),
        )
        silent = type(program)(program.model, program.rules, flow_slots=program.flow_slots)
        silent.controller.retain_digests = False
        for target in (program, silent):
            target._finalise_batch(**columns)
        assert silent.verdicts == program.verdicts
        assert silent.controller.n_digests == program.controller.n_digests == 3
        assert silent.controller.digests == []
        assert [(d.flow_id, d.label, d.timestamp, d.sid) for d in program.controller.digests] == [
            (7, 4, 1.5, 1), (3, 6, 2.5, 2), (7, 8, 3.5, 5)
        ]
        later = program.verdicts[7]  # the later row of a repeated flow id stays
        assert (later.label, later.decided_at, later.first_packet_at, later.early_exit) == (
            8, 3.5, 3.0, False)
        assert later.n_recirculations == (n_partitions - 1 if per_row_window else 1)
        assert all(type(v.flow_id) is int and type(v.label) is int
                   for v in program.verdicts.values())
