"""Hand-computed regression tests for the fused window plane.

The parity-fuzz suite (:mod:`tests.test_parity_fuzz`) checks the batched
engines against the per-packet oracle; these tests pin the *intended*
semantics with expectations computed by hand, so a bug that broke oracle and
batched plane identically would still be caught:

* :func:`repro.dataplane.vectorized.window_ends` — the window ends every
  lock-step round is built from, against hand-expanded boundary tables;
* :meth:`~repro.dataplane.splidt_program.SpliDTDataPlane.step_windows` — the
  last-window/early-exit/recirculation decision logic, driven by a scripted
  rule table so each row's classification outcome is chosen by the test;
* the window plane keeps no state between calls: aggregators share the
  source's derived columns, and a replay repeated on a fresh program is
  bit-identical;
* a window round costs one fill (each kernel family once) and one
  model-table lookup whatever mix of subtrees its rows are in, on every
  plane that closes rounds — except a serving session's lockstep rounds,
  which gather their rows from the session's one window table.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.range_marking import KIND_EXIT, KIND_NEXT, KIND_NONE, RuleSet
from repro.dataplane import SpliDTDataPlane, replay_dataset
from repro.dataplane import vectorized as vz
from repro.datasets.flows import FiveTuple, Flow, Packet, PacketArrays
from repro.features.definitions import FEATURES, N_FEATURES
from repro.features.window import window_bounds


# ----------------------------------------------------------------------
# window_ends: hand-expanded window boundary tables (P = 3)
# ----------------------------------------------------------------------
def _window_ends(counts, n_partitions: int) -> np.ndarray:
    """``vz.window_ends`` over flows of ``counts`` packets (it reads nothing else), flow by flow.

    The table is window-major, ``(P + 1, n_flows)``; a row here is one flow's.
    """
    source = SimpleNamespace(n_packets_per_flow=np.asarray(counts, dtype=np.int64), derived={})
    ends = vz.window_ends(source, n_partitions)
    assert ends.shape == (n_partitions + 1, len(counts))
    return ends.T


class TestSegmentRounds:
    # For count c and P=3 the reference boundary rule yields cumulative
    # boundaries (c//3)*(w+1) + min(w+1, c%3); window w covers
    # [previous end, boundary), and a window with no packet left does not
    # exist.  Expanded by hand:
    #
    #   c=1: [0,1)   --      --       (windows 1,2 never see a packet)
    #   c=2: [0,1)  [1,2)    --
    #   c=3: [0,1)  [1,2)   [2,3)
    #   c=5: [0,2)  [2,4)   [4,5)
    #   c=7: [0,3)  [3,5)   [5,7)
    EXPECTED = {
        1: [1, None, None],
        2: [1, 2, None],
        3: [1, 2, 3],
        5: [2, 4, 5],
        7: [3, 5, 7],
    }

    def test_hand_expanded_boundaries(self):
        counts = sorted(self.EXPECTED)
        ends = _window_ends(counts, 3)
        assert ends.shape == (len(counts), 4)
        for row, count in enumerate(counts):
            want = [vz.NO_WINDOW if end is None else end for end in self.EXPECTED[count]]
            assert ends[row].tolist() == want + [vz.NO_WINDOW], count

    def test_segments_tile_each_flow_exactly(self):
        # The windows a flow has are contiguous, non-empty, and cover [0, count).
        counts = np.arange(1, 40, dtype=np.int64)
        for n_partitions in (1, 2, 3, 4, 7):
            ends = _window_ends(counts, n_partitions)
            for count, row in zip(counts.tolist(), ends.tolist()):
                windows = [end for end in row if end != vz.NO_WINDOW]
                assert row == windows + [vz.NO_WINDOW] * (len(row) - len(windows))
                starts = [0] + windows[:-1]
                assert all(end > start for start, end in zip(starts, windows))
                assert windows[-1] == count

    def test_short_flow_runs_out_of_windows(self):
        # A flow with fewer packets than partitions exhausts its stream in
        # an early window: the remaining windows do not exist, which is why
        # such a flow can end undecided (and must replay on the slot-stream
        # plane when its slot has successors).
        ends = _window_ends([2], 5)
        assert [end != vz.NO_WINDOW for end in ends[0, :5]] == [True, True, False, False, False]

    @pytest.mark.parametrize("n_partitions", [1, 2, 3, 4, 5, 7])
    def test_equals_masked_window_bounds(self, n_partitions):
        counts = np.random.default_rng(n_partitions).integers(0, 60, size=5000)
        bounds = window_bounds(counts, n_partitions)
        opened = np.hstack([np.zeros((counts.size, 1), dtype=bounds.dtype), bounds[:, :-1]])
        want = np.where(bounds > opened, bounds, vz.NO_WINDOW)
        ends = _window_ends(counts, n_partitions)
        assert np.array_equal(ends[:, :-1], want)
        assert np.all(ends[:, -1] == vz.NO_WINDOW)


# ----------------------------------------------------------------------
# step_windows: scripted classification outcomes
# ----------------------------------------------------------------------
class _ScriptedRules:
    """Stands in for the compiled rule set: outcomes chosen by the test."""

    def __init__(self, kinds, values):
        self.kinds = np.asarray(kinds, dtype=np.int8)
        self.values = np.asarray(values, dtype=np.int64)

    def classify_batch(self, sid, matrix):
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
        assert program.counters["switch.recirc.packets"] == 0

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
        assert program.counters["switch.recirc.packets"] == 2
        # Four flows were admitted, whatever became of them.
        assert program.eviction_stats()["admissions"] == 4
        # A decided row and a digest per decided flow, stamped with the
        # boundary timestamp.
        flow_ids, _, decided_at = program.verdict_rows()[:3]
        assert sorted(flow_ids.tolist()) == [1, 2]
        assert dict(zip(flow_ids.tolist(), decided_at.tolist()))[1] == 11.0
        assert program.controller.n_digests == 2

    def test_staging_defers_finalisation(self, program):
        staging = []
        _step(program, [KIND_EXIT, KIND_NONE], [4, 0], window_index=0,
              staging=staging)
        # Nothing materialised yet: the round loop owns finalisation.
        assert program.verdicts == {}
        assert program.controller.n_digests == 0
        assert len(staging) == 1

        program.finalise_staged(staging)
        assert staging == []
        assert sorted(program.verdicts) == [0, 1]
        assert program.verdicts[0].label == 4
        assert program.verdict_rows()[0].tolist() == [0, 1]
        assert program.controller.n_digests == 2

        # Idempotent on the drained list.
        program.finalise_staged(staging)
        assert program.controller.n_digests == 2

    @pytest.mark.parametrize("per_row_window", [False, True])
    def test_a_batch_keeps_every_row_and_the_later_verdict(self, program, per_row_window):
        # Every row is recorded and sent as a digest, in order; the verdict is
        # the later row's.  Flow 7 is decided twice in one batch.
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
        program._finalise_batch(**columns)
        assert program.controller.n_digests == 3
        flow_ids, labels, decided_at, _, _, _, sids = program.verdict_rows()
        assert list(zip(flow_ids.tolist(), labels.tolist(), decided_at.tolist(), sids.tolist())) == [
            (7, 4, 1.5, 1), (3, 6, 2.5, 2), (7, 8, 3.5, 5)
        ]
        later = program.verdicts[7]  # the later row of a repeated flow id stays
        assert (later.label, later.decided_at, later.first_packet_at, later.early_exit) == (
            8, 3.5, 3.0, False)
        assert later.n_recirculations == (n_partitions - 1 if per_row_window else 1)
        assert all(type(v.flow_id) is int and type(v.label) is int
                   for v in program.verdicts.values())


# ----------------------------------------------------------------------
# The window plane keeps no state between calls
# ----------------------------------------------------------------------
def _make_flows(n_flows: int, n_packets: int) -> list[Flow]:
    flows = []
    for i in range(n_flows):
        tuple_ = FiveTuple(
            src_ip=10_000 + i, dst_ip=20_000 + i,
            src_port=1000 + i, dst_port=443, protocol=6,
        )
        base = 0.05 * i
        packets = [
            Packet(timestamp=base + 0.01 * j, size=100 + j, flags=0x10,
                   direction=1 if j % 2 == 0 else -1, payload=60 + j)
            for j in range(n_packets)
        ]
        flows.append(Flow(five_tuple=tuple_, packets=packets, label=i % 2,
                          class_name="", flow_id=i))
    return flows


class TestStatelessPlane:
    def test_aggregators_share_every_derived_column(self):
        # The aggregator holds no per-replay state: a second one over the
        # same source (the next flush, the next replay) finds every derived
        # column on ``soa.derived`` and builds none of its own.
        soa = PacketArrays.from_flows(_make_flows(5, 12))
        s = soa.flow_starts[:-1] + 2
        e = soa.flow_starts[1:]
        stateful = [f.index for f in FEATURES if f.stateful]
        first = vz._WindowAggregator(soa)
        values = [first.compute(feature, s, e) for feature in stateful]
        columns = {key: id(column) for key, column in soa.derived.items()}
        assert columns

        second = vz._WindowAggregator(soa)
        again = [second.compute(feature, s, e) for feature in stateful]
        assert {key: id(column) for key, column in soa.derived.items()} == columns
        assert all(a.tobytes() == b.tobytes() for a, b in zip(values, again))
        assert vars(first).keys() == vars(second).keys() == {"_soa"}

    def test_replay_twice_same_flows_is_deterministic(self, splidt_model, splidt_rules):
        flows = _make_flows(10, 8)
        snapshots = []
        for _ in range(2):
            program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=65536)
            vz.replay_arrays(program, flows)
            snapshots.append((
                {fid: (v.label, v.decided_at, v.first_packet_at,
                       v.n_recirculations, v.early_exit)
                 for fid, v in program.verdicts.items()},
                [column.tolist() for column in program.verdict_rows()],
                program.recirculation_stats(),
            ))
        assert snapshots[0] == snapshots[1]
        assert len(snapshots[0][0]) == 10  # every flow decided


# ----------------------------------------------------------------------
# One fill pass and one lookup per round
# ----------------------------------------------------------------------
class TestOneLookupPerRound:
    @pytest.fixture()
    def rounds(self, monkeypatch):
        """Per ``_close_round`` call: its distinct SIDs, lookups, fill passes and plane."""
        seen = _Rounds()
        calls = {"classify": 0, "fill": 0, "lockstep": 0}
        classify, fill = RuleSet.classify_batch, vz._WindowAggregator.fill
        close_round, close_ready = vz._close_round, vz.close_ready_windows

        def spy_classify(self, sid, matrix):
            calls["classify"] += 1
            return classify(self, sid, matrix)

        def spy_fill(self, *args):
            calls["fill"] += 1
            return fill(self, *args)

        def spy_round(program, *args, sids, **kwargs):
            before = dict(calls)
            try:
                return close_round(program, *args, sids=sids, **kwargs)
            finally:
                seen.append((np.unique(sids).size, calls["classify"] - before["classify"],
                             calls["fill"] - before["fill"], calls["lockstep"] > 0))

        def spy_ready(*args, **kwargs):
            calls["lockstep"] += 1
            try:
                return close_ready(*args, **kwargs)
            finally:
                calls["lockstep"] -= 1

        monkeypatch.setattr(RuleSet, "classify_batch", spy_classify)
        monkeypatch.setattr(vz._WindowAggregator, "fill", spy_fill)
        monkeypatch.setattr(vz, "_close_round", spy_round)
        monkeypatch.setattr(vz, "close_ready_windows", spy_ready)
        seen.calls = calls
        return seen

    @pytest.mark.parametrize("flow_slots", [1 << 16, 64], ids=["lockstep", "contended"])
    def test_a_replay_round_classifies_once(self, splidt_model, splidt_rules, small_dataset,
                                            rounds, flow_slots):
        program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=flow_slots)
        replay_dataset(program, small_dataset)
        assert {(lookups, fills) for _, lookups, fills, _ in rounds} == {(1, 1)}
        assert max(n_sids for n_sids, *_ in rounds) > 1  # rounds do mix subtrees
        lockstep = sum(on_lockstep for *_, on_lockstep in rounds)
        assert program.replay_stats["lockstep_rounds"] == lockstep
        assert program.replay_stats["window_rounds"] == len(rounds)
        # Clean flows start together, so their rounds are at most the windows.
        assert lockstep <= splidt_model.config.n_partitions
        assert (lockstep > 0) == (flow_slots > 64)
        assert (lockstep < len(rounds)) == (program.replay_stats["event_rounds"] > 0)

    def test_a_flush_round_classifies_once(
        self, splidt_model, splidt_rules, small_dataset, rounds
    ):
        """A session opens one window table and fills each window index once, in one flush round.

        Window ``w`` is built at the first lockstep round that reaches a
        window ``w``, so P flush rounds fill once and every other flush
        round fills nothing.  Every round still classifies once, whatever
        subtrees its rows are in; the contended slots' slot-stream rounds
        fill as replay's do.
        """
        from repro.datasets.streams import iter_packet_chunks
        from repro.serve import MicroBatchEngine

        program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=1 << 16)
        engine = MicroBatchEngine(program).open()
        for chunk in iter_packet_chunks(small_dataset.flows, 256):
            engine.ingest(chunk)
        engine.drain()
        lockstep = sum(on_lockstep for *_, on_lockstep in rounds)
        assert program.counters["dataplane.lockstep.rounds"] == lockstep > 3
        flush = [(lookups, fills) for _, lookups, fills, on_lockstep in rounds if on_lockstep]
        assert set(flush) == {(1, 0), (1, 1)}
        assert flush.count((1, 1)) == splidt_model.config.n_partitions
        assert {(lookups, fills) for _, lookups, fills, on_lockstep in rounds
                if not on_lockstep} <= {(1, 1)}
        assert max(n_sids for n_sids, *_ in rounds) > 1
        n_partitions = splidt_model.config.n_partitions
        assert rounds.calls["fill"] == n_partitions + len(rounds) - lockstep
        assert program.counters["dataplane.window_table.builds"] == 1
        counts = np.array([flow.n_packets for flow in small_dataset.flows])
        assert program.counters["dataplane.window_table.rows"] == np.minimum(
            counts, n_partitions
        ).sum()


class _Rounds(list):
    """Per ``_close_round`` call: ``(distinct SIDs, lookups, fills, on the lockstep plane)``.

    ``calls`` holds the running totals, fills outside a round included.
    """

    calls: dict


# ----------------------------------------------------------------------
# One fill plan per rule set, one window table per session
# ----------------------------------------------------------------------
def _serve(program, flows, *, swap_at=None, factory=None):
    """A drained ``MicroBatchEngine`` session over ``flows`` in 256-packet chunks.

    With ``swap_at``, ``factory``'s program is swapped in before that chunk.
    """
    from repro.datasets.streams import iter_packet_chunks
    from repro.serve import MicroBatchEngine

    engine = MicroBatchEngine(program).open()
    for index, chunk in enumerate(iter_packet_chunks(flows, 256)):
        if index == swap_at:
            engine.swap_model(factory)
        engine.ingest(chunk)
    engine.drain()
    return engine


def test_programs_of_one_factory_share_one_fill_plan(
    splidt_model, splidt_rules, small_dataset, monkeypatch
):
    """A factory's programs share their rules' fill plan and the layouts it has worked out.

    A second session over the same source builds a window table of its own
    (a table belongs to its session, never to the source), and works out
    no layout of its own.
    """
    import dataclasses

    from repro.pipeline import ExperimentSpec, get_system

    # Rules of their own: no earlier test has filled their plan.
    rules = dataclasses.replace(splidt_rules)
    factory = get_system("splidt").program_factory(
        splidt_model, rules, ExperimentSpec(flow_slots=1 << 16)
    )
    first, second = factory(), factory()
    assert first.fill_plan is second.fill_plan is rules.fill_plan(
        {sid: sorted(subtree.features_used()) for sid, subtree in splidt_model.subtrees.items()}
    )
    built = []
    layout = vz._RoundLayout
    monkeypatch.setattr(vz, "_RoundLayout", lambda *args: built.append(args) or layout(*args))
    tables = []
    table = vz.WindowTable
    monkeypatch.setattr(vz, "WindowTable", lambda *args: tables.append(table(*args)) or tables[-1])

    def session(program) -> tuple:
        engine = _serve(program, small_dataset.flows)
        assert program.counters["dataplane.window_table.builds"] == 1
        # The source keeps nothing of the table.
        assert not any(value is tables[-1] for value in engine._soa.derived.values())
        return tuple(column.tobytes() for column in engine.close().verdicts.columns)

    verdicts, layouts = session(first), len(built)
    assert layouts > 0
    assert session(second) == verdicts
    assert len(built) == layouts
    assert len(tables) == 2 and tables[0] is not tables[1]


def test_a_swap_child_builds_its_own_table(splidt_model, splidt_rules, small_dataset):
    """A model epoch swapped in mid-session closes its windows from a table of its own."""
    from repro.pipeline import ExperimentSpec, get_system

    factory = get_system("splidt").program_factory(
        splidt_model, splidt_rules, ExperimentSpec(flow_slots=1 << 16)
    )
    engine = _serve(factory(), small_dataset.flows, swap_at=4, factory=factory)
    (child,) = engine._epoch_children
    for epoch in (engine, child):
        assert epoch.program.counters["dataplane.window_table.builds"] == 1
        assert epoch.program.counters["dataplane.lockstep.rounds"] > 0
    assert child._table is not engine._table
    assert engine.stats().counters["dataplane.window_table.builds"] == 2
