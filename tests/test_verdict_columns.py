"""Verdicts stay columns: a program records decided rows as blocks.

No :class:`FlowVerdict` or :class:`Digest` is built while a plane records a
decision — not by the batched or slot-stream planes, not by the consumers
that score and summarise them (``build_replay_result``, ``ReplayResult``,
``run_scenario``, the serving engines' ``stats()``) — only when a reader
indexes one.  The store itself reads back as the dict its rows would have
built, row by row.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplane import SpliDTDataPlane, vectorized as vz
from repro.core.evaluation import ClassificationReport
from repro.dataplane.controller import Digest
from repro.dataplane.runtime import fresh_rows, score_verdicts
from repro.dataplane.slot_stream import replay_slot_stream
from repro.dataplane.verdicts import FlowVerdict, VerdictStore
from repro.datasets.flows import PacketArrays
from repro.datasets.streams import iter_packet_chunks
from repro.pipeline.spec import ExperimentSpec
from repro.scenarios import get_workload_scenario, run_scenario
from repro.serve import MicroBatchEngine
from repro.switch.eviction import make_eviction_policy


@pytest.fixture
def built(monkeypatch):
    """``FlowVerdict`` and ``Digest`` constructions, on every path."""
    counts = {FlowVerdict: 0, Digest: 0}
    for cls in counts:
        init = cls.__init__

        def counted(self, *args, _cls=cls, _init=init, **kwargs):
            counts[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def _program(model, rules, flow_slots, eviction=None):
    return SpliDTDataPlane(model, rules, flow_slots=flow_slots, eviction=eviction)


def test_no_verdict_or_digest_object_until_a_reader_indexes_one(
    splidt_model, splidt_rules, small_dataset, built
):
    flows, soa = small_dataset.flows, small_dataset.packet_arrays()
    programs = []

    # A clean replay_arrays: next to no shared slot, nearly all of it lockstep.
    clean = _program(splidt_model, splidt_rules, 2**20)
    vz.replay_arrays(clean, flows, soa)
    packets = clean.replay_stats["packets"]
    assert packets["batched"] > 10 * packets["slot_stream"]
    programs.append(clean)

    # A contended replay_arrays: 360 flows in 64 slots, with evictions.
    contended = _program(
        splidt_model, splidt_rules, 64, make_eviction_policy("idle-timeout", timeout=0.1)
    )
    vz.replay_arrays(contended, flows, soa)
    assert contended.replay_stats["packets"]["slot_stream"] > 0
    assert contended.eviction_stats()["evictions"] > 0
    programs.append(contended)

    # A slot-stream call on its own.
    stream = _program(splidt_model, splidt_rules, 64)
    replay_slot_stream(stream, flows, soa, np.ones(soa.n_flows, dtype=bool))
    programs.append(stream)

    # A micro-batch session, observed mid-stream and scored at the end.
    session = _program(splidt_model, splidt_rules, 64)
    engine = MicroBatchEngine(session).open()
    for chunk in iter_packet_chunks(small_dataset, 256):
        engine.ingest(chunk)
        engine.stats()
    result = engine.close()
    result.time_to_detection(), result.recirculations_per_flow()
    programs.append(session)

    # run_scenario scores its legitimate flows from the columns.
    scenario = get_workload_scenario("table-pressure").replace(traffic_flows=96)
    run_scenario(
        scenario, flow_slots=64,
        prepared=(splidt_model, splidt_rules, ExperimentSpec(dataset="D3", seed=scenario.seed)),
    )

    assert all(program.verdicts and program.controller.n_digests for program in programs)
    assert built == {FlowVerdict: 0, Digest: 0}

    # Readers pay for what they read, and only then.
    flow_id = next(iter(result.verdicts))
    assert result.verdicts[flow_id].flow_id == flow_id
    assert built == {FlowVerdict: 1, Digest: 0}
    assert len(session.controller.digests) == session.controller.n_digests
    assert built[Digest] == session.controller.n_digests


def test_a_program_keeps_one_verdict_store(splidt_model, splidt_rules):
    program = _program(splidt_model, splidt_rules, 64)
    stores = [value for value in vars(program).values() if isinstance(value, VerdictStore)]
    assert len(stores) == 1


def test_a_retained_digest_is_a_verdict_row(splidt_model, splidt_rules, small_dataset):
    """Digests are the decided rows in decision order: the store's flow id, label, time, sid."""
    program = _program(splidt_model, splidt_rules, 64)
    vz.replay_arrays(program, small_dataset.flows)
    flow_ids, labels, decided_at, _, _, _, sids = program.verdict_rows()
    assert [(d.flow_id, d.label, d.timestamp, d.sid) for d in program.controller.digests] == list(
        zip(flow_ids.tolist(), labels.tolist(), decided_at.tolist(), sids.tolist())
    )


def test_sharded_rows_merge_into_one_store(splidt_model, splidt_rules, small_dataset):
    """What a worker ships — its rows since the last report — rebuilds its verdicts."""
    program = _program(splidt_model, splidt_rules, 64)
    soa = PacketArrays.from_flows(small_dataset.flows)
    half = soa.n_flows // 2
    merged = VerdictStore()
    for part in (np.arange(soa.n_flows) < half, np.arange(soa.n_flows) >= half):
        reported = program.verdict_rows()[0].size
        replay_slot_stream(program, small_dataset.flows, soa, part)
        merged.append(*program.verdict_rows(reported))
    assert merged.snapshot() == program.verdicts


_ROWS = st.tuples(
    st.integers(0, 12),  # a small id pool: flows decided twice are common
    st.integers(0, 5),
    st.floats(0, 100, allow_nan=False),
    st.floats(0, 100, allow_nan=False),
    st.integers(0, 3),
    st.booleans(),
    st.integers(0, 40),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.one_of(
        st.tuples(st.just("row"), _ROWS),
        st.tuples(st.just("block"), st.lists(_ROWS, max_size=6)),
        st.tuples(st.just("snapshot"), st.none()),
    ),
    max_size=30,
))
def test_the_store_reads_back_as_a_dict_updated_row_by_row(operations):
    store = VerdictStore()
    expected: dict[int, FlowVerdict] = {}
    sids: dict[int, int] = {}
    recorded: list[tuple] = []
    taken = []
    for kind, payload in operations:
        if kind == "snapshot":
            taken.append((store.snapshot(), dict(expected)))
            continue
        rows = [payload] if kind == "row" else payload
        if kind == "row":
            store.append_row(*payload)
        else:
            store.append(*([list(column) for column in zip(*rows)] or [[]] * 7))
        for row in rows:
            expected[row[0]] = FlowVerdict(*row[:6])
            sids[row[0]] = row[6]
        recorded.extend(rows)

    verdicts = store.snapshot()
    assert verdicts == expected
    assert list(verdicts) == sorted(expected)
    assert dict(zip(verdicts.flow_ids.tolist(), verdicts.sids.tolist())) == sids
    assert np.array_equal(verdicts.time_to_detection(),
                          [expected[fid].time_to_detection for fid in sorted(expected)])
    for earlier, then in taken:
        assert earlier == then  # later appends leave a snapshot alone
    assert len(store) == len(recorded)
    half = len(recorded) // 2
    assert list(zip(*(column.tolist() for column in store.columns(half)))) == recorded[half:]

    restored = pickle.loads(pickle.dumps(store))
    assert restored.snapshot() == expected and len(restored) == len(store)
    assert pickle.loads(pickle.dumps(verdicts)) == expected
    with pytest.raises(ValueError):
        verdicts.labels[:] = 0  # read-only columns


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.integers(0, 60), st.integers(0, 3), max_size=40),
    st.dictionaries(st.integers(0, 60), st.integers(0, 3), max_size=40),
    st.one_of(st.none(), st.lists(st.integers(0, 60), max_size=30)),
)
def test_the_scorer_pairs_each_verdict_with_its_flows_label(decided, truth, subset):
    """One lookup over the columns equals scoring label by label through a dict."""
    store = VerdictStore()
    for flow_id, label in decided.items():
        store.append_row(flow_id, label, 1.0, 0.0, 0, False, 0)
    # The source holds its flows in any order; a verdict without one is not scored.
    source = list(truth.items())[::-1]
    ids = np.array([flow_id for flow_id, _ in source], dtype=np.int64)
    labels = np.array([label for _, label in source], dtype=np.int64)
    report = score_verdicts(store.snapshot(), ids, labels, subset)

    pairs = [
        (truth[flow_id], label) for flow_id, label in sorted(decided.items())
        if flow_id in truth and (subset is None or flow_id in subset)
    ]
    if not pairs:
        assert (report.n_samples, report.accuracy, report.f1_score) == (0, 0.0, 0.0)
        return
    want = ClassificationReport.from_predictions(*(np.array(side) for side in zip(*pairs)))
    assert report.n_samples == want.n_samples == len(pairs)
    assert (report.accuracy, report.f1_score, report.precision, report.recall) == (
        want.accuracy, want.f1_score, want.precision, want.recall
    )
    assert np.array_equal(report.confusion, want.confusion)


def test_fresh_rows_are_the_flow_ids_not_yet_read():
    store = VerdictStore()
    store.append([4, 9, 1], [0, 0, 0], [1.0] * 3, [0.0] * 3, [0] * 3, [False] * 3, [0] * 3)
    first = store.snapshot()
    assert fresh_rows(first, np.empty(0, dtype=np.int64)).tolist() == [0, 1, 2]
    store.append_row(6, 1, 2.0, 0.0, 0, False, 0)
    store.append_row(0, 1, 2.0, 0.0, 0, False, 0)
    later = store.snapshot()
    assert later.flow_ids[fresh_rows(later, first.flow_ids)].tolist() == [0, 6]
    assert fresh_rows(later, later.flow_ids).size == 0
