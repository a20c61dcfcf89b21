"""The slot-stream window plane against the per-packet oracle, case by case.

``tests/test_parity_fuzz.py`` throws random traces at every engine; this
module pins the *named* behaviours of a contended register slot with small
hand-built traces, each replayed through the oracle (``oracle.replay_dataset``)
and through ``replay_arrays`` (``replay_dataset``) and compared on verdicts,
controller digests, recirculation counters and ``eviction_stats()``.  Every
case also asserts that the packets really went through the slot-stream plane
and that the behaviour it is named after really occurs in the trace.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplane import SpliDTDataPlane, oracle, replay_dataset
from repro.dataplane import slot_stream as ss
from repro.dataplane import vectorized as vz
from repro.datasets.flows import FiveTuple, Flow, FlowDataset, Packet, PacketArrays
from repro.datasets.streams import PacketChunk, StreamedPacketWriter, iter_packet_chunks
from repro.features.definitions import STATELESS_HEADER_INDICES
from repro.serve import MicroBatchEngine, StreamingEngine
from repro.switch.eviction import EvictionPolicy, make_eviction_policy
from repro.switch.hashing import flow_slots

TUPLE_A = FiveTuple(src_ip=1, dst_ip=2, src_port=3, dst_port=4, protocol=6)
TUPLE_B = FiveTuple(src_ip=9, dst_ip=8, src_port=7, dst_port=6, protocol=17)
TUPLE_C = FiveTuple(src_ip=5, dst_ip=5, src_port=5, dst_port=5, protocol=6)


def _flow(five_tuple, flow_id, times, size=100) -> Flow:
    packets = [
        Packet(timestamp=float(t), size=size + i, flags=0x10, direction=1, payload=10)
        for i, t in enumerate(times)
    ]
    return Flow(five_tuple=five_tuple, packets=packets, label=0, class_name="", flow_id=flow_id)


def _dataset(flows) -> FlowDataset:
    return FlowDataset(name="t", description="", flows=list(flows), class_names=["a", "b"])


def _snapshot(program, verdicts) -> dict:
    return {
        "verdicts": {
            fid: (v.label, v.decided_at, v.first_packet_at, v.n_recirculations, v.early_exit)
            for fid, v in verdicts.items()
        },
        "digests": sorted(
            (d.flow_id, d.label, d.timestamp, d.sid) for d in program.controller.digests
        ),
        "recirculation": program.recirculation_stats(),
        "eviction": program.eviction_stats(),
    }


def assert_same_slot_state(reference, candidate) -> None:
    """Every register slot holds, field by field, what the reference program holds.

    Slot state is read as the oracle's objects (``oracle.slot_states``).  A
    decided resident is a terminal marker — the packet path reads its tuple
    and nothing else — so it is compared on identity; an undecided one on
    every field, each operator's whole register state included.
    """
    wanted, got_states = oracle.slot_states(reference), oracle.slot_states(candidate)
    assert sorted(got_states) == sorted(wanted)
    for slot, want in wanted.items():
        got = got_states[slot]
        assert (got.decided, got.five_tuple, got.flow_id) == (
            want.decided, want.five_tuple, want.flow_id), slot
        if want.decided:
            continue
        for field in ("sid", "packets_seen", "window_index", "first_packet_at",
                      "last_seen_at", "n_recirculations", "stateless"):
            assert getattr(got, field) == getattr(want, field), (slot, field)
        assert list(got.operators) == list(want.operators), slot
        for feature, operator in want.operators.items():
            state = got.operators[feature].state
            assert (state.value, state.count, state.aux) == (
                operator.state.value, operator.state.count, operator.state.aux
            ), (slot, operator.definition.name)


def _replay_both(model, rules, batches, *, slots=1, eviction=None):
    """Replay ``batches`` (lists of flows, one call each) on one program per engine.

    Returns ``(reference program, fused program)`` after asserting that both
    ended in the same observable state.
    """
    programs = {}
    for engine, replay in (("reference", oracle.replay_dataset), ("vectorized", replay_dataset)):
        program = SpliDTDataPlane(model, rules, flow_slots=slots, eviction=eviction)
        for flows in batches:
            replay(program, _dataset(flows))
        programs[engine] = program
    reference, fused = programs["reference"], programs["vectorized"]
    assert _snapshot(fused, fused.verdicts) == _snapshot(reference, reference.verdicts)
    return reference, fused


def test_verdict_is_credited_to_the_colliding_flows_id(splidt_model, splidt_rules):
    # B's three packets each close one of resident A's windows (B's header
    # says three packets), so the verdict lands on B's id with A's epoch.
    flows = [
        _flow(TUPLE_A, 0, range(12)),
        _flow(TUPLE_B, 1, [0.5, 1.5, 2.5]),
    ]
    _, fused = _replay_both(splidt_model, splidt_rules, [flows])
    assert fused.replay_stats["packets"]["slot_stream"] == 15
    verdict = fused.verdicts[1]
    assert (verdict.first_packet_at, verdict.decided_at) == (0.0, 2.5)
    assert 0 not in fused.verdicts  # A's later packets meet their own decided slot


def test_flow_id_decided_twice_keeps_the_later_verdict(splidt_model, splidt_rules):
    # B's first packet decides A's epoch (credited to B), B's second packet
    # reclaims the slot, and B's last packet decides B's own epoch.
    flows = [_flow(TUPLE_A, 0, [1, 2, 7]), _flow(TUPLE_B, 1, [6, 6.5, 9])]
    _, fused = _replay_both(splidt_model, splidt_rules, [flows])
    decided_at = sorted(d.timestamp for d in fused.controller.digests if d.flow_id == 1)
    assert decided_at == [6.0, 9.0]
    assert (fused.verdicts[1].first_packet_at, fused.verdicts[1].decided_at) == (6.5, 9.0)


def test_repeated_five_tuple_after_a_verdict_is_ignored(splidt_model, splidt_rules):
    # Disjoint in time, same tuple: the second flow meets its own decided
    # slot, is forwarded without inference and never reclaims it.
    flows = [
        _flow(TUPLE_A, 0, [0.1 * i for i in range(6)]),
        _flow(TUPLE_A, 1, [100 + 0.1 * i for i in range(6)]),
    ]
    _, fused = _replay_both(splidt_model, splidt_rules, [flows], slots=64)
    assert fused.replay_stats["packets"] == {"batched": 0, "slot_stream": 12}
    assert set(fused.verdicts) == {0}


def test_short_flow_ends_undecided_and_is_inherited(splidt_model, splidt_rules):
    # A has fewer packets than partitions and exhausts its stream while
    # recirculating; B inherits A's live slot (no eviction policy).
    flows = [_flow(TUPLE_A, 0, [0.0, 0.5]), _flow(TUPLE_B, 1, [1, 2, 3, 4, 5, 6])]
    _, fused = _replay_both(splidt_model, splidt_rules, [flows])
    assert 0 not in fused.verdicts
    assert fused.verdicts[1].first_packet_at == 0.0


def test_alternating_flow_sizes_are_answered_by_the_size_class_index(splidt_model, splidt_rules):
    # A (30 packets) and B (24) alternate every packet in one slot, so the
    # advertised size changes at every packet: resident A's first window
    # closes at B's header (8 packets seen) eight one-packet stretches in,
    # past the stretch lookups, and the size-class index finds it.
    flows = [
        _flow(TUPLE_A, 0, [float(i) for i in range(30)]),
        _flow(TUPLE_B, 1, [i + 0.5 for i in range(24)]),
    ]
    _, fused = _replay_both(splidt_model, splidt_rules, [flows])
    assert fused.replay_stats["packets"]["slot_stream"] == 54
    assert fused.replay_stats["event_search"]["index"] > 0


def test_a_huge_advertised_flow_size_costs_no_memory(splidt_model, splidt_rules, small_dataset):
    # Window boundaries are computed per packet from the header, not looked
    # up in a table as long as the largest advertised size.
    dataset = _dataset(small_dataset.flows[:40])
    soa = dataset.packet_arrays()
    sizes = soa.n_packets_per_flow.astype(np.int64)
    sizes[7] = 2**40
    reference = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8)
    oracle.replay_positions(reference, soa, soa.interleave_order, sizes)
    warm = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8)
    vz.replay_arrays(warm, dataset.flows, soa=soa, sizes=sizes)
    fused = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8)
    tracemalloc.start()
    try:
        vz.replay_arrays(fused, dataset.flows, soa=soa, sizes=sizes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    assert fused.replay_stats["packets"]["slot_stream"] > 0
    assert _snapshot(fused, fused.verdicts) == _snapshot(reference, reference.verdicts)


@st.composite
def clean_slots(draw, n_partitions: int):
    """``(flows, table_size)``: flows that each meet a clean slot, as the lockstep plane takes them.

    Every flow has its own five-tuple and at least ``n_partitions`` packets,
    and starts after the last packet of the flow before it in its slot; a
    slot may hold one flow or several.
    """
    table_size = draw(st.integers(1, 4))
    lengths = draw(st.lists(st.integers(n_partitions, 14), min_size=1, max_size=9))
    tuples = [FiveTuple(src_ip=7, dst_ip=9, src_port=1000 + i, dst_port=443, protocol=6)
              for i in range(len(lengths))]
    slots = flow_slots([_flow(five_tuple, 0, [0.0]) for five_tuple in tuples], table_size)
    free = dict.fromkeys(slots.tolist(), 0.0)  # when each slot's last flow ended
    flows = []
    for flow_id, (five_tuple, slot, n) in enumerate(zip(tuples, slots.tolist(), lengths)):
        start = free[slot] + draw(st.sampled_from((0.5, 3.0)))
        times = start + np.cumsum(draw(st.lists(st.sampled_from((0.01, 0.2, 1.5)), min_size=n,
                                                max_size=n)))
        free[slot] = float(times[-1])
        flows.append(_flow(five_tuple, flow_id, times.tolist(), size=64 + 37 * flow_id))
    return flows, table_size


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_flows_alone_in_their_slots_take_no_more_window_rounds_than_lockstep(
    splidt_model, splidt_rules, data
):
    # The solo-slot rule: flows the lockstep plane would take — alone in a
    # slot or following one another there — replayed on the slot-stream
    # plane close their windows in as many window rounds as the lockstep
    # plane's close_ready_windows, and leave what the oracle leaves.
    n_partitions = splidt_model.config.n_partitions
    flows, table_size = data.draw(clean_slots(n_partitions))
    soa = PacketArrays.from_flows(flows)
    slots = vz.cached_flow_slots(soa, table_size)
    everyone = np.arange(len(flows))
    assert not vz._split_scalar_fast(
        soa, slots, everyone, None, n_partitions, vz.cached_tuple_ids(soa, table_size)
    ).any()

    def program():
        return SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=table_size)

    stream, lockstep, reference = program(), program(), program()
    ss.replay_slot_stream(stream, flows, soa, np.ones(len(flows), dtype=bool))
    vz._replay_splidt_batched(lockstep, soa, everyone, slots)
    oracle.replay_dataset(reference, _dataset(flows))

    assert stream.counters["dataplane.slot_stream.packets"] == soa.n_packets
    rounds = stream.counters["dataplane.window_rounds"]
    assert rounds <= lockstep.counters["dataplane.window_rounds"] <= n_partitions
    assert stream.counters["dataplane.slot_stream.rounds"] == rounds
    assert _snapshot(stream, stream.verdicts) == _snapshot(reference, reference.verdicts)
    assert_same_slot_state(reference, stream)


def test_evicted_resident_reenters_as_a_new_epoch(splidt_model, splidt_rules):
    # A idles, B evicts it, A's next packet evicts B: A's second epoch starts
    # at that packet — first timestamp *and* pkt_len_first are the re-entry's.
    flows = [
        _flow(TUPLE_A, 0, [0, 0.1, 10, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6], size=200),
        _flow(TUPLE_B, 1, [5.0, 5.1], size=700),
    ]
    policy = make_eviction_policy("idle-timeout", timeout=1.0)
    program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=1, eviction=policy)
    # A plane writes the header columns some subtree reads: every one reads
    # pkt_len_first here.
    program.fill_plan = vz.FillPlan({
        sid: sorted(subtree.features_used() | {STATELESS_HEADER_INDICES[3]})
        for sid, subtree in splidt_model.subtrees.items()
    })
    seen = []
    step_windows = program.step_windows

    def spy(**kwargs):
        first_sizes = kwargs["feature_matrix"][:, STATELESS_HEADER_INDICES[3]]
        seen.extend(zip(kwargs["first_packet_ts"].tolist(), first_sizes.tolist()))
        return step_windows(**kwargs)

    program.step_windows = spy
    replay_dataset(program, _dataset(flows))
    assert program.eviction_stats()["evicted_flows"] == [0, 1]
    assert (10.0, 202.0) in seen  # A's third packet: size 200 + 2
    assert all(first_ts != 10.0 or size == 202.0 for first_ts, size in seen)
    _replay_both(splidt_model, splidt_rules, [flows], eviction=policy)


@pytest.mark.parametrize(
    "policy_name,arrival,evicts",
    [
        ("idle-timeout", 2.0, False),  # idle exactly the timeout: the resident stays
        ("idle-timeout", 2.0 + 2**-40, True),
        ("lru", 1.0, False),  # same timestamp as the resident's last packet
        ("lru", 1.0 + 2**-40, True),
    ],
)
def test_eviction_threshold_ties_keep_the_resident(
    splidt_model, splidt_rules, policy_name, arrival, evicts
):
    # B's only packet meets undecided A, last seen at t=1; A's remaining
    # packets find either themselves (no eviction) or B in the slot.
    flows = [
        _flow(TUPLE_A, 0, [0.0, 1.0] + [30 + i for i in range(7)]),
        _flow(TUPLE_B, 1, [arrival]),
    ]
    policy = make_eviction_policy(policy_name, timeout=1.0)
    _, fused = _replay_both(splidt_model, splidt_rules, [flows], eviction=policy)
    assert (0 in fused.eviction_stats()["evicted_flows"]) == evicts


def test_scalar_only_eviction_policy_is_evaluated_per_packet(splidt_model, splidt_rules):
    class ScalarIdle(EvictionPolicy):
        name = "scalar-idle"

        def should_evict(self, *, resident_last_seen, incoming_ts):
            if incoming_ts - resident_last_seen > 1.0:  # raises on arrays
                return True
            return False

    flows = [
        _flow(TUPLE_A, 0, [0, 0.1, 10, 10.1, 10.2, 10.3]),
        _flow(TUPLE_B, 1, [5.0, 5.1, 5.2]),
    ]
    _, fused = _replay_both(splidt_model, splidt_rules, [flows], eviction=ScalarIdle())
    assert fused.eviction_stats()["evicted_flows"] == [0]


@pytest.mark.parametrize("timeout", [None, 0.25])
def test_live_slot_state_at_entry_is_resumed(splidt_model, splidt_rules, timeout):
    # The first call leaves A undecided in the slot, recirculated into an
    # empty window; the second call's flows continue A's registers from the
    # columns the first call handed over — or, idle past the timeout, B's
    # first packet evicts A, tested against A's last packet at 0.5.
    first = [_flow(TUPLE_A, 0, [0.0, 0.5])]
    second = [_flow(TUPLE_B, 1, [1, 2, 3, 4, 5, 6]), _flow(TUPLE_C, 2, [1.5, 2.5, 3.5])]
    policy = None if timeout is None else make_eviction_policy("idle-timeout", timeout=timeout)
    reference, fused = _replay_both(splidt_model, splidt_rules, [first, second], eviction=policy)
    assert fused.replay_stats["packets"] == {"batched": 0, "slot_stream": 9}
    assert fused.replay_stats["deferred"]["slots"] == 1
    assert (0 in fused.eviction_stats()["evicted_flows"]) == (timeout is not None)
    assert_same_slot_state(reference, fused)


def test_second_replay_on_the_same_program_continues(splidt_model, splidt_rules):
    # Call one ends with a decided resident in slot 0 (and open or decided
    # residents elsewhere); call two brings the resident's own tuple back
    # (ignored until another tuple reclaims) next to new tuples.
    first = [
        _flow(TUPLE_A, 0, range(12)),
        _flow(TUPLE_B, 1, [0.5, 1.5, 2.5]),
        _flow(TUPLE_C, 2, [0.25, 0.75]),
    ]
    second = [
        _flow(TUPLE_A, 3, [20, 21, 22, 23, 24, 25]),
        _flow(TUPLE_B, 4, [22.5, 23.5, 24.5, 25.5, 26.5, 27.5]),
        _flow(TUPLE_C, 5, [20.5, 26.0, 29.0]),
    ]
    for slots in (1, 2, 3):
        _, fused = _replay_both(splidt_model, splidt_rules, [first, second], slots=slots)
        assert fused.replay_stats["packets"]["slot_stream"] > 0


def test_exit_state_is_what_process_packet_would_hold(splidt_model, splidt_rules):
    # After a slot-stream replay the program's slot state must equal the
    # reference's field by field, operators included.
    flows = [
        _flow(TUPLE_A, 0, range(12)),
        _flow(TUPLE_B, 1, [0.5, 1.5]),
        _flow(TUPLE_C, 2, [20, 21, 22, 23]),
    ]
    for slots in (1, 2, 5):
        reference, fused = _replay_both(splidt_model, splidt_rules, [flows], slots=slots)
        assert fused.replay_stats["deferred"]["slots"] > 0
        assert_same_slot_state(reference, fused)


def _reentry_trace():
    """``(flows, policy)``: A idles, B evicts it, A's return evicts B — and A's
    second epoch, ten packets of an advertised twelve, ends two packets into
    its third window."""
    flows = [
        _flow(TUPLE_A, 0, [0, 0.1] + [10 + 0.1 * i for i in range(10)], size=200),
        _flow(TUPLE_B, 1, [5.0, 5.1], size=700),
    ]
    return flows, make_eviction_policy("idle-timeout", timeout=1.0)


def test_slot_state_is_recorded_and_settled_on_first_read(splidt_model, splidt_rules, monkeypatch):
    # The replay builds no slot-state object and feeds nothing to the
    # oracle; reading slot state as objects is the oracle's settling, still
    # without a packet through the interpreter.
    flows, policy = _reentry_trace()
    reference, _ = _replay_both(splidt_model, splidt_rules, [flows], eviction=policy)
    fused = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=1, eviction=policy)
    calls = {"process_packet": 0, "settle": 0}

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)
        return call

    monkeypatch.setattr(oracle.PacketInterpreter, "process_packet", counted(
        "process_packet", oracle.PacketInterpreter.process_packet))
    monkeypatch.setattr(oracle, "slot_states", counted("settle", oracle.slot_states))
    replay_dataset(fused, _dataset(flows))
    assert calls == {"process_packet": 0, "settle": 0}
    stats = fused.replay_stats
    assert stats["packets"] == {"batched": 0, "slot_stream": 14}
    assert stats["deferred"] == {"slots": 1, "open_windows": 1, "packets": 2}
    assert fused.held_state().undecided.rows.tolist() == [0]
    resident = oracle.slot_states(reference)[0]
    assert not resident.decided and resident.packets_seen == 10
    assert_same_slot_state(reference, fused)
    assert calls == {"process_packet": 0, "settle": 3}


@pytest.mark.parametrize("start", [11.0, 20.0])  # within / past the idle timeout
@pytest.mark.parametrize("first_engine", ["vectorized", "reference"])
def test_held_open_window_is_resumed(splidt_model, splidt_rules, start, first_engine):
    # The first call leaves A undecided two packets into a window.  The next
    # call's first packet either continues it or evicts it (tested against
    # A's last packet), whether the slot state is the plane's columns, was
    # read as objects in between, or was written by the oracle.
    flows, policy = _reentry_trace()
    second = [
        _flow(TUPLE_B, 3, [start + 0.2 * i for i in range(6)]),
        _flow(TUPLE_C, 4, [start + 0.1, start + 0.3, start + 0.5]),
    ]
    reference, _ = _replay_both(splidt_model, splidt_rules, [flows, second], eviction=policy)
    first = {"vectorized": replay_dataset, "reference": oracle.replay_dataset}[first_engine]
    for read_objects in (False, True):
        program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=1, eviction=policy)
        first(program, _dataset(flows))
        if read_objects:
            assert len(oracle.slot_states(program)[0].window) == 2
        replay_dataset(program, _dataset(second))
        assert program.replay_stats["packets"] == {"batched": 0, "slot_stream": 9}
        assert _snapshot(program, program.verdicts) == _snapshot(reference, reference.verdicts)
        assert_same_slot_state(reference, program)
    assert reference.eviction_stats()["evictions"] == (2 if start == 11.0 else 3)


def test_deferred_record_makes_no_reference_cycle(splidt_model, splidt_rules):
    # A record that referred to its program would leave a dead program (and
    # the record's arrays) to the cyclic collector; plain refcounting must do.
    flows, policy = _reentry_trace()
    program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=1, eviction=policy)
    replay_dataset(program, _dataset(flows))
    assert program._held and program.replay_stats["deferred"]["packets"] == 2
    alive = weakref.ref(program)
    gc.disable()
    try:
        del program
        assert alive() is None
    finally:
        gc.enable()


def test_memmap_backed_lazy_flow_list(splidt_model, splidt_rules):
    rng = np.random.default_rng(5)
    writer = StreamedPacketWriter()
    for flow_id in range(60):
        n = int(rng.integers(1, 15))
        times = np.sort(rng.uniform(0.0, 6.0, size=n))
        writer.add_flow(
            FiveTuple(int(rng.integers(1, 1 << 24)), int(rng.integers(1, 1 << 24)),
                      int(rng.integers(1, 65535)), 443, 6),
            label=0,
            timestamps=times,
            sizes=rng.integers(40, 1500, size=n).astype(float),
            flags=np.full(n, 0x10),
            payloads=rng.integers(0, 1000, size=n).astype(float),
        )
    policy = make_eviction_policy("idle-timeout", timeout=0.5)
    with writer.finish(class_names=["a", "b"]) as source:
        assert isinstance(source.soa.timestamps, np.memmap)
        reference = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=16, eviction=policy)
        engine = StreamingEngine(reference).open()
        engine.ingest(
            PacketChunk(soa=source.soa, flows=source.flows,
                        positions=source.soa.interleave_order)
        )
        engine.close()
        fused = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=16, eviction=policy)
        vz.replay_arrays(fused, source.flows, soa=source.soa)
        assert fused.replay_stats["packets"]["slot_stream"] > 0
        assert fused.eviction_stats()["evictions"] > 0
        assert _snapshot(fused, fused.verdicts) == _snapshot(reference, reference.verdicts)
        assert fused.replay_stats["deferred"]["packets"] > 0
    # The record holds copies: it settles the same with the memmaps' files gone.
    assert not source.directory.exists()
    assert_same_slot_state(reference, fused)


# ----------------------------------------------------------------------
# The stream source: each slot stream's packets gathered once, in stream order
# ----------------------------------------------------------------------
#: Register slots of the contended replays below: 2000+ flows share 64 slots.
CONTENDED_SLOTS = 64


def _route_stream(program, soa) -> ss.SlotStream:
    """The slot stream ``replay_arrays`` cached on ``soa`` for ``program``'s table."""
    key = ("slot_route", program.indexer.table_size, program.model.config.n_partitions)
    return soa.derived[key][2]


def _stream_arrays(stream) -> dict:
    """Every array a cached stream holds, with what replays kept on it, as bytes."""
    arrays = {name: getattr(stream, name) for name in ("order", "flow", "starts", "slots")}
    events = stream.events
    arrays.update({name: getattr(events, name)
                   for name in ("tuples", "header_size", "next_tuple", "next_size")})
    if "classes" in vars(events):
        arrays.update({f"classes.{name}": column for name, column in vars(events.classes).items()
                       if isinstance(column, np.ndarray)})
    for policy, columns in events.evictions.items():
        arrays.update({f"{policy}.{name}": column for name, column in vars(columns).items()})
    arrays["timestamps"] = stream.source.timestamps
    arrays.update({key: column for key, column in stream.source.derived.items()
                   if isinstance(column, np.ndarray)})
    return {key: column.tobytes() for key, column in arrays.items()}


def test_every_window_is_a_range_of_one_rows_run(splidt_model, splidt_rules, small_dataset,
                                                   monkeypatch):
    # A round's windows are read from the stream as ``[cursor, last + 1)``:
    # each must lie inside its slot's run, in a fresh call and in a resumed
    # one whose run is headed by a held open window.
    seen, runs = [], []
    close_windows, close_round = ss._close_windows, vz._close_round

    def spy_windows(program, soa, aggregator, stream, *args):
        runs.append(stream.starts)
        try:
            return close_windows(program, soa, aggregator, stream, *args)
        finally:
            runs.pop()

    def spy_round(program, aggregator, matrix, s, e, *args, **kwargs):
        if runs:  # not the lockstep plane's rounds
            seen.append((runs[-1], s.copy(), e.copy()))
        return close_round(program, aggregator, matrix, s, e, *args, **kwargs)

    resumed = []
    with_open_windows = ss._with_open_windows

    def spy_resume(*args):
        resumed.append(args)
        return with_open_windows(*args)

    monkeypatch.setattr(ss, "_close_windows", spy_windows)
    monkeypatch.setattr(vz, "_close_round", spy_round)
    monkeypatch.setattr(ss, "_with_open_windows", spy_resume)
    policy = make_eviction_policy("idle-timeout", timeout=0.5)
    program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=CONTENDED_SLOTS,
                              eviction=policy)
    flows = small_dataset.flows
    replay_dataset(program, _dataset(flows[:200]))
    replay_dataset(program, _dataset(flows[200:]))  # resumes the held open windows
    assert resumed and len(seen) > 2
    for starts, s, e in seen:
        rows = np.searchsorted(starts, s, side="right") - 1
        assert np.all(s < e)
        assert np.all(starts[rows] <= s) and np.all(e <= starts[rows + 1])


def test_the_cached_source_is_the_soa_gathered_in_stream_order(splidt_model, splidt_rules,
                                                               small_dataset):
    soa = PacketArrays.from_flows(small_dataset.flows)
    program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=CONTENDED_SLOTS)
    vz.replay_arrays(program, small_dataset.flows, soa=soa)
    stream = _route_stream(program, soa)
    source = stream.source
    assert isinstance(source, ss.StreamSource) and source.n_packets == stream.n_packets
    assert np.array_equal(source.timestamps, soa.timestamps[stream.order])
    for name in ss._PACKET_FIELDS:
        assert np.array_equal(getattr(source, name), getattr(soa, name)[stream.order]), name
    # Every column derived on it equals the one derived from a stand-alone
    # copy of the gathered packets.
    gathered = ss._packet_source(
        tuple(getattr(soa, name)[stream.order] for name in ss._PACKET_FIELDS)
    )
    derive = {"col": vz._base_values, "pad": vz._padded_column, "prefix": vz._prefix_column}
    kinds = set()
    for key, column in source.derived.items():
        if key[0] in derive:
            kinds.add(key[0])
            want = derive[key[0]](gathered, key[1])
            assert (column is None) == (want is None), key
            if column is not None:
                assert np.array_equal(column, want), key
    assert {"col", "prefix"} <= kinds


def test_a_second_replay_reuses_the_stream_source(splidt_model, splidt_rules, small_dataset):
    soa = PacketArrays.from_flows(small_dataset.flows)
    sources, builds, verdicts = [], [], []
    for _ in range(2):
        program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=CONTENDED_SLOTS)
        vz.replay_arrays(program, small_dataset.flows, soa=soa)
        sources.append(_route_stream(program, soa).source)
        builds.append(program.counters["dataplane.slot_stream.source_builds"])
        verdicts.append(_snapshot(program, program.verdicts))
    assert sources[0] is sources[1]
    assert builds == [1, 0]
    assert verdicts[0] == verdicts[1]


def test_a_second_replay_builds_no_stream_column(splidt_model, splidt_rules, small_dataset,
                                                   monkeypatch):
    # What the event lookups read of the stream alone — tuple ids, advertised
    # sizes, their change columns, the size-class index and a frozen eviction
    # policy's columns — is built by the first replay and kept with the
    # stream; an equal policy finds it too.
    builds = []
    for owner, name, label in ((ss.StreamEvents, "__init__", "events"),
                               (ss, "_eviction_mask", "evictions"),
                               (ss._SizeClasses, "__init__", "classes")):
        build = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _build=build, _label=label: (
            builds.append(_label), _build(*args))[1])
    soa = PacketArrays.from_flows(small_dataset.flows)
    counted, verdicts = [], []
    for _ in range(2):
        policy = make_eviction_policy("idle-timeout", timeout=0.5)
        program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=CONTENDED_SLOTS,
                                  eviction=policy)
        vz.replay_arrays(program, small_dataset.flows, soa=soa)
        counted.append(sorted(set(builds)))
        builds.clear()
        verdicts.append(_snapshot(program, program.verdicts))
        assert program.replay_stats["event_search"]["index"] > 0
    assert counted == [["classes", "events", "evictions"], []]
    assert verdicts[0] == verdicts[1]
    events = _route_stream(program, soa).events
    assert list(events.evictions) == [policy]
    assert events.tuples.dtype == events.header_size.dtype == np.int32


def test_held_slots_and_unfrozen_policies_build_their_own_eviction_columns(
    splidt_model, splidt_rules, small_dataset
):
    # Eviction columns depend on held residents' last-seen timestamps, and an
    # unfrozen policy may change its verdicts: neither is kept on the stream.
    class Unfrozen(EvictionPolicy):
        name = "unfrozen"

        def should_evict(self, *, resident_last_seen, incoming_ts):
            return incoming_ts - resident_last_seen > 0.5

    soa = PacketArrays.from_flows(small_dataset.flows)
    program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=CONTENDED_SLOTS,
                              eviction=Unfrozen())
    vz.replay_arrays(program, small_dataset.flows, soa=soa)
    assert _route_stream(program, soa).events.evictions == {}

    flows = small_dataset.flows
    policy = make_eviction_policy("idle-timeout", timeout=0.5)
    resumed = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=CONTENDED_SLOTS,
                              eviction=policy)
    created, init = [], ss.StreamEvents.__init__
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ss.StreamEvents, "__init__",
                      lambda self, *args: (created.append(self), init(self, *args))[1])
        replay_dataset(resumed, _dataset(flows[:200]))
        first = list(created)
        assert resumed.held_state().undecided.rows.size > 0
        created.clear()
        replay_dataset(resumed, _dataset(flows[200:]))  # resumes the held residents
    assert [list(events.evictions) for events in first] == [[policy]]
    assert created and all(events.evictions == {} for events in created)


@pytest.mark.parametrize("chunk_size", [1, 7, None])
def test_a_serving_session_leaves_the_cached_stream_unchanged(
    splidt_model, splidt_rules, small_dataset, monkeypatch, chunk_size
):
    # A serving session builds a stream per contended replay, over the same
    # arrays: the stream a replay cached there is not touched, and each call
    # counts the gather it makes.
    flows = small_dataset.flows[:80]
    soa = PacketArrays.from_flows(flows)
    vz.replay_arrays(
        SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=CONTENDED_SLOTS), flows, soa=soa
    )
    key = next(key for key in soa.derived if key[0] == "slot_route")
    stream = soa.derived[key][2]
    before = _stream_arrays(stream)

    calls = []
    stream_packets = ss._stream_packets

    def counted(counters, soa, stream, source):
        calls.append(stream)
        return stream_packets(counters, soa, stream, source)

    monkeypatch.setattr(ss, "_stream_packets", counted)
    program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=CONTENDED_SLOTS)
    engine = MicroBatchEngine(program).open()
    for chunk in iter_packet_chunks(flows, chunk_size, soa=soa):
        engine.ingest(chunk)
    engine.drain()
    engine.close()
    reference = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=CONTENDED_SLOTS)
    oracle.replay_dataset(reference, _dataset(flows))

    assert _snapshot(program, program.verdicts) == _snapshot(reference, reference.verdicts)
    assert soa.derived[key][2] is stream and _stream_arrays(stream) == before
    assert all(call is not stream for call in calls)
    assert program.counters["dataplane.slot_stream.source_builds"] == len(calls) > 0
