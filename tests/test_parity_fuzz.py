"""Differential parity fuzzer: every replay path against the per-packet oracle.

The fused window plane (PR 6) rewrote the most semantics-dense code in the
repo; these tests are its safety net.  A seeded stdlib ``random`` generator
produces adversarial flow traces — tiny register tables (collision-heavy
slots), repeated five-tuples, zero-gap and burst-boundary inter-arrival
times, single-packet flows, empty flows, truncated streams — and every trace
is replayed through

* ``oracle.replay_dataset`` (the per-packet oracle),
* ``replay_dataset`` (the workspace-backed batched path),
* an eager :class:`~repro.serve.MicroBatchEngine` fed randomly sized chunks
  (``flush_flows`` of 1, 2 or 8), and
* a :class:`~repro.serve.MicroBatchEngine` whose ``flush_flows`` exceeds the
  flow count, so it flushes once, at ``drain``,

(and, cut in two at a random packet, through two calls on one program — the
second call starts from the slot state the first one *deferred*),
asserting bit-identical verdicts (label, decision time, first-packet time,
recirculation count, early-exit flag), controller digests (as an unordered
multiset — emission *order* is engine-specific) and recirculation counters.

On a mismatch, the failing trace is greedily minimized (drop flows, then
halve packet lists, preserving the failure) and printed together with the
seed so the case can be replayed with::

    PARITY_FUZZ_SEED=<seed> PARITY_FUZZ_CASES=1 \
        PYTHONPATH=src python -m pytest tests/test_parity_fuzz.py -k random -s

A fixed-seed corpus runs on every invocation — the collision and eviction
corpora also at 2x and 8x table occupancy, where nearly every packet takes
the slot-stream plane —; a short randomized burst (``PARITY_FUZZ_CASES``,
default 3) explores new seeds each run.  The model is SpliDT's partitioned
tree and, on every fourth seed of the fixed and eviction corpora and on every
burst case, a top-k baseline's one-partition tree
(:func:`repro.baselines.exit_tree`): the same program, as every system
deploys it.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from repro.dataplane import SpliDTDataPlane, replay_dataset
from repro.dataplane import vectorized as vz
from repro.dataplane.oracle import replay_dataset as oracle_replay
from repro.dataplane.runtime import build_replay_result
from repro.datasets.flows import FiveTuple, Flow, FlowDataset, Packet
from repro.datasets.streams import PacketChunk
from repro.serve import MicroBatchEngine, StreamingEngine
from repro.switch.eviction import make_eviction_policy

#: Fixed regression corpus — every seed here runs on every pytest invocation.
FIXED_SEEDS = tuple(range(16))

#: Inter-arrival gap choices (seconds).  0.0 exercises equal-timestamp ties,
#: 1e-9 float rounding, 1.5/2.5 straddle the burst gap threshold (2.0 s).
GAP_CHOICES = (0.0, 1e-9, 1e-4, 0.05, 0.4, 1.5, 2.5)


#: Largest register table of the occupancy axis: 8x of it is 512 flows, which
#: keeps a four-engine case well under a second.
OCCUPANCY_TABLE_CAP = 64


def _random_trace(
    rng: random.Random, occupancy: int | None = None
) -> tuple[list[Flow], int]:
    """A random adversarial flow trace plus a register table size.

    With ``occupancy`` the flow population is that multiple of the drawn
    table size, over a five-tuple pool as large as the population: every
    slot is shared by several mostly *distinct* flows (the table-pressure
    regime) instead of a handful of flows repeating a few tuples.
    """
    table_size = rng.choice((3, 7, 16, 64, 1024))
    n_flows = rng.randint(1, 20)
    # A small five-tuple pool forces slot collisions *and* repeated tuples.
    pool_size = rng.choice((2, 3, 5, 64))
    if occupancy is not None:
        table_size = min(table_size, OCCUPANCY_TABLE_CAP)
        n_flows = pool_size = occupancy * table_size
    pool = [
        FiveTuple(
            src_ip=rng.randint(1, 1 << 24),
            dst_ip=rng.randint(1, 1 << 24),
            src_port=rng.randint(1, 65535),
            dst_port=rng.choice((53, 443, 8080)),
            protocol=rng.choice((6, 17)),
        )
        for _ in range(pool_size)
    ]
    flows = []
    for flow_id in range(n_flows):
        n_packets = rng.choice((0, 1, 1, 2, 3, 4, 7, 12, 25))
        timestamp = rng.uniform(0.0, 4.0)
        packets = []
        for _ in range(n_packets):
            packets.append(
                Packet(
                    timestamp=timestamp,
                    size=rng.randint(40, 1500),
                    flags=rng.choice((0, 0x02, 0x10, 0x12, 0x18)),
                    direction=rng.choice((1, -1)),
                    payload=rng.randint(0, 1460),
                )
            )
            timestamp += rng.choice(GAP_CHOICES)
        flows.append(
            Flow(
                five_tuple=rng.choice(pool),
                packets=packets,
                label=rng.randint(0, 1),
                class_name="",
                flow_id=flow_id,
            )
        )
    return flows, table_size


def _dataset(flows: list[Flow]) -> FlowDataset:
    return FlowDataset(
        name="fuzz", description="parity-fuzz trace", flows=flows,
        class_names=["benign", "attack"],
    )


def _snapshot(program, result) -> dict:
    """Everything the engine contract promises to be bit-identical."""
    return {
        "verdicts": {
            flow_id: (
                verdict.label,
                verdict.decided_at,
                verdict.first_packet_at,
                verdict.n_recirculations,
                verdict.early_exit,
            )
            for flow_id, verdict in result.verdicts.items()
        },
        "decisions": sorted(zip(*(
            program.verdict_rows()[column].tolist() for column in (0, 1, 2, 6)
        ))),
        "recirculation": dict(result.recirculation),
        "eviction": program.eviction_stats(),
    }


def _diff(name: str, oracle: dict, candidate: dict) -> str | None:
    if oracle == candidate:
        return None
    for key in ("verdicts", "digests", "recirculation", "eviction"):
        if oracle[key] != candidate[key]:
            return f"{name}: {key} diverge\n  oracle={oracle[key]!r}\n  {name}={candidate[key]!r}"
    return f"{name}: snapshots diverge"


def _run_engines(model, rules, flows, table_size, chunk_rng, eviction=None) -> str | None:
    """Replay one trace through all engines; return a mismatch description."""
    dataset = _dataset(flows)
    snapshots = {}
    for name, replay in (("reference", oracle_replay), ("vectorized", replay_dataset)):
        program = SpliDTDataPlane(model, rules, flow_slots=table_size, eviction=eviction)
        result = replay(program, dataset)
        snapshots[name] = _snapshot(program, result)
    broken = _accounting(program, dataset.packet_arrays().n_packets)
    if broken is not None:
        return f"vectorized: {broken}"

    # Micro-batch with randomly sized chunks: eager, then flushing only at
    # drain (a threshold no stream of these flows can reach).
    soa = dataset.packet_arrays()
    order = soa.interleave_order
    for name, flush_flows in (
        ("microbatch", chunk_rng.choice((1, 2, 8))),
        ("microbatch(drain-only)", len(flows) + 1),
    ):
        program = SpliDTDataPlane(model, rules, flow_slots=table_size, eviction=eviction)
        serving = MicroBatchEngine(program, flush_flows=flush_flows).open()
        position = 0
        while True:
            step = chunk_rng.randint(1, max(1, order.size // 3 or 1))
            serving.ingest(
                PacketChunk(soa=soa, flows=dataset.flows,
                            positions=order[position:position + step])
            )
            position += step
            if position >= order.size:
                break
        serving.drain()
        snapshots[name] = _snapshot(program, serving.close())
        broken = _accounting(program, soa.n_packets)
        if broken is not None:
            return f"{name}: {broken}"

    oracle = snapshots["reference"]
    for name in ("vectorized", "microbatch", "microbatch(drain-only)"):
        mismatch = _diff(name, oracle, snapshots[name])
        if mismatch is not None:
            return mismatch
    return None


def _accounting(program, n_packets: int) -> str | None:
    """The oracle-free counter check of a batched replay, as a mismatch description."""
    try:
        program.check_accounting(n_packets)
    except RuntimeError as error:
        return str(error)
    return None


def _run_truncated(model, rules, flows, table_size, cut_rng, eviction=None) -> str | None:
    """Streaming vs micro-batch parity on a stream cut off mid-flight."""
    dataset = _dataset(flows)
    soa = dataset.packet_arrays()
    order = soa.interleave_order
    cut = cut_rng.randint(0, order.size) if order.size else 0
    prefix = order[:cut]

    snapshots = {}
    for name, make in (
        ("streaming", lambda p: StreamingEngine(p)),
        ("microbatch", lambda p: MicroBatchEngine(p, flush_flows=len(flows) + 1)),
    ):
        program = SpliDTDataPlane(model, rules, flow_slots=table_size, eviction=eviction)
        serving = make(program)
        serving.open()
        serving.ingest(PacketChunk(soa=soa, flows=dataset.flows, positions=prefix))
        serving.drain()
        snapshots[name] = _snapshot(program, serving.close())
    return _diff("microbatch(truncated)", snapshots["streaming"], snapshots["microbatch"])


def _run_split(model, rules, flows, table_size, cut_rng, eviction=None) -> str | None:
    """One trace as two calls on one program, against the one-shot reference.

    The trace is cut at a random packet of its arrival order; every flow
    becomes a piece before and a piece after the cut (same tuple and id, each
    advertising its own length).  The first call leaves its slot state
    deferred, so the second — ``replay_arrays`` again, which resumes from the
    hand-over columns, or the per-packet oracle, which turns them into
    objects first — must find exactly what the reference holds there.
    """
    from test_slot_stream_plane import assert_same_slot_state

    soa = _dataset(flows).packet_arrays()
    order = soa.interleave_order
    cut = cut_rng.randint(0, order.size) if order.size else 0
    taken = np.bincount(soa.packet_flow[order[:cut]], minlength=len(flows)).tolist()

    def pieces(side):
        return [
            Flow(five_tuple=flow.five_tuple, packets=side(flow.packets, n), label=flow.label,
                 class_name=flow.class_name, flow_id=flow.flow_id)
            for flow, n in zip(flows, taken)
        ]

    before, after = pieces(lambda p, n: p[:n]), pieces(lambda p, n: p[n:])

    def program():
        return SpliDTDataPlane(model, rules, flow_slots=table_size, eviction=eviction)

    def state(program):
        return _snapshot(
            program, build_replay_result(program.verdicts, [], [], program.recirculation_stats())
        )

    reference = program()
    oracle = _snapshot(reference, oracle_replay(reference, _dataset(before + after)))

    twice = program()
    vz.replay_arrays(twice, before)
    vz.replay_arrays(twice, after)
    handed_to_oracle = program()
    vz.replay_arrays(handed_to_oracle, before)
    oracle_replay(handed_to_oracle, _dataset(after))
    broken = _accounting(twice, soa.n_packets)
    if broken is not None:
        return f"replay_arrays+replay_arrays: {broken}\n  (cut at packet {cut} of {order.size})"
    for name, candidate in (
        ("replay_arrays+replay_arrays", twice),
        ("replay_arrays+reference", handed_to_oracle),
    ):
        mismatch = _diff(name, oracle, state(candidate))
        if mismatch is None:
            try:
                assert_same_slot_state(reference, candidate)
            except AssertionError as error:
                mismatch = f"{name}: slot state diverges: {error}"
        if mismatch is not None:
            return f"{mismatch}\n  (cut at packet {cut} of {order.size})"
    return None


def _minimize(flows, still_failing) -> list[Flow]:
    """Greedy shrink: drop whole flows, then halve packet lists."""
    flows = list(flows)
    shrinking = True
    while shrinking:
        shrinking = False
        for index in range(len(flows)):
            candidate = flows[:index] + flows[index + 1:]
            if candidate and still_failing(candidate):
                flows = candidate
                shrinking = True
                break
    shrinking = True
    while shrinking:
        shrinking = False
        for index, flow in enumerate(flows):
            if flow.n_packets < 2:
                continue
            truncated = Flow(
                five_tuple=flow.five_tuple,
                packets=flow.packets[: flow.n_packets // 2],
                label=flow.label,
                class_name=flow.class_name,
                flow_id=flow.flow_id,
            )
            candidate = flows[:index] + [truncated] + flows[index + 1:]
            if still_failing(candidate):
                flows = candidate
                shrinking = True
    return flows


def _random_eviction_policy(rng: random.Random):
    """A random collision-slot eviction policy (LRU or a random idle timeout)."""
    if rng.random() < 0.4:
        return make_eviction_policy("lru")
    # Timeouts straddle the trace's inter-arrival gaps: 0.0 evicts on any
    # strictly-later packet, 5.0 almost never fires.
    timeout = rng.choice((0.0, 1e-4, 0.05, 0.5, 2.0, 5.0))
    return make_eviction_policy("idle-timeout", timeout=timeout)


def _fuzz_one(
    seed: int, model, rules, *, truncated: bool, eviction=None, occupancy: int | None = None,
    run=None,
) -> None:
    rng = random.Random(seed)
    flows, table_size = _random_trace(rng, occupancy)
    if run is None:
        run = _run_truncated if truncated else _run_engines

    def check(candidate_flows):
        fresh_rng = random.Random(seed + 1)  # deterministic chunk/cut sizes
        return run(model, rules, candidate_flows, table_size, fresh_rng, eviction)

    mismatch = check(flows)
    if mismatch is None:
        return
    minimal = _minimize(flows, lambda f: check(f) is not None)
    trace = "\n".join(
        f"  flow_id={flow.flow_id} tuple={flow.five_tuple} "
        f"packets={[(p.timestamp, p.size, p.flags, p.direction, p.payload) for p in flow.packets]}"
        for flow in minimal
    )
    pytest.fail(
        f"parity mismatch (seed={seed}, table_size={table_size}, "
        f"truncated={truncated}, eviction={eviction!r}, "
        f"occupancy={occupancy}):\n{check(minimal)}\n"
        f"minimized trace ({len(minimal)} flows):\n{trace}\n"
        f"repro: PARITY_FUZZ_SEED={seed} PARITY_FUZZ_CASES=1 "
        f"python -m pytest tests/test_parity_fuzz.py -s"
    )


@pytest.fixture(scope="module")
def programs(splidt_model, splidt_rules, topk_program_model):
    """``(model, rules)`` per program kind: SpliDT, and a top-k baseline's one-partition tree."""
    return {"splidt": (splidt_model, splidt_rules), "baseline": topk_program_model}


def _cases(seeds):
    """Every seed on SpliDT (plain ids), every fourth also on the baseline."""
    return [pytest.param("splidt", seed, id=str(seed)) for seed in seeds] + [
        pytest.param("baseline", seed, id=f"baseline-{seed}") for seed in seeds[::4]
    ]


@pytest.mark.parametrize("kind,seed", _cases(FIXED_SEEDS))
def test_parity_fuzz_fixed_corpus(kind, seed, programs):
    """Deterministic regression corpus across all four engines."""
    _fuzz_one(seed, *programs[kind], truncated=False)


@pytest.mark.parametrize("seed", FIXED_SEEDS[::4])
def test_parity_fuzz_truncated_streams(seed, splidt_model, splidt_rules):
    """Streams cut off mid-flight: prefix flows replay per-packet, exactly."""
    _fuzz_one(seed, splidt_model, splidt_rules, truncated=True)


@pytest.mark.parametrize("kind,seed", _cases(FIXED_SEEDS))
def test_parity_fuzz_eviction_corpus(kind, seed, programs):
    """Eviction-enabled corpus: all four engines agree on evicted/undecided.

    Every seed replays its trace under a random eviction policy (LRU or a
    random idle timeout) — the same collision-heavy tables as the base
    corpus, so slot-capacity pressure triggers real evictions.  The snapshot
    includes :meth:`SpliDTDataPlane.eviction_stats`, locking the engines to
    identical evicted-flow sets, not just identical verdicts.
    """
    policy_rng = random.Random(0xE51C7 + seed)
    policy = _random_eviction_policy(policy_rng)
    _fuzz_one(seed, *programs[kind], truncated=seed % 4 == 3, eviction=policy)


@pytest.mark.parametrize("occupancy", (2, 8))
@pytest.mark.parametrize("seed", FIXED_SEEDS[::2])
def test_parity_fuzz_occupancy_corpus(seed, occupancy, splidt_model, splidt_rules):
    """The collision corpus at 2x and 8x table occupancy (slot-stream regime)."""
    _fuzz_one(seed, splidt_model, splidt_rules, truncated=seed % 4 == 2,
              occupancy=occupancy)


@pytest.mark.parametrize("occupancy", (2, 8))
@pytest.mark.parametrize("seed", FIXED_SEEDS[::2])
def test_parity_fuzz_eviction_occupancy_corpus(seed, occupancy, splidt_model, splidt_rules):
    """The eviction corpus at 2x and 8x table occupancy: eviction churn per slot."""
    policy = _random_eviction_policy(random.Random(0xE51C7 + seed))
    _fuzz_one(seed, splidt_model, splidt_rules, truncated=seed % 4 == 2,
              eviction=policy, occupancy=occupancy)


@pytest.mark.parametrize("seed", FIXED_SEEDS)
def test_parity_fuzz_split_replay(seed, splidt_model, splidt_rules):
    """Two calls on one program: the second continues from deferred slot state.

    Odd seeds run under a random eviction policy, every fourth at 2x table
    occupancy (most slots then hold an undecided flow at the cut).
    """
    eviction = _random_eviction_policy(random.Random(0xE51C7 + seed)) if seed % 2 else None
    _fuzz_one(seed, splidt_model, splidt_rules, truncated=False, eviction=eviction,
              occupancy=2 if seed % 4 == 0 else None, run=_run_split)


class _MpFuzzFactory:
    """Module-level (spawn-picklable) program factory for the mp corpus."""

    def __init__(self, model, rules, table_size: int) -> None:
        self.model = model
        self.rules = rules
        self.table_size = table_size

    def __call__(self) -> SpliDTDataPlane:
        return SpliDTDataPlane(self.model, self.rules, flow_slots=self.table_size)


def _stream_mp_ring(model, rules, dataset, table_size, positions, chunk_rng):
    """One sharded-mp session over the ring transport, fed random chunks.

    Tiny ring geometry (4 slots of 32 positions) so the fuzz traffic
    exercises slot wraparound, span splitting and producer stalls, not just
    the happy path.
    """
    from repro.serve import ProcessShardedEngine

    engine = ProcessShardedEngine(
        _MpFuzzFactory(model, rules, table_size),
        workers=2,
        ring_slots=4,
        ring_span=32,
        flush_flows=2,
    )
    engine.open()
    soa = dataset.packet_arrays()
    position = 0
    while position < positions.size:
        step = chunk_rng.randint(1, max(1, positions.size // 3 or 1))
        engine.ingest(
            PacketChunk(soa=soa, flows=dataset.flows,
                        positions=positions[position:position + step])
        )
        position += step
    engine.drain()
    return engine.close()


@pytest.mark.parametrize("seed", FIXED_SEEDS[::4])
def test_parity_fuzz_sharded_mp_ring(seed, splidt_model, splidt_rules):
    """Ring-transport sharded-mp against the oracle, full and truncated.

    A 64-slot table over the corpus's small five-tuple pools keeps the
    collision pressure of the base corpus while both workers see traffic.
    Worker programs live in other processes, so the parent cannot observe
    controller digests or eviction state; the contract here is the served
    surface — verdicts (all five fields), TTD, labels and merged
    recirculation counters — checked by ``_assert_identical``.
    """
    from test_serve_engines import _assert_identical

    rng = random.Random(seed)
    flows, _ = _random_trace(rng)
    table_size = 64
    dataset = _dataset(flows)
    soa = dataset.packet_arrays()
    order = soa.interleave_order

    program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=table_size)
    oracle = oracle_replay(program, dataset)
    served = _stream_mp_ring(
        splidt_model, splidt_rules, dataset, table_size, order,
        random.Random(seed + 1),
    )
    _assert_identical(oracle, served)

    # Truncated stream: cut mid-flight, reference prefix via the streaming
    # engine (the per-packet oracle for partial streams).
    cut = random.Random(seed + 2).randint(0, order.size) if order.size else 0
    prefix = order[:cut]
    ref_program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=table_size)
    ref_engine = StreamingEngine(ref_program)
    ref_engine.open()
    ref_engine.ingest(PacketChunk(soa=soa, flows=dataset.flows, positions=prefix))
    ref_engine.drain()
    truncated_oracle = ref_engine.close()
    truncated_served = _stream_mp_ring(
        splidt_model, splidt_rules, dataset, table_size, prefix,
        random.Random(seed + 3),
    )
    _assert_identical(truncated_oracle, truncated_served)


def test_parity_fuzz_random_burst(programs):
    """A short randomized burst; seeds are printed so failures reproduce.

    ``PARITY_FUZZ_SEED`` pins the base seed, ``PARITY_FUZZ_CASES`` scales the
    burst (CI runs a fixed seed plus a small burst; set it higher for a soak).
    Every other case runs under a random eviction policy, and every case runs
    on both program kinds.
    """
    cases = int(os.environ.get("PARITY_FUZZ_CASES", "3"))
    base_env = os.environ.get("PARITY_FUZZ_SEED")
    base = int(base_env) if base_env else random.SystemRandom().randint(0, 2**31)
    seeds = [base + offset for offset in range(cases)]
    print(f"\nparity-fuzz random burst: seeds={seeds}")
    for seed in seeds:
        eviction = (
            _random_eviction_policy(random.Random(seed ^ 0xE51C7))
            if seed % 2 == 0 else None
        )
        for model, rules in programs.values():
            _fuzz_one(seed, model, rules, truncated=seed % 3 == 0, eviction=eviction)


def test_eviction_resolves_undecided(splidt_model, splidt_rules):
    """An evicted flow loses its state and ends undecided, bit-exactly.

    Flow 0 has fewer packets than partitions (it can never decide) and idles;
    flow 1 collides into the same slot long after the idle timeout, so flow 0
    is evicted.  All engines must agree that flow 0 has no verdict and that
    exactly one eviction (of flow 0) happened.
    """
    tuple_a = FiveTuple(src_ip=1, dst_ip=2, src_port=3, dst_port=4, protocol=6)
    # Force a slot collision on a table of one slot.
    tuple_b = FiveTuple(src_ip=9, dst_ip=8, src_port=7, dst_port=6, protocol=17)
    flows = [
        Flow(five_tuple=tuple_a,
             packets=[Packet(timestamp=0.0, size=100, flags=0x10)],
             label=0, class_name="", flow_id=0),
        Flow(five_tuple=tuple_b,
             packets=[Packet(timestamp=10.0 + 0.01 * i, size=200) for i in range(8)],
             label=1, class_name="", flow_id=1),
    ]
    policy = make_eviction_policy("idle-timeout", timeout=1.0)
    mismatch = _run_engines(splidt_model, splidt_rules, flows, 1,
                            random.Random(0), policy)
    assert mismatch is None, mismatch

    program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=1,
                              eviction=policy)
    result = replay_dataset(program, _dataset(flows))
    stats = program.eviction_stats()
    assert 0 not in result.verdicts
    assert 1 in result.verdicts
    assert stats["evictions"] == 1
    assert stats["evicted_flows"] == [0]


def test_duplicate_five_tuple_goes_scalar(splidt_model, splidt_rules):
    """Two same-tuple flows in one slot must reproduce reference dedup exactly.

    The reference engine treats the second flow's packets as a continuation
    of the (decided) first flow and never emits a verdict for it; the batched
    plane can only reproduce that by sending the whole slot scalar.
    """
    tuple_ = FiveTuple(src_ip=1, dst_ip=2, src_port=3, dst_port=4, protocol=6)

    def burst(start: float, flow_id: int) -> Flow:
        packets = [
            Packet(timestamp=start + 0.1 * i, size=100 + i, flags=0x10,
                   direction=1, payload=60)
            for i in range(6)
        ]
        return Flow(five_tuple=tuple_, packets=packets, label=flow_id % 2,
                    class_name="", flow_id=flow_id)

    flows = [burst(0.0, 0), burst(100.0, 1)]  # disjoint in time, same tuple
    mismatch = _run_engines(splidt_model, splidt_rules, flows, 64, random.Random(0))
    assert mismatch is None, mismatch

    # And the reference semantics themselves: the second flow has no verdict.
    program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=64)
    result = replay_dataset(program, _dataset(flows))
    assert 1 not in result.verdicts
