"""The six benchmark workloads.

Every workload follows one protocol (:class:`Workload`): ``setup`` generates
its inputs from the seed and brings the program to the point where it can
serve, ``unit`` runs one timed unit of work (a replay, a serving session, a
design search) and returns the seconds it took, ``finish`` takes whatever
untimed measurements remain (the polled session behind the verdict lag), and
``verify`` re-derives the outputs with the per-packet reference engine.

The load model is a closed loop with one client: the harness calls the
library back to back, which is how ``replay``/``serve``/``dse`` are used.
Shapes are fixed; ``--seconds`` only changes how many units are timed.  Each
class also carries a ``tiny`` shape the tier-1 smoke test runs in-process —
those numbers are never reported.

Only ``repro``'s public API is used here; the private names the traced run
wraps live in ``trace.py`` and may disappear without breaking a workload.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.dse import DesignSearch, evaluate_configuration
from repro.datasets import (
    DatasetStore,
    PacketArrays,
    SyntheticTrafficGenerator,
    get_profile,
    load_dataset,
)
from repro.datasets.streams import PacketChunk
from repro.pipeline import ExperimentSpec, get_system
from repro.scenarios import LayerSpec, ScenarioSpec, get_workload_scenario
from repro.scenarios.runner import prepare_system, replay_workload
from repro.scenarios.traffic import ScenarioWorkload, build_workload
from repro.serve import StreamingEngine, create_engine
from repro.switch.hashing import flow_slots

from perf.trace import UNIT_SPAN, Tracer, ring_occupancy

#: The deployed model of every traffic workload: D=9, k=4, P=3.
MODEL = {"depth": 9, "features_per_subtree": 4, "n_partitions": 3}

#: Seed of the traffic classes and of the model trained on them.  The
#: synthetic generators derive each class's behaviour (packet gaps, sizes,
#: flow lengths) from their seed, so two seeds are two different datasets: the
#: serving workloads' throughput moves 2.6x and their verdict lag 8x between
#: them.  The model and the classes it was trained for are the program under
#: test; ``--seed`` draws the flows.
MODEL_SEED = 7

#: Packets per ingested chunk of the serving workloads.
CHUNK_SIZE = 2048


@dataclass
class Verification:
    """Outcome of checking one run's outputs against the oracle.

    An *op* is one flow verdict (replay/serve) or one candidate evaluation
    (design search).  ``digest`` fingerprints the outputs so two commits can
    be compared without re-running the oracle.
    """

    attempted: int
    failed: int
    digest: str
    notes: list[str] = field(default_factory=list)


def _verdict_digest(verdicts: dict, recirculation: dict, evictions) -> str:
    sha = hashlib.sha256()
    for flow_id in sorted(verdicts):
        verdict = verdicts[flow_id]
        sha.update(f"{flow_id}:{verdict.label}:{float(verdict.decided_at).hex()};".encode())
    sha.update(repr(sorted(recirculation.items())).encode())
    sha.update(repr(evictions).encode())
    return sha.hexdigest()


def _percentiles(values: np.ndarray) -> tuple[float, float]:
    if values.size == 0:
        return float("nan"), float("nan")
    return float(np.percentile(values, 50)), float(np.percentile(values, 99))


class Workload:
    """Protocol and shared bookkeeping of one benchmark workload."""

    name = ""
    #: Untimed units run before the window (cold caches, lazy set-up).
    warmups = 1
    #: Units timed even when ``--seconds`` is already spent.
    min_units = 3
    shape: dict = {}
    tiny_shape: dict = {}
    #: What units time themselves with; the harness puts its calibrator's
    #: clock here, which leaves out the time its sampling takes.
    clock = staticmethod(time.perf_counter)
    #: The program runs worker processes of its own, so host-speed samples
    #: wait until a unit has ended (``Calibrator.sampling``).
    runs_workers = False

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        self.seed = seed
        self.p = {**self.shape, **(self.tiny_shape if tiny else {})}
        #: Work items one unit processes: packets, or candidates of a design
        #: search (the numerator of ``items_per_s``).
        self.n_items = 0
        #: Flows in the traffic (0 for a design search).
        self.n_flows = 0
        #: Exact counts of the last unit (must not move under a perf change).
        self.counts: dict[str, float] = {}
        #: ``(p50, p99)`` of the verdict lag in items, and its wall-clock twin.
        self.lag_items = (float("nan"), float("nan"))
        self.lag_ms = (0.0, 0.0)
        self.extras: dict[str, float] = {}

    def setup(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def unit(self, tracer: Tracer) -> float:
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed measurements after the window (default: none)."""

    def verify(self) -> Verification:
        raise NotImplementedError

    def close(self) -> None:
        """Release whatever ``setup`` opened."""


# ----------------------------------------------------------------------
# Traffic workloads: a trained model replaying or serving generated flows
# ----------------------------------------------------------------------
class _TrafficWorkload(Workload):
    """Shared set-up of the replay and serve workloads.

    Trains the fixed model on clean traffic of the scenario's profile, as
    ``repro.scenarios.run_scenario`` would, and draws the scenario's flows
    from ``--seed``.
    """

    def scenario(self) -> ScenarioSpec:
        """The scenario at ``MODEL_SEED``: profile, flow count, eviction policy."""
        raise NotImplementedError

    def generate(self, scenario: ScenarioSpec) -> ScenarioWorkload:
        """The scenario's clean traffic: classes of ``MODEL_SEED``, flows of ``--seed``."""
        generator = SyntheticTrafficGenerator(
            get_profile(scenario.dataset),
            seed=MODEL_SEED,
            rng=np.random.default_rng(self.seed),
        )
        dataset = generator.generate(scenario.traffic_flows)
        return ScenarioWorkload(
            name=scenario.name,
            flows=dataset.flows,
            soa=PacketArrays.from_flows(dataset.flows),
            class_names=dataset.class_names,
            n_legit=len(dataset.flows),
        )

    def setup(self, tracer: Tracer) -> None:
        scenario = self.scenario()
        experiment = ExperimentSpec(
            n_flows=self.p["train_flows"],
            flow_slots=self.p["flow_slots"],
            scenario=scenario,
            **MODEL,
        )
        model, rules, spec = prepare_system(scenario, experiment)
        self.factory = get_system(spec.system).program_factory(model, rules, spec)
        self.traffic = self.generate(scenario)
        self.n_items = self.traffic.n_packets
        self.n_flows = self.traffic.n_flows
        soa = self.traffic.soa
        self._rank = np.empty(soa.n_packets, dtype=np.int64)
        self._rank[soa.interleave_order] = np.arange(soa.n_packets)
        self._flow_index = {int(fid): i for i, fid in enumerate(soa.flow_ids)}
        if self.traffic.source is not None:
            self.extras["stream_spill_mib"] = self.traffic.source.spilled_bytes() / 2**20

    def _program(self):
        program = self.factory()
        # As run_scenario does: replays read verdicts, never the digest stream.
        program.controller.retain_digests = False
        return program

    def _deciding_rank(self, verdicts: dict) -> np.ndarray:
        """Stream position of each verdict's deciding packet (sorted by flow id)."""
        soa = self.traffic.soa
        ranks = np.empty(len(verdicts), dtype=np.int64)
        for row, flow_id in enumerate(sorted(verdicts)):
            index = self._flow_index[flow_id]
            lo, hi = int(soa.flow_starts[index]), int(soa.flow_starts[index + 1])
            offset = int(np.searchsorted(soa.timestamps[lo:hi], verdicts[flow_id].decided_at))
            ranks[row] = self._rank[min(lo + offset, hi - 1)]
        return ranks

    def _oracle(self):
        """Verdicts, recirculation and evictions of the per-packet reference."""
        soa = self.traffic.soa
        program = self._program()
        engine = StreamingEngine(program).open()
        engine.ingest(
            PacketChunk(soa=soa, flows=self.traffic.flows, positions=soa.interleave_order)
        )
        result = engine.close()
        return result.verdicts, result.recirculation, program.eviction_stats()["evictions"]

    def _verify(self, verdicts: dict, recirculation: dict, evictions) -> Verification:
        want, want_recirculation, want_evictions = self._oracle()
        flow_ids = set(want) | set(verdicts)
        failed = sum(
            1
            for flow_id in flow_ids
            if flow_id not in want
            or flow_id not in verdicts
            or (verdicts[flow_id].label, verdicts[flow_id].decided_at)
            != (want[flow_id].label, want[flow_id].decided_at)
        )
        notes = []
        if recirculation != want_recirculation:
            notes.append(f"recirculation {recirculation} != oracle {want_recirculation}")
        if evictions is not None and evictions != want_evictions:
            notes.append(f"evictions {evictions} != oracle {want_evictions}")
        if notes:
            failed = len(flow_ids)  # run-level totals differ: no verdict is trusted
        return Verification(
            attempted=len(flow_ids),
            failed=failed,
            digest=_verdict_digest(verdicts, recirculation, evictions),
            notes=notes,
        )

    def close(self) -> None:
        self.traffic.close()


class _ReplayWorkload(_TrafficWorkload):
    """One unit = build a fresh program and ``replay_workload`` all traffic."""

    def unit(self, tracer: Tracer) -> float:
        # Building the program is inside the unit, as in ``run_scenario``: a
        # fresh register file is either zeroed when built or page-faulted in
        # when first written, whichever malloc picks, and only the sum of
        # both is steady.  The last unit's program goes first, so that every
        # unit finds the allocator in the same state.
        self._last = None
        started = self.clock()
        with tracer.span(UNIT_SPAN):
            program = self._program()
            replay_workload(program, self.traffic)
            with tracer.span("dataplane.result_build"):
                verdicts = program.verdicts
        elapsed = self.clock() - started
        self._last = (program, verdicts)
        return elapsed

    def finish(self) -> None:
        program, verdicts = self._last
        # A replay hands its verdicts over when it returns: a flow waits for
        # every packet after its deciding one.
        lag = self.n_items - 1 - self._deciding_rank(verdicts)
        self.lag_items = _percentiles(lag)
        self.counts = {
            "verdicts_n": len(verdicts),
            "switch.evictions_n": program.eviction_stats()["evictions"],
            "switch.recirc_packets_n": program.recirculation_stats()["packets"],
        }

    def verify(self) -> Verification:
        program, verdicts = self._last
        return self._verify(
            verdicts, program.recirculation_stats(), program.eviction_stats()["evictions"]
        )


class CleanReplay(_ReplayWorkload):
    name = "clean-replay"
    min_units = 20
    shape = {"train_flows": 300, "traffic_flows": 2000, "flow_slots": 2**20}
    tiny_shape = {"train_flows": 60, "traffic_flows": 100, "flow_slots": 2**14}

    def scenario(self) -> ScenarioSpec:
        return ScenarioSpec(
            name=self.name, dataset="D3", traffic_flows=self.p["traffic_flows"], seed=MODEL_SEED
        )


class PressureReplay(_ReplayWorkload):
    name = "pressure-replay"
    #: Replays of one process agree within a few percent; a third adds 2 s.
    min_units = 2
    shape = {"train_flows": 300, "traffic_flows": 2048, "flow_slots": 1024}
    tiny_shape = {"train_flows": 60, "traffic_flows": 120, "flow_slots": 60}

    def scenario(self) -> ScenarioSpec:
        return get_workload_scenario("table-pressure").replace(
            traffic_flows=self.p["traffic_flows"], seed=MODEL_SEED
        )


class FloodStreamed(_ReplayWorkload):
    name = "flood-streamed"
    #: One replay is 4-5 s, longer than the window.
    min_units = 1
    shape = {
        "train_flows": 300,
        "traffic_flows": 512,
        "flood_flows": 40000,
        "flood_duration": 10.0,
        "flow_slots": 4096,
    }
    tiny_shape = {
        "train_flows": 60,
        "traffic_flows": 40,
        "flood_flows": 80,
        "flood_duration": 1.0,
        "flow_slots": 12,
    }

    def scenario(self) -> ScenarioSpec:
        flood = LayerSpec(
            "ddos-flood",
            {"flows": self.p["flood_flows"], "duration": self.p["flood_duration"]},
        )
        return get_workload_scenario("million-flow-streamed").replace(
            traffic_flows=self.p["traffic_flows"], seed=MODEL_SEED, layers=(flood,)
        )

    def generate(self, scenario: ScenarioSpec) -> ScenarioWorkload:
        # Only build_workload composes layers and spills to memmap columns,
        # and it derives classes and flows from one seed.  Two in three
        # packets here are the flood's, which has no classes.
        return build_workload(scenario.replace(seed=self.seed))


class _ServeWorkload(_TrafficWorkload):
    """One unit = ingest every chunk of the clean traffic, then ``drain``.

    ``open()`` and ``close()`` sit outside the timed unit (pre-binding is
    deployment warm-up, teardown is not serving).  After the window one more
    session is polled after every ``ingest`` for the verdict lag.
    """

    warmups = 2
    min_units = 5
    shape = {"train_flows": 300, "traffic_flows": 2000, "flow_slots": 2**20}
    tiny_shape = {"train_flows": 60, "traffic_flows": 100, "flow_slots": 2**14}
    engine = ""
    engine_options: dict = {}

    def scenario(self) -> ScenarioSpec:
        return ScenarioSpec(
            name=self.name, dataset="D3", traffic_flows=self.p["traffic_flows"], seed=MODEL_SEED
        )

    def setup(self, tracer: Tracer) -> None:
        super().setup(tracer)
        with tracer.span("datasets.chunk_iter"):
            self.chunks = list(self.traffic.iter_chunks(CHUNK_SIZE))

    def _engine(self):
        # Library defaults for everything the workload does not name.
        return create_engine(
            self.factory, engine=self.engine, chunk_size=CHUNK_SIZE, **self.engine_options
        )

    def unit(self, tracer: Tracer) -> float:
        engine = self._engine().open()
        started = self.clock()
        with tracer.span(UNIT_SPAN):
            for chunk in self.chunks:
                engine.ingest(chunk)
                if tracer.active:
                    self.extras["ring_occupancy_max"] = max(
                        self.extras.get("ring_occupancy_max", 0.0), ring_occupancy(engine)
                    )
            engine.drain()
        elapsed = self.clock() - started
        self._transport = engine.stats().transport
        self._last = engine.close()
        return elapsed

    def polled_session(self) -> tuple[np.ndarray, np.ndarray]:
        """Verdict lag of one session polled after every ``ingest``.

        Returns, per decided flow (sorted by flow id), the packets ingested
        between its deciding packet and the first poll showing its verdict,
        and the wall-clock milliseconds between that packet being offered
        and that poll.
        """
        engine = self._engine().open()
        first_seen: dict[int, tuple[int, float]] = {}
        offered_at = []
        ingested = 0

        def poll() -> None:
            verdicts = engine.verdicts()
            now = time.perf_counter()
            for flow_id in verdicts.keys() - first_seen.keys():
                first_seen[flow_id] = (ingested, now)

        for chunk in self.chunks:
            offered_at.append(time.perf_counter())
            engine.ingest(chunk)
            ingested += chunk.n_packets
            poll()
        engine.drain()
        poll()
        verdicts = engine.close().verdicts
        ranks = self._deciding_rank(verdicts)
        seen = np.array([first_seen[fid][0] for fid in sorted(verdicts)], dtype=np.int64)
        seen_at = np.array([first_seen[fid][1] for fid in sorted(verdicts)])
        chunk_ends = np.cumsum([chunk.n_packets for chunk in self.chunks])
        chunk_of = np.searchsorted(chunk_ends, ranks, side="right")
        lag_ms = (seen_at - np.asarray(offered_at)[chunk_of]) * 1e3
        return seen - (ranks + 1), lag_ms

    def finish(self) -> None:
        lag, lag_ms = self.polled_session()
        self.lag_items = _percentiles(lag)
        self.lag_ms = _percentiles(lag_ms)
        self.counts = {
            "verdicts_n": len(self._last.verdicts),
            "switch.recirc_packets_n": self._last.recirculation.get("packets", 0.0),
        }
        for key in ("ring_producer_stalls", "ring_consumer_stalls"):
            self.extras[key] = self._transport.get(key, 0.0)

    def verify(self) -> Verification:
        return self._verify(self._last.verdicts, self._last.recirculation, None)


class ServeMicrobatch(_ServeWorkload):
    name = "serve-microbatch"
    engine = "microbatch"


class ServeMp(_ServeWorkload):
    name = "serve-mp"
    engine = "sharded-mp"
    engine_options = {"workers": 2}
    runs_workers = True

    def finish(self) -> None:
        super().finish()
        workers = self.engine_options["workers"]
        soa = self.traffic.soa
        shard = flow_slots(self.traffic.flows, self.p["flow_slots"]) % workers
        per_shard = np.bincount(shard, weights=soa.n_packets_per_flow, minlength=workers)
        self.extras["shard_packet_skew"] = float(per_shard.max() / per_shard.mean())


# ----------------------------------------------------------------------
# Design search
# ----------------------------------------------------------------------
class DseSearch(Workload):
    """One unit = a fresh ``DatasetStore`` and one serial design search."""

    name = "dse-search"
    warmups = 0
    #: One search is ~10 s; a longer window times more, whose history digests
    #: must then agree.
    min_units = 1
    shape = {"n_flows": 1000, "iterations": 40, "batch_size": 4, "recheck": 3}
    tiny_shape = {"n_flows": 60, "iterations": 6, "batch_size": 3, "recheck": 1}

    def setup(self, tracer: Tracer) -> None:
        self.dataset = load_dataset("D3", n_flows=self.p["n_flows"], seed=self.seed)
        self.n_items = self.p["iterations"]
        self._digests: list[str] = []

    def _store(self) -> DatasetStore:
        return DatasetStore(self.dataset, random_state=self.seed)

    def unit(self, tracer: Tracer) -> float:
        started = self.clock()
        with tracer.span(UNIT_SPAN):
            with DesignSearch(self._store(), seed=self.seed, workers=0) as search:
                result = search.run(self.p["iterations"], batch_size=self.p["batch_size"])
        elapsed = self.clock() - started
        self._last = result
        self._digests.append(self._history_digest(result))
        return elapsed

    @staticmethod
    def _outcome(candidate) -> tuple:
        config = candidate.config
        return (
            config.depth,
            config.features_per_subtree,
            config.partition_sizes,
            float(candidate.f1_score).hex(),
            candidate.max_flows,
            candidate.rules.n_entries,
        )

    def _history_digest(self, result) -> str:
        history = [self._outcome(c) for c in result.history]
        pareto = [self._outcome(c) for c in result.pareto_candidates()]
        return hashlib.sha256(repr((history, pareto)).encode()).hexdigest()

    def finish(self) -> None:
        history = self._last.history
        # run() returns the whole history at once: a candidate's result waits
        # for every candidate evaluated after it.
        self.lag_items = _percentiles(len(history) - 1 - np.arange(len(history)))
        self.counts = {
            "verdicts_n": len(history),
            "core.dse_cache_hits_n": len(history) - len({id(c) for c in history}),
        }

    def verify(self) -> Verification:
        history = self._last.history
        notes = []
        failed = 0
        if len(set(self._digests)) > 1:
            notes.append(f"history digests differ across units: {self._digests}")
            failed = len(history)
        else:
            # Re-evaluate a spread of candidates from scratch: no search-level
            # cache, no shared evaluation context.
            picks = np.linspace(0, len(history) - 1, self.p["recheck"]).astype(int)
            store = self._store()
            for pick in sorted(set(picks.tolist())):
                fresh = evaluate_configuration(
                    store, history[pick].config, random_state=self.seed
                )
                if self._outcome(fresh) != self._outcome(history[pick]):
                    notes.append(f"candidate {pick} differs when re-evaluated")
                    failed += 1
        return Verification(len(history), failed, self._digests[-1], notes)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (CleanReplay, PressureReplay, FloodStreamed, ServeMicrobatch, ServeMp, DseSearch)
}
