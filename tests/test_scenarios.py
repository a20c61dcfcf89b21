"""Tests for the adversarial workload suite (:mod:`repro.scenarios`)."""

from __future__ import annotations

import dataclasses
import json
import math
import tempfile

import numpy as np
import pytest

from repro.dataplane import oracle
from repro.dataplane.splidt_program import SpliDTDataPlane
from repro.pipeline.spec import ExperimentSpec, SpecError
from repro.scenarios import (
    WORKLOAD_SCENARIOS,
    DegradationBounds,
    LayerSpec,
    ScenarioError,
    ScenarioSpec,
    build_workload,
    get_workload_scenario,
    run_scenario,
    sweep_occupancy,
)
from repro.scenarios import traffic
from repro.scenarios.runner import prepare_system
from repro.switch.phv import make_data_phv
from repro.switch.eviction import make_eviction_policy

#: SoA columns that must be bit-identical between representations.
SOA_COLUMNS = (
    "timestamps", "sizes", "flags", "directions", "payloads", "packet_flow",
    "flow_starts", "flow_ids", "labels", "n_packets_per_flow", "src_ports",
    "dst_ports", "protocols", "first_sizes", "first_timestamps",
    "interleave_order",
)


# ----------------------------------------------------------------------
# ScenarioSpec serialisation
# ----------------------------------------------------------------------
class TestScenarioSpec:
    def _spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            name="roundtrip", dataset="D2", traffic_flows=100, seed=9,
            layers=(
                LayerSpec("heavy-hitter", {"skew": 1.5}),
                LayerSpec("ddos-flood", {"flows": 50}),
            ),
            eviction="idle-timeout", eviction_timeout=0.25,
            streamed=True,
            bounds=DegradationBounds(min_accuracy=0.4),
        )

    def test_round_trip(self):
        spec = self._spec()
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert math.isinf(restored.bounds.max_median_ttd)

    def test_unknown_keys_rejected_at_every_level(self):
        data = self._spec().to_dict()
        for extra in ({"bogus": 1}, {"ruleset": "x.rules"}):
            with pytest.raises(ScenarioError, match="unknown scenario fields"):
                ScenarioSpec.from_dict({**data, **extra})
        bad_layer = dict(data)
        bad_layer["layers"] = [{**data["layers"][0], "bogus": 1}]
        with pytest.raises(ScenarioError, match="unknown layer fields"):
            ScenarioSpec.from_dict(bad_layer)
        bad_bounds = dict(data)
        bad_bounds["bounds"] = {**data["bounds"], "bogus": 1}
        with pytest.raises(ScenarioError, match="unknown bounds fields"):
            ScenarioSpec.from_dict(bad_bounds)
        # Only from_dict reads dicts: a constructor given one fails validate().
        for nested in ({"layers": tuple(data["layers"])}, {"bounds": data["bounds"]}):
            with pytest.raises(ScenarioError):
                ScenarioSpec(**nested).validate()

    def test_validation_rejects_bad_values(self):
        with pytest.raises(ScenarioError, match="eviction"):
            ScenarioSpec(eviction="nope").validate()
        with pytest.raises(ScenarioError, match="layer kind"):
            ScenarioSpec(layers=(LayerSpec("meteor-strike", {}),)).validate()
        with pytest.raises(ScenarioError, match="unknown parameters"):
            ScenarioSpec(layers=(LayerSpec("evasion", {"zoom": 2}),)).validate()
        with pytest.raises(ScenarioError, match="fraction"):
            ScenarioSpec(layers=(LayerSpec("evasion", {"fraction": 1.5}),)).validate()

    def test_nested_in_experiment_spec(self):
        spec = ExperimentSpec(scenario=self._spec().replace(streamed=False)).validate()
        data = json.loads(json.dumps(spec.to_dict()))
        assert ExperimentSpec.from_dict(data) == spec
        with pytest.raises(SpecError, match="unknown scenario fields"):
            ExperimentSpec.from_dict(
                {**data, "scenario": {**data["scenario"], "bogus": 1}}
            )
        with pytest.raises(SpecError, match="scenario"):
            ExperimentSpec(scenario=ScenarioSpec(eviction="nope")).validate()

    def test_catalog_entries_all_validate(self):
        for name in sorted(WORKLOAD_SCENARIOS):
            get_workload_scenario(name).validate()
        with pytest.raises(ScenarioError, match="unknown workload scenario"):
            get_workload_scenario("does-not-exist")


# ----------------------------------------------------------------------
# Traffic layers
# ----------------------------------------------------------------------
class TestTrafficLayers:
    BASE = ScenarioSpec(name="base", dataset="D3", traffic_flows=40, seed=21)

    def test_build_is_deterministic(self):
        first = build_workload(self.BASE.replace(
            layers=(LayerSpec("ddos-flood", {"flows": 32}),)))
        second = build_workload(self.BASE.replace(
            layers=(LayerSpec("ddos-flood", {"flows": 32}),)))
        for column in SOA_COLUMNS:
            assert np.array_equal(getattr(first.soa, column),
                                  getattr(second.soa, column)), column

    def test_layers_do_not_disturb_legitimate_draws(self):
        # Layer randomness is disjoint from the generator stream: adding a
        # heavy-hitter layer rewrites src_ips but nothing else.
        plain = build_workload(self.BASE)
        layered = build_workload(self.BASE.replace(
            layers=(LayerSpec("heavy-hitter", {}),)))
        assert plain.n_flows == layered.n_flows
        for column in ("timestamps", "sizes", "labels", "n_packets_per_flow",
                       "dst_ports", "protocols"):
            assert np.array_equal(getattr(plain.soa, column),
                                  getattr(layered.soa, column)), column
        pool = 0x0A800000 + np.arange(16)
        sources = {layered.flows[i].five_tuple.src_ip
                   for i in range(layered.n_flows)}
        assert sources <= set(int(ip) for ip in pool)

    def test_flash_crowd_compresses_start_times(self):
        layered = build_workload(self.BASE.replace(
            layers=(LayerSpec("flash-crowd",
                              {"at": 2.0, "width": 0.1, "fraction": 1.0}),)))
        starts = np.asarray(layered.soa.first_timestamps)
        assert np.all((starts >= 2.0) & (starts < 2.1))

    def test_ddos_flood_appends_short_unclassifiable_flows(self):
        workload = build_workload(self.BASE.replace(
            layers=(LayerSpec("ddos-flood",
                              {"flows": 64, "min_packets": 1, "max_packets": 3}),)))
        assert workload.n_flows == workload.n_legit + 64
        flood_counts = np.asarray(workload.soa.n_packets_per_flow[workload.n_legit:])
        assert flood_counts.min() >= 1 and flood_counts.max() <= 3
        assert np.all(np.asarray(workload.soa.labels[workload.n_legit:]) == 0)

    def test_evasion_layer_shrinks_advertised_sizes(self):
        honest = build_workload(self.BASE)
        assert honest.advertised is None
        evading = build_workload(self.BASE.replace(
            layers=(LayerSpec("evasion", {"scale": 0.5, "fraction": 1.0}),)))
        truth = np.asarray(evading.soa.n_packets_per_flow)
        expected = np.maximum(np.round(truth * 0.5).astype(np.int64), 1)
        assert np.array_equal(evading.advertised, expected)

    def test_streamed_matches_materialized_bit_exactly(self):
        spec = self.BASE.replace(layers=(
            LayerSpec("heavy-hitter", {}),
            LayerSpec("flash-crowd", {}),
            LayerSpec("ddos-flood", {"flows": 48}),
        ))
        materialized = build_workload(spec)
        with build_workload(spec.replace(streamed=True)) as streamed:
            assert streamed.streamed and not materialized.streamed
            for column in SOA_COLUMNS:
                assert np.array_equal(getattr(materialized.soa, column),
                                      getattr(streamed.soa, column)), column
            for i in (0, materialized.n_legit, materialized.n_flows - 1):
                assert (materialized.flows[i].five_tuple
                        == streamed.flows[i].five_tuple)

    def test_a_failed_streamed_build_leaves_no_spill_directory(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        build_block = traffic._DdosFloodLayer.build_block
        calls = []

        def second_block_fails(layer, *args, **kwargs):
            calls.append(layer)
            if len(calls) == 2:
                raise RuntimeError("second block")
            return build_block(layer, *args, **kwargs)

        monkeypatch.setattr(traffic._DdosFloodLayer, "build_block", second_block_fails)
        flood = LayerSpec("ddos-flood", {"flows": 32})
        with pytest.raises(RuntimeError, match="second block"):
            build_workload(self.BASE.replace(streamed=True, layers=(flood, flood)))
        assert len(calls) == 2
        assert not list(tmp_path.glob("splidt-stream-*"))


# ----------------------------------------------------------------------
# Eviction tie-breaking (satellite: determinism unit tests)
# ----------------------------------------------------------------------
class TestEvictionTieBreaking:
    def _program(self, splidt_model, splidt_rules, policy):
        return SpliDTDataPlane(
            splidt_model, splidt_rules, flow_slots=1,
            eviction=make_eviction_policy(policy),
        )

    @staticmethod
    def _packet(program, flow, index, flow_id):
        # One oracle call per packet: the slot state goes back to the program
        # as columns in between, as it does between any two calls.
        interpreter = oracle.PacketInterpreter(program)
        interpreter.process_packet(make_data_phv(flow.five_tuple, flow.packets[index]),
                                   flow_id, flow.n_packets)
        interpreter.close()

    @staticmethod
    def _pair(dataset):
        # The dataset's flows are views of its columns: the tests edit
        # timestamps on flows of their own, holding packet objects.
        return tuple(
            dataclasses.replace(flow, packets=list(flow.packets))
            for flow in (dataset.flows[0], dataset.flows[1])
        )

    def test_exact_timestamp_tie_keeps_resident(self, splidt_model, splidt_rules,
                                                small_dataset):
        resident, challenger = self._pair(small_dataset)
        challenger.packets[0].timestamp = resident.packets[0].timestamp
        program = self._program(splidt_model, splidt_rules, "lru")
        self._packet(program, resident, 0, resident.flow_id)
        self._packet(program, challenger, 0, challenger.flow_id)
        # lru compares strictly: an exact tie keeps the resident.
        assert program.eviction_stats()["evictions"] == 0
        assert challenger.flow_id not in program.verdicts

    def test_later_packet_evicts_under_lru(self, splidt_model, splidt_rules,
                                           small_dataset):
        resident, challenger = self._pair(small_dataset)
        challenger.packets[0].timestamp = resident.packets[0].timestamp + 1e-6
        program = self._program(splidt_model, splidt_rules, "lru")
        self._packet(program, resident, 0, resident.flow_id)
        self._packet(program, challenger, 0, challenger.flow_id)
        stats = program.eviction_stats()
        assert stats["evictions"] == 1
        assert stats["evicted_flows"] == [resident.flow_id]

    def test_idle_timeout_boundary_is_exclusive(self, splidt_model, splidt_rules,
                                                small_dataset):
        resident, challenger = self._pair(small_dataset)
        base = resident.packets[0].timestamp
        for delta, evictions in ((1.0, 0), (1.0 + 1e-9, 1)):
            challenger.packets[0].timestamp = base + delta
            program = SpliDTDataPlane(
                splidt_model, splidt_rules, flow_slots=1,
                eviction=make_eviction_policy("idle-timeout", timeout=1.0),
            )
            self._packet(program, resident, 0, resident.flow_id)
            self._packet(program, challenger, 0, challenger.flow_id)
            assert program.eviction_stats()["evictions"] == evictions, delta

    def test_eviction_replay_is_deterministic(self, splidt_model, splidt_rules,
                                              small_dataset):
        def replay():
            program = SpliDTDataPlane(
                splidt_model, splidt_rules, flow_slots=16,
                eviction=make_eviction_policy("lru"),
            )
            interpreter = oracle.PacketInterpreter(program)
            for flow in small_dataset.flows:
                for packet in flow.packets:
                    interpreter.process_packet(make_data_phv(flow.five_tuple, packet),
                                               flow.flow_id, flow.n_packets)
            interpreter.close()
            return (sorted(program.verdicts), program.eviction_stats())

        assert replay() == replay()


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
class TestRunner:
    SPEC = ScenarioSpec(
        name="runner-smoke", dataset="D3", traffic_flows=48, seed=5,
        layers=(LayerSpec("ddos-flood", {"flows": 96}),),
        eviction="lru",
    )

    @pytest.fixture(scope="class")
    def prepared(self):
        # A small model keeps class-scoped training cheap.
        return prepare_system(
            self.SPEC, ExperimentSpec(n_flows=140, depth=6, features_per_subtree=3)
        )

    def test_run_scenario_reports_degradation(self, prepared):
        result = run_scenario(self.SPEC, flow_slots=64, prepared=prepared)
        assert result.n_flows == 48 + 96
        assert result.n_legit == 48
        assert result.occupancy == pytest.approx(result.n_flows / 64)
        assert 0.0 <= result.decided_fraction <= 1.0
        assert 0.0 <= result.accuracy <= 1.0
        assert result.eviction_policy == "lru"
        json.dumps(result.to_dict())  # JSON-compatible

    def test_streamed_replay_matches_materialized(self, prepared):
        plain = run_scenario(self.SPEC, flow_slots=64, prepared=prepared)
        streamed = run_scenario(self.SPEC.replace(streamed=True),
                                flow_slots=64, prepared=prepared)
        assert streamed.streamed and not plain.streamed
        assert streamed.accuracy == plain.accuracy
        assert streamed.decided_fraction == plain.decided_fraction
        assert streamed.evictions == plain.evictions
        assert streamed.materialised_estimate is not None

    def test_bounds_violations_are_reported(self, prepared):
        result = run_scenario(self.SPEC, flow_slots=64, prepared=prepared)
        impossible = DegradationBounds(min_accuracy=1.01,
                                       min_decided_fraction=1.01,
                                       max_median_ttd=0.0)
        problems = result.violations(impossible)
        assert len(problems) >= 2
        assert result.violations(None) == []
        assert result.violations(DegradationBounds()) == []

    def test_scenario_replay_never_settles_slot_state(self, prepared, monkeypatch):
        # A scenario replay reads verdicts and counters, never slot state: the
        # hand-over the planes recorded stays columns, no object is built.
        programs, settles = [], []
        hand_over, settle = SpliDTDataPlane.hand_over, oracle.slot_states
        monkeypatch.setattr(
            SpliDTDataPlane, "hand_over",
            lambda self, record: (programs.append(self), hand_over(self, record))[1],
        )
        monkeypatch.setattr(
            oracle, "slot_states", lambda program: (settles.append(program), settle(program))[1]
        )
        result = run_scenario(
            get_workload_scenario("table-pressure"), flow_slots=64, traffic_flows=128,
            prepared=prepared,
        )
        paths = result.replay_stats["packets"]
        assert paths["slot_stream"] > paths["batched"]
        assert sum(paths.values()) == result.n_packets
        assert result.replay_stats["deferred"]["packets"] > 0
        # Window boundaries are read from the next-event columns, and a row
        # still open after two stretches from the size-class index.
        assert result.replay_stats["event_search"]["lookup"] > 0
        assert result.replay_stats["event_search"]["index"] > 0
        assert settles == [] and programs

    def test_run_scenario_checks_the_counter_accounting(self, prepared, monkeypatch):
        # Three facts about the counters hold whatever the verdicts are:
        # run_scenario checks them after the replay, with no oracle.
        checked = []
        check = SpliDTDataPlane.check_accounting
        monkeypatch.setattr(
            SpliDTDataPlane, "check_accounting",
            lambda self, n: (checked.append((self, n)), check(self, n))[1],
        )
        scenario = get_workload_scenario("table-pressure")
        result = run_scenario(scenario, flow_slots=64, traffic_flows=128, prepared=prepared)
        [(program, n_packets)] = checked
        counters = program.counters
        held = program.held_state()
        live = held.undecided.rows.size
        assert n_packets == result.n_packets
        assert (counters["dataplane.lockstep.packets"] + counters["dataplane.slot_stream.packets"]
                == n_packets)
        assert counters["switch.admissions"] == (
            len(program.verdict_rows()[0]) + counters["switch.evictions"] + live
        )
        assert 0 < counters["switch.evictions"] <= counters["switch.admissions"] and live > 0

        # A plane that admitted without accounting for it fails the run.
        begin = SpliDTDataPlane.begin_flows
        monkeypatch.setattr(
            SpliDTDataPlane, "begin_flows",
            lambda self, slots: begin(self, np.append(slots, slots[:1])),
        )
        broken = r"admissions == decided rows.*admissions \d+, decided rows \d+"
        with pytest.raises(RuntimeError, match=broken):
            run_scenario(scenario, flow_slots=64, traffic_flows=128, prepared=prepared)

    def test_a_baseline_replays_under_the_scenarios_eviction_policy(self, monkeypatch):
        """NetBeacon's program is a ``SpliDTDataPlane``: table pressure evicts its flows too."""
        reported, eviction_stats = [], SpliDTDataPlane.eviction_stats
        monkeypatch.setattr(
            SpliDTDataPlane, "eviction_stats",
            lambda self: (reported.append(eviction_stats(self)), reported[-1])[1],
        )
        result = run_scenario(
            get_workload_scenario("table-pressure"), flow_slots=64, traffic_flows=128,
            experiment=ExperimentSpec(system="netbeacon", n_flows=140),
        )
        stats = result.replay_stats
        assert result.eviction_policy == "idle-timeout"
        assert [r["evictions"] for r in reported] == [result.evictions]
        assert 0 < result.evictions <= reported[0]["admissions"]
        assert sum(stats["packets"].values()) == result.n_packets
        assert result.decided_fraction > 0.0

    def test_sweep_occupancy_scales_pressure(self):
        results = sweep_occupancy(
            self.SPEC.replace(layers=()), flow_slots=32, factors=(0.5, 2.0),
            experiment=ExperimentSpec(n_flows=140, depth=6,
                                      features_per_subtree=3),
        )
        assert [r.flow_slots for r in results] == [32, 32]
        assert results[0].n_flows < results[1].n_flows
        assert results[0].occupancy < results[1].occupancy
