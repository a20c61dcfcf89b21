"""Tests for the adversarial workload suite (:mod:`repro.scenarios`)."""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.dataplane.splidt_program import SpliDTDataPlane
from repro.pipeline.spec import ExperimentSpec, SpecError
from repro.scenarios import (
    DegradationBounds,
    LayerSpec,
    ScenarioError,
    ScenarioSpec,
    available_workload_scenarios,
    build_workload,
    classify,
    get_workload_scenario,
    load_classbench,
    run_scenario,
    sample_tuple,
    sweep_occupancy,
)
from repro.scenarios.classbench import ClassBenchError
from repro.scenarios.runner import prepare_system
from repro.switch.phv import make_data_phv
from repro.switch.eviction import make_eviction_policy

FIXTURE = Path(__file__).parent / "data" / "classbench_small.rules"

#: SoA columns that must be bit-identical between representations.
SOA_COLUMNS = (
    "timestamps", "sizes", "flags", "directions", "payloads", "packet_flow",
    "flow_starts", "flow_ids", "labels", "n_packets_per_flow", "src_ports",
    "dst_ports", "protocols", "first_sizes", "first_timestamps",
    "interleave_order",
)


def _ip(a: int, b: int, c: int, d: int) -> int:
    return (a << 24) | (b << 16) | (c << 8) | d


# ----------------------------------------------------------------------
# ClassBench loader (satellite: fixture-driven unit tests)
# ----------------------------------------------------------------------
class TestClassBenchLoader:
    def test_fixture_parses_in_priority_order(self):
        rules = load_classbench(FIXTURE)
        assert [rule.priority for rule in rules] == [0, 1, 2, 3]

    def test_prefix_field_expands_to_range(self):
        rule = load_classbench(FIXTURE)[0]
        assert rule.src_lo == _ip(192, 168, 0, 0)
        assert rule.src_hi == _ip(192, 168, 255, 255)
        assert rule.dst_lo == _ip(10, 0, 0, 0)
        assert rule.dst_hi == _ip(10, 255, 255, 255)
        assert (rule.dport_lo, rule.dport_hi) == (80, 80)
        assert (rule.proto, rule.proto_mask) == (0x06, 0xFF)

    def test_exact_fields_collapse_to_single_points(self):
        rule = load_classbench(FIXTURE)[1]
        assert rule.src_lo == rule.src_hi == _ip(192, 168, 1, 1)
        assert rule.dst_lo == rule.dst_hi == _ip(10, 1, 2, 3)
        assert (rule.sport_lo, rule.sport_hi) == (1024, 1024)

    def test_zero_length_prefix_matches_everything(self):
        rule = load_classbench(FIXTURE)[2]
        assert (rule.src_lo, rule.src_hi) == (0, 0xFFFFFFFF)
        assert rule.proto_mask == 0  # 0x00/0x00 = any protocol

    def test_classify_is_first_match(self):
        from repro.datasets.flows import FiveTuple

        rules = load_classbench(FIXTURE)
        http = FiveTuple(src_ip=_ip(192, 168, 7, 9), dst_ip=_ip(10, 2, 3, 4),
                         src_port=40000, dst_port=80, protocol=0x06)
        # Matches both rule 0 and the rule-2 wildcard; priority wins.
        assert classify(rules, http) == 0
        stray = FiveTuple(src_ip=_ip(8, 8, 8, 8), dst_ip=_ip(9, 9, 9, 9),
                          src_port=1, dst_port=1, protocol=0x2F)
        assert classify(rules, stray) == 2

    def test_sample_tuple_matches_its_rule_and_is_deterministic(self):
        rules = load_classbench(FIXTURE)
        for index in range(len(rules)):
            tuple_ = sample_tuple(rules, np.random.default_rng(5), rule_index=index)
            assert rules[index].matches(tuple_)
        again = [sample_tuple(rules, np.random.default_rng(11)) for _ in range(8)]
        twice = [sample_tuple(rules, np.random.default_rng(11)) for _ in range(8)]
        assert again == twice

    @pytest.mark.parametrize("line, fragment", [
        ("192.168.0.0/16 10.0.0.0/8 0 : 65535 80 : 80 0x06/0xFF", "start with '@'"),
        ("@300.0.0.0/8 10.0.0.0/8 0 : 65535 80 : 80 0x06/0xFF", "malformed IP prefix"),
        ("@10.0.0.0/33 10.0.0.0/8 0 : 65535 80 : 80 0x06/0xFF", "malformed IP prefix"),
        ("@10.0.0.0/8 10.0.0.0/8 80 : 70 80 : 80 0x06/0xFF", "out of order"),
        ("@10.0.0.0/8 10.0.0.0/8 0 : 70000 80 : 80 0x06/0xFF", "out of order or out of"),
        ("@10.0.0.0/8 10.0.0.0/8 0 : 65535 80 : 80 6", "malformed protocol"),
        ("@10.0.0.0/8 10.0.0.0/8 0 - 65535 80 : 80 0x06/0xFF", "'lo : hi'"),
        ("@10.0.0.0/8 10.0.0.0/8 0 : 65535 0x06/0xFF", "at least 9 fields"),
    ])
    def test_malformed_lines_rejected_with_line_number(self, tmp_path, line, fragment):
        path = tmp_path / "bad.rules"
        path.write_text("# leading comment\n\n" + line + "\n")
        with pytest.raises(ClassBenchError, match="line 3") as excinfo:
            load_classbench(path)
        assert fragment in str(excinfo.value)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.rules"
        path.write_text("# nothing here\n")
        with pytest.raises(ClassBenchError, match="no filters"):
            load_classbench(path)


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
            streamed=True, chunk_size=512,
            bounds=DegradationBounds(min_accuracy=0.4),
        )

    def test_round_trip(self):
        spec = self._spec()
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert math.isinf(restored.bounds.max_median_ttd)

    def test_unknown_keys_rejected_at_every_level(self):
        data = self._spec().to_dict()
        with pytest.raises(ScenarioError, match="unknown scenario fields"):
            ScenarioSpec.from_dict({**data, "bogus": 1})
        bad_layer = dict(data)
        bad_layer["layers"] = [{**data["layers"][0], "bogus": 1}]
        with pytest.raises(ScenarioError, match="unknown layer fields"):
            ScenarioSpec.from_dict(bad_layer)
        bad_bounds = dict(data)
        bad_bounds["bounds"] = {**data["bounds"], "bogus": 1}
        with pytest.raises(ScenarioError, match="unknown bounds fields"):
            ScenarioSpec.from_dict(bad_bounds)

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
        for name in available_workload_scenarios():
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

    def test_ruleset_derives_five_tuples_from_filters(self):
        rules = load_classbench(FIXTURE)
        workload = build_workload(self.BASE.replace(ruleset=str(FIXTURE)))
        for i in range(workload.n_legit):
            assert classify(rules, workload.flows[i].five_tuple) is not None


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
        packet = flow.packets[index]
        program.process_packet(make_data_phv(flow.five_tuple, packet),
                               flow_id, flow.n_packets)

    @staticmethod
    def _pair(dataset):
        # The session-scoped dataset is shared with other test modules:
        # deep-copy before mutating timestamps.
        return copy.deepcopy(dataset.flows[0]), copy.deepcopy(dataset.flows[1])

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
            for flow in small_dataset.flows:
                for packet in flow.packets:
                    program.process_packet(make_data_phv(flow.five_tuple, packet),
                                           flow.flow_id, flow.n_packets)
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
        # hand-over the planes recorded stays a record, nothing is installed.
        programs, settles = [], []
        hand_over, settle = SpliDTDataPlane.hand_over, SpliDTDataPlane._settle
        monkeypatch.setattr(
            SpliDTDataPlane, "hand_over",
            lambda self, record: (programs.append(self), hand_over(self, record))[1],
        )
        monkeypatch.setattr(
            SpliDTDataPlane, "_settle", lambda self: (settles.append(self), settle(self))[1]
        )
        result = run_scenario(
            get_workload_scenario("table-pressure"), flow_slots=64, traffic_flows=128,
            prepared=prepared,
        )
        paths = result.replay_stats["packets"]
        assert paths["slot_stream"] > paths["batched"]
        assert sum(paths.values()) == result.n_packets
        assert result.replay_stats["deferred"]["packets"] > 0
        assert settles == []
        assert programs and all(program._flow_state == {} for program in programs)

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
