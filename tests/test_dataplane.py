"""Unit and integration tests for the data-plane programs and runtime."""

from __future__ import annotations

import importlib
import tracemalloc

import numpy as np
import pytest

from repro.dataplane import SpliDTDataPlane, replay_dataset
from repro.dataplane.oracle import PacketInterpreter
from repro.dataplane.vectorized import cached_flow_slots
from repro.pipeline import Experiment, ExperimentSpec
from repro.switch.phv import make_data_phv


@pytest.fixture(scope="module")
def replay_result(splidt_model, splidt_rules, small_dataset):
    program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192)
    subset = small_dataset.subset(np.arange(80))
    return replay_dataset(program, subset)


class TestSpliDTDataPlaneSetup:
    def test_program_size_is_independent_of_flow_slots(self, splidt_model, splidt_rules):
        """The program is one copy of the switch: nothing in it scales with the table."""
        splidt_rules.compiled_lookup()  # shared by every program; not this one's cost

        def build(flow_slots):
            tracemalloc.start()
            try:
                program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=flow_slots)
                return program, tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        _, small = build(2**10)
        program, large = build(2**20)
        assert large < 2**20  # the register mirror was 64 MiB
        assert large - small < 4096
        assert not any(isinstance(value, np.ndarray) for value in vars(program).values())


@pytest.mark.parametrize("kind", ["splidt", "topk"])
def test_process_packet_rejects_mirror_registers(
    kind, splidt_model, splidt_rules, netbeacon_factory, small_dataset
):
    """The mirror is gone, not optional: the old keyword is an error on every program."""
    if kind == "splidt":
        program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=64)
    else:
        program = netbeacon_factory(64)()
    flow = small_dataset.flows[0]
    phv = make_data_phv(flow.five_tuple, flow.packets[0])
    with pytest.raises(TypeError):
        PacketInterpreter(program).process_packet(
            phv, flow.flow_id, flow.n_packets, mirror_registers=False
        )
    assert program.verdicts == {}


@pytest.mark.parametrize(
    "path",
    [
        "repro.switch.pipeline",
        "repro.switch.mat",
        "repro.switch.registers",
        "repro.switch:Pipeline",
        "repro.switch:RegisterArray",
        "repro.switch:TcamTable",
        "repro.switch.tcam:TcamTable",
        "repro.switch.recirculation:RecirculationChannel.submit_batch",
        "repro.dataplane:SpliDTDataPlane.layout",
        "repro.dataplane.controller:Controller.install_rules",
    ],
)
def test_instantiated_pipeline_is_gone(path):
    """One resource model (``core.resources``): the instantiated one is rejected, not aliased."""
    _assert_gone(path)


@pytest.mark.parametrize(
    "path",
    [
        "repro.dataplane.topk_program",
        "repro.dataplane:TopKDataPlane",
        "repro.dataplane.vectorized:_replay_topk_batched",
        "repro.dataplane:SpliDTDataPlane.classify_flow_batch",
        "repro.dataplane.splidt_program:stateless_header_values",
        "repro.baselines:NETBEACON_PHASES",
        "repro.baselines:phase_for_packet_count",
        "repro.baselines.netbeacon:NETBEACON_PHASES",
        "repro.baselines.netbeacon:phase_for_packet_count",
    ],
)
def test_second_program_is_gone(path):
    """One data-plane program: the top-k switch and its replay path are rejected, not aliased."""
    _assert_gone(path)


@pytest.mark.parametrize(
    "path",
    [
        "repro.dataplane:REPLAY_ENGINES",
        "repro.dataplane.runtime:REPLAY_ENGINES",
        "repro.dataplane:SpliDTDataPlane.process_packet",
        "repro.dataplane:SpliDTDataPlane.occupied_slots",
        "repro.dataplane:SpliDTDataPlane.resident",
        "repro.dataplane.splidt_program:_FlowState",
        "repro.dataplane.vectorized:_replay_positions",
        "repro.core:LOOKUP_MODES",
        "repro.core.range_marking:LOOKUP_MODES",
        "repro.core.range_marking:RuleSet.set_lookup",
        "repro.features:make_operator",
        "repro.features:StatefulOperator",
    ],
)
def test_reference_selectors_are_gone(path):
    """The per-packet oracle and the rule scan are references, not settings: gone, not aliased."""
    _assert_gone(path)


def _assert_gone(path: str) -> None:
    module, _, attribute = path.partition(":")
    if not attribute:
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
        return
    *owners, name = attribute.split(".")
    owner = importlib.import_module(module)
    for part in owners:
        owner = getattr(owner, part)
    assert not hasattr(owner, name)


class TestSpliDTReplay:
    def test_every_flow_gets_a_verdict(self, replay_result):
        # Hash collisions between concurrent flows can corrupt a slot and cost
        # a verdict, exactly as on hardware; allow at most a couple of losses.
        assert len(replay_result.verdicts) >= 78

    def test_accuracy_beats_chance(self, replay_result, small_dataset):
        assert replay_result.report.f1_score > 1.0 / len(small_dataset.class_names)

    def test_labels_are_valid(self, replay_result, small_dataset):
        for verdict in replay_result.verdicts.values():
            assert 0 <= verdict.label < len(small_dataset.class_names)

    def test_ttd_non_negative_and_bounded_by_duration(self, replay_result, small_dataset):
        soa = small_dataset.packet_arrays()
        last = soa.timestamps[soa.flow_starts[1:] - 1]
        durations = dict(zip(soa.flow_ids[:80].tolist(), (last - soa.first_timestamps)[:80]))
        for flow_id, verdict in replay_result.verdicts.items():
            ttd = max(verdict.decided_at - verdict.first_packet_at, 0.0)
            assert ttd >= 0
            assert ttd <= durations[flow_id] + 1e-6

    def test_recirculations_bounded_by_partitions(self, replay_result, splidt_model):
        for verdict in replay_result.verdicts.values():
            assert 0 <= verdict.n_recirculations <= splidt_model.n_partitions - 1

    def test_recirculation_stats_populated(self, replay_result):
        assert replay_result.recirculation["packets"] >= 0
        assert replay_result.recirculation["utilisation"] < 1.0

    def test_recirculation_packets_match_verdicts(self, splidt_model, splidt_rules, small_dataset):
        program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192)
        subset = small_dataset.subset(np.arange(30))
        result = replay_dataset(program, subset)
        total_recirc = sum(v.n_recirculations for v in result.verdicts.values())
        assert result.recirculation["packets"] == total_recirc

    def test_dataplane_agrees_with_offline_model(self, splidt_model, splidt_rules, small_dataset, windowed3):
        """Packet-level execution should mostly match offline window inference."""
        program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192)
        subset = small_dataset.subset(np.arange(60))
        result = replay_dataset(program, subset)
        offline = splidt_model.predict_windows(windowed3.window_features[:, :60, :])
        decided = [flow_id for flow_id in range(60) if flow_id in result.verdicts]
        assert len(decided) >= 58
        agreement = np.mean(
            [result.verdicts[flow_id].label == offline[flow_id] for flow_id in decided]
        )
        assert agreement >= 0.6

    def test_digests_delivered_to_controller(self, splidt_model, splidt_rules, small_dataset):
        program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192)
        subset = small_dataset.subset(np.arange(10))
        replay_dataset(program, subset)
        assert program.controller.n_digests == 10


class TestTopKDataPlane:
    """A top-k baseline's program: the one-partition ``SpliDTDataPlane`` its system builds."""

    def test_replay_produces_verdicts(self, netbeacon_factory, small_dataset):
        program = netbeacon_factory(8192)()
        subset = small_dataset.subset(np.arange(50))
        result = replay_dataset(program, subset)
        assert len(result.verdicts) == 50
        assert result.report.f1_score > 1.0 / len(small_dataset.class_names)

    def test_no_recirculations(self, netbeacon_factory, small_dataset):
        program = netbeacon_factory(8192)()
        result = replay_dataset(program, small_dataset.subset(np.arange(20)))
        assert program.model.config.n_partitions == 1
        assert all(v.n_recirculations == 0 for v in result.verdicts.values())
        assert not any(v.early_exit for v in result.verdicts.values())
        assert result.recirculation["packets"] == 0

    @pytest.mark.parametrize("key,n_flows,seed", [("D3", 2000, 7), ("D7", 1500, 3)])
    def test_a_flow_alone_in_its_slot_gets_the_whole_flow_verdict(self, key, n_flows, seed):
        """The float tree's whole-flow label, decided at the flow's last packet.

        On a slot no other flow touches, the compiled rules over the one
        whole-flow window reproduce the offline model exactly.
        """
        experiment = Experiment(ExperimentSpec(
            dataset=key, n_flows=n_flows, seed=seed, system="netbeacon",
            target_flows=100_000, flow_slots=8192, replay_flows=None,
        ))
        result = experiment.replay()
        soa = experiment.prepare().dataset.packet_arrays()
        expected = experiment.train().model.predict(experiment.prepare().windowed.flow_features)
        slots = cached_flow_slots(soa, 8192)
        populated = np.flatnonzero(soa.n_packets_per_flow > 0)
        alone = populated[np.bincount(slots[populated], minlength=8192)[slots[populated]] == 1]
        assert alone.size > 0.6 * n_flows
        last_ts = soa.timestamps[soa.flow_starts[alone + 1] - 1]
        for flow, label, decided_at in zip(alone.tolist(), expected[alone], last_ts):
            verdict = result.verdicts[int(soa.flow_ids[flow])]
            assert (verdict.label, verdict.decided_at) == (label, decided_at)
            assert (verdict.n_recirculations, verdict.early_exit) == (0, False)

    def test_colliding_flows_take_the_slot_stream_plane(self):
        """D3, 300 flows, 64 slots: every colliding packet takes the slot-stream plane."""
        experiment = Experiment(ExperimentSpec(
            dataset="D3", n_flows=300, seed=7, system="topk", depth=8,
            features_per_subtree=4, flow_slots=64, replay_flows=None,
        ))
        program = experiment.deploy().program
        dataset = experiment.prepare().dataset
        replay_dataset(program, dataset)
        assert program.replay_stats["packets"] == {"batched": 488, "slot_stream": 31_420}
        assert dataset.packet_arrays().n_packets == 31_908

