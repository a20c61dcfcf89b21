"""Experiment facade: stage caching, parity with the hand-chained path."""

from __future__ import annotations

import runpy
from pathlib import Path

import numpy as np
import pytest

from repro import core, datasets
from repro.dataplane import SpliDTDataPlane, oracle, replay_dataset
from repro.pipeline import Experiment, ExperimentSpec, get_scenario
from repro.pipeline.experiment import STAGES
from repro.switch.targets import TOFINO1

#: Small-but-real spec shared by the module's experiments.
SPEC = ExperimentSpec(
    dataset="D3",
    n_flows=160,
    seed=11,
    depth=6,
    features_per_subtree=4,
    partition_sizes=(2, 2, 2),
    replay_flows=120,
)


@pytest.fixture(scope="module")
def experiment() -> Experiment:
    exp = Experiment(SPEC)
    exp.run()
    return exp


class TestStageCaching:
    def test_all_stages_ran(self, experiment):
        assert all(experiment.stage_ran(stage) for stage in STAGES)

    def test_stages_cached_train_once_replay_twice(self):
        exp = Experiment(SPEC)
        first = exp.replay()
        model = exp.train()
        second = exp.replay()
        # Same objects: nothing re-ran.
        assert first is second
        assert exp.train() is model

    def test_replay_result_stable_across_report(self, experiment):
        assert experiment.report().replay_result is experiment.replay()

    def test_timings_cover_executed_stages(self, experiment):
        for stage in ("prepare", "train", "compile", "deploy", "replay"):
            assert experiment.timings[stage] >= 0.0
        assert experiment.run().timings.keys() >= {"prepare", "train", "replay"}


class TestResultBundle:
    def test_result_shape(self, experiment):
        result = experiment.run()
        assert result.spec == SPEC
        assert 0.0 <= result.offline_report.f1_score <= 1.0
        assert result.replay_result is not None
        assert len(result.replay_result.verdicts) <= 120
        assert set(result.ttd) == {"median", "mean", "p90", "p99", "max"}
        assert result.recirculation["packets"] >= 0
        assert result.resources is not None and result.resources.max_flows > 0
        assert result.feasibility is not None
        assert result.model_summary["system"] == "splidt"
        assert result.model_summary["n_subtrees"] >= 1

    def test_summary_is_json_compatible(self, experiment):
        import json

        summary = json.loads(json.dumps(experiment.run().summary(), default=float))
        assert summary["spec"]["dataset"] == "D3"
        assert summary["replayed"] is True
        assert summary["replay_flows"] == len(experiment.replay().verdicts)


class TestOneFeasibilityAnswer:
    def test_deployment_carries_the_verdict(self, experiment):
        deployment = experiment.deploy()
        assert deployment.feasibility == core.check_feasibility(
            deployment.resources, n_flows=SPEC.target_flows
        )
        assert experiment.run().feasibility is deployment.feasibility
        assert not hasattr(deployment.program, "layout")

    def test_vpn_example_prints_that_verdict(self, capsys):
        example = Path(__file__).resolve().parents[1] / "examples" / "vpn_detection_dataplane.py"
        runpy.run_path(str(example), run_name="__main__")
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if "feasible @" in ln]
        spec = get_scenario("vpn-detection")
        deployment = Experiment(spec).deploy()
        resources = deployment.resources
        assert f"feasible @ {spec.target_flows:,} flows" in line
        assert f": {deployment.feasibility.feasible} " in line
        assert f"logic stages: {resources.stages_for_tables}/{resources.target.n_stages}" in line
        assert f"max {resources.max_flows:,} flows" in line


class TestParityWithHandChainedPath:
    """The acceptance criterion: pipeline == the ~8 loose calls, exactly."""

    @pytest.fixture(scope="class")
    def hand_chained(self):
        spec = SPEC
        dataset = datasets.load_dataset(spec.dataset, n_flows=spec.n_flows, seed=spec.seed)
        store = datasets.DatasetStore(dataset, random_state=spec.seed)
        config = core.SpliDTConfig(
            depth=spec.depth,
            features_per_subtree=spec.features_per_subtree,
            partition_sizes=spec.partition_sizes,
        )
        windowed = store.fetch(config.n_partitions)
        model = core.train_partitioned_tree(windowed, config, random_state=spec.seed)
        offline = core.evaluate_partitioned_tree(model, windowed)
        rules = core.generate_rules(
            model, core.stacked_training_matrix(windowed, config.n_partitions)
        )
        program = SpliDTDataPlane(
            model, rules, target=TOFINO1, flow_slots=spec.flow_slots
        )
        replay = replay_dataset(
            program,
            dataset,
            max_flows=spec.replay_flows,
        )
        return offline, rules, replay

    def test_offline_f1_matches(self, experiment, hand_chained):
        offline, _, _ = hand_chained
        assert experiment.run().offline_report.f1_score == offline.f1_score

    def test_rules_match(self, experiment, hand_chained):
        _, rules, _ = hand_chained
        assert experiment.compile().n_entries == rules.n_entries

    def test_replay_f1_matches(self, experiment, hand_chained):
        _, _, replay = hand_chained
        assert experiment.run().replay_report.f1_score == replay.report.f1_score

    def test_verdicts_match_exactly(self, experiment, hand_chained):
        _, _, replay = hand_chained
        ours = experiment.replay().verdicts
        assert set(ours) == set(replay.verdicts)
        for fid, verdict in replay.verdicts.items():
            assert ours[fid].label == verdict.label
            assert ours[fid].decided_at == verdict.decided_at
            assert ours[fid].n_recirculations == verdict.n_recirculations

    def test_ttd_matches_bitwise(self, experiment, hand_chained):
        _, _, replay = hand_chained
        np.testing.assert_array_equal(
            experiment.replay().time_to_detection(), replay.time_to_detection()
        )

    def test_recirculation_matches(self, experiment, hand_chained):
        _, _, replay = hand_chained
        assert experiment.replay().recirculation == replay.recirculation


class TestBaselineSystems:
    def test_netbeacon_runs_through_same_interface(self):
        spec = SPEC.replace(system="netbeacon", replay_flows=60)
        result = Experiment(spec).run()
        assert result.replay_result is not None
        assert 0.0 <= result.replay_report.f1_score <= 1.0
        assert result.feasibility.feasible
        assert result.model_summary["system"] == "netbeacon"

    def test_pforest_skips_replay(self):
        result = Experiment(SPEC.replace(system="pforest")).run()
        assert result.replay_result is None
        assert result.ttd == {}
        assert 0.0 <= result.offline_report.f1_score <= 1.0

    def test_engine_override_same_verdicts(self):
        # The replay stage has one path; the per-packet oracle on the
        # experiment's own program is what it must agree with.
        vectorized = Experiment(SPEC.replace(replay_flows=40))
        program = vectorized.system.build_program(
            vectorized.train(), vectorized.compile(), vectorized.spec
        )
        ref_verdicts = oracle.replay_dataset(
            program, vectorized.prepare().dataset, max_flows=40
        ).verdicts
        vec_verdicts = vectorized.replay().verdicts
        assert {f: v.label for f, v in ref_verdicts.items()} == {
            f: v.label for f, v in vec_verdicts.items()
        }
