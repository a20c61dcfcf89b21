"""End-to-end integration tests: the full paper pipeline at small scale."""

from __future__ import annotations

import numpy as np
import pytest

from repro import baselines, core, dataplane, datasets
from repro.switch.targets import TOFINO1


class TestEndToEndPipeline:
    """Dataset → windows → partitioned training → rules → resources → replay."""

    @pytest.fixture(scope="class")
    def pipeline_artifacts(self):
        dataset = datasets.load_dataset("D2", n_flows=300, seed=21)
        store = datasets.DatasetStore(dataset, random_state=21)
        windowed = store.fetch(3)
        config = core.SpliDTConfig(depth=6, features_per_subtree=3, partition_sizes=(2, 2, 2))
        model = core.train_partitioned_tree(windowed, config, random_state=21)
        matrix = np.vstack([windowed.partition_matrix(p, "train") for p in range(3)])
        rules = core.generate_rules(model, matrix)
        resources = core.estimate_splidt_resources(
            model, rules, target=TOFINO1, workloads=datasets.WORKLOADS
        )
        return dataset, store, windowed, config, model, rules, resources

    def test_model_trains_and_classifies(self, pipeline_artifacts):
        _, _, windowed, _, model, _, _ = pipeline_artifacts
        report = core.evaluate_partitioned_tree(model, windowed)
        assert report.f1_score > 1.0 / windowed.n_classes

    def test_resources_feasible_at_100k(self, pipeline_artifacts):
        *_, resources = pipeline_artifacts
        verdict = core.check_feasibility(resources, n_flows=100_000)
        assert verdict.feasible, verdict.violations

    def test_rules_fit_tofino_tcam(self, pipeline_artifacts):
        *_, rules, resources = pipeline_artifacts[-3:], pipeline_artifacts[-1]
        assert pipeline_artifacts[5].tcam_bits() < TOFINO1.tcam_bits

    def test_dataplane_replay_matches_offline_quality(self, pipeline_artifacts):
        dataset, _, windowed, _, model, rules, _ = pipeline_artifacts
        program = dataplane.SpliDTDataPlane(model, rules, flow_slots=4096)
        result = dataplane.replay_dataset(program, dataset.subset(np.arange(80)))
        offline = core.evaluate_partitioned_tree(model, windowed, split="train")
        assert result.report.f1_score > offline.f1_score - 0.35

    def test_recirculation_stays_within_capacity(self, pipeline_artifacts):
        *_, resources = pipeline_artifacts
        for estimate in resources.recirculation.values():
            assert estimate.fraction_of_capacity < 0.01


class TestSpliDTVersusBaselines:
    """The paper's headline comparison at reduced scale."""

    @pytest.fixture(scope="class")
    def comparison(self):
        dataset = datasets.load_dataset("D3", n_flows=500, seed=5)
        store = datasets.DatasetStore(dataset, random_state=5)
        windowed = store.fetch(3)

        config = core.SpliDTConfig(depth=12, features_per_subtree=4, partition_sizes=(4, 4, 4))
        splidt_model = core.train_partitioned_tree(windowed, config, random_state=5)
        splidt_report = core.evaluate_partitioned_tree(splidt_model, windowed)

        trainer = baselines.TopKTrainer(windowed)
        netbeacon = core.best_at_flows(
            baselines.evaluate_grid(
                trainer,
                [core.TopKConfig(depth=d, top_k=k) for k in (4, 6) for d in (8, 12)],
                name="netbeacon", table_cost=baselines.netbeacon_table_cost, target=TOFINO1,
            ),
            100_000,
        )
        (per_packet,) = baselines.evaluate_grid(
            trainer, [core.TopKConfig(depth=8, top_k=4, use_stateful=False)],
            name="per_packet", table_cost=baselines.per_packet_table_cost, target=TOFINO1,
        )
        return splidt_model, splidt_report, netbeacon, per_packet

    def test_splidt_uses_more_features_than_topk(self, comparison):
        splidt_model, _, netbeacon, _ = comparison
        assert netbeacon is not None
        assert len(splidt_model.features_used()) > netbeacon.model.config.top_k

    def test_splidt_matches_or_beats_netbeacon(self, comparison):
        _, splidt_report, netbeacon, _ = comparison
        assert splidt_report.f1_score >= netbeacon.report.f1_score - 0.03

    def test_stateful_models_beat_per_packet(self, comparison):
        _, splidt_report, _, per_packet = comparison
        assert splidt_report.f1_score > per_packet.report.f1_score

    def test_splidt_register_footprint_constant(self, comparison):
        splidt_model, *_ = comparison
        layout = core.splidt_register_layout(splidt_model)
        # k = 4 at 32 bits regardless of the >4 total features the model uses.
        assert layout.feature_bits == 4 * 32


class TestMiniDesignSearch:
    def test_search_produces_pareto_frontier(self):
        dataset = datasets.load_dataset("D2", n_flows=250, seed=9)
        store = datasets.DatasetStore(dataset, random_state=9)
        search = core.DesignSearch(
            store, target=TOFINO1, depth_range=(2, 8), k_range=(1, 4),
            partitions_range=(1, 3), seed=9,
        )
        result = search.run(n_iterations=6)
        front = result.pareto_candidates()
        assert front
        table = result.pareto_table((100_000, 1_000_000))
        best_100k = table[100_000]
        assert best_100k is not None
        assert best_100k.f1_score > 0
