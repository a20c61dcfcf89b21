"""Artifact save/load: replay a saved run without retraining, bit-identical."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.pipeline import Experiment, ExperimentSpec, SpecError
from repro.pipeline.artifacts import (
    MODEL_FILE,
    RESULT_FILE,
    RULES_FILE,
    SPEC_FILE,
    load_run,
    save_run,
)

SPEC = ExperimentSpec(
    dataset="D3",
    n_flows=140,
    seed=4,
    depth=6,
    features_per_subtree=3,
    partition_sizes=(2, 2, 2),
    replay_flows=100,
)


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    """A fully reported experiment saved to a run directory."""
    experiment = Experiment(SPEC)
    experiment.run()
    run_dir = tmp_path_factory.mktemp("runs") / "exp1"
    save_run(experiment, run_dir)
    return experiment, run_dir


class TestSaveRun:
    def test_run_directory_layout(self, saved_run):
        _, run_dir = saved_run
        assert (run_dir / SPEC_FILE).is_file()
        assert (run_dir / MODEL_FILE).is_file()
        assert (run_dir / RULES_FILE).is_file()
        assert (run_dir / RESULT_FILE).is_file()

    def test_spec_json_is_the_spec(self, saved_run):
        _, run_dir = saved_run
        data = json.loads((run_dir / SPEC_FILE).read_text())
        assert ExperimentSpec.from_dict(data) == SPEC

    def test_result_summary_readable(self, saved_run):
        experiment, run_dir = saved_run
        summary = json.loads((run_dir / RESULT_FILE).read_text())
        assert summary["replay_f1"] == experiment.run().replay_report.f1_score

    def test_save_without_report_skips_result_json(self, tmp_path):
        experiment = Experiment(SPEC)
        experiment.compile()  # train + compile only
        run_dir = save_run(experiment, tmp_path / "train-only")
        assert (run_dir / MODEL_FILE).is_file()
        assert not (run_dir / RESULT_FILE).is_file()


class TestLoadRun:
    def test_restores_train_and_compile(self, saved_run):
        _, run_dir = saved_run
        loaded = load_run(run_dir)
        assert loaded.restored_stages == ("train", "compile")
        assert loaded.stage_ran("train") and loaded.stage_ran("compile")
        assert not loaded.stage_ran("replay")

    def test_replay_without_retraining_is_bit_identical(self, saved_run):
        experiment, run_dir = saved_run
        loaded = load_run(run_dir)
        replayed = loaded.replay()
        original = experiment.replay()
        assert set(replayed.verdicts) == set(original.verdicts)
        for fid, verdict in original.verdicts.items():
            assert replayed.verdicts[fid].label == verdict.label
            assert replayed.verdicts[fid].decided_at == verdict.decided_at
            assert replayed.verdicts[fid].n_recirculations == verdict.n_recirculations
        np.testing.assert_array_equal(
            replayed.time_to_detection(), original.time_to_detection()
        )
        assert replayed.recirculation == original.recirculation
        # The training stage was satisfied from disk, not recomputed.
        assert loaded.timings["train"] == 0.0

    def test_loaded_model_structure_matches(self, saved_run):
        experiment, run_dir = saved_run
        loaded = load_run(run_dir)
        assert loaded.train().n_subtrees == experiment.train().n_subtrees
        assert loaded.compile().n_entries == experiment.compile().n_entries

    def test_load_rejects_non_run_directory(self, tmp_path):
        with pytest.raises(SpecError, match="run directory"):
            load_run(tmp_path)
