"""Artifact serialisation: persist a run, replay it later without retraining.

A *run directory* holds everything needed to re-execute the deploy/replay
stages of an experiment::

    run_dir/
      spec.json     - the ExperimentSpec (JSON)
      model.pkl     - the trained model (pickle)
      rules.pkl     - the compiled RuleSet (pickle; absent when None)
      result.json   - ExperimentResult.summary() (when the run was reported)

:func:`load_run` rebuilds an :class:`~repro.pipeline.experiment.Experiment`
with the ``train`` and ``compile`` stages pre-seeded from the artifact, so
``replay()`` goes straight to the data plane.  The dataset itself is *not*
stored: generation is deterministic in (key, n_flows, seed), so ``prepare``
regenerates bit-identical flows — replayed verdicts of a loaded run match
the original exactly.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

from repro.pipeline.experiment import Experiment, ExperimentResult
from repro.pipeline.spec import ExperimentSpec, SpecError

SPEC_FILE = "spec.json"
MODEL_FILE = "model.pkl"
RULES_FILE = "rules.pkl"
RESULT_FILE = "result.json"


def save_run(experiment: Experiment, run_dir: str | Path) -> Path:
    """Persist an experiment's trained stages (and report, if any) to disk.

    Runs the ``train`` and ``compile`` stages if they have not run yet; the
    replay stages are *not* forced, so a training-only run can be saved and
    replayed later.
    """
    path = Path(run_dir)
    path.mkdir(parents=True, exist_ok=True)

    (path / SPEC_FILE).write_text(
        json.dumps(experiment.spec.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    with open(path / MODEL_FILE, "wb") as handle:
        pickle.dump(experiment.train(), handle)
    rules = experiment.compile()
    if rules is not None:
        with open(path / RULES_FILE, "wb") as handle:
            pickle.dump(rules, handle)
    if experiment.stage_ran("report"):
        result: ExperimentResult = experiment.report()
        (path / RESULT_FILE).write_text(
            json.dumps(result.summary(), indent=2, sort_keys=True, default=float) + "\n"
        )
    return path


def load_run(run_dir: str | Path) -> Experiment:
    """Rebuild an experiment from a run directory saved by :func:`save_run`.

    The returned experiment has ``train`` (and ``compile``, when rules were
    saved) already satisfied — ``replay()`` will not retrain.
    """
    path = Path(run_dir)
    spec_path = path / SPEC_FILE
    if not spec_path.is_file():
        raise SpecError(f"{path} is not a run directory (missing {SPEC_FILE})")
    spec = ExperimentSpec.from_dict(json.loads(spec_path.read_text()))
    experiment = Experiment(spec)

    restored = []
    with open(path / MODEL_FILE, "rb") as handle:
        experiment.restore_stage("train", pickle.load(handle))
    restored.append("train")
    rules_path = path / RULES_FILE
    if rules_path.is_file():
        with open(rules_path, "rb") as handle:
            experiment.restore_stage("compile", pickle.load(handle))
        restored.append("compile")
    experiment.restored_stages = tuple(restored)
    return experiment

