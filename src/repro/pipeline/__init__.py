"""Declarative experiment pipeline: one spec from dataset to dataplane replay.

The package turns the paper's fixed workflow — train partitioned trees,
compile range-marking rules, install them on the switch model, replay
packets, report F1 / time-to-detection / recirculation — into a single
reproducible entry point:

* :class:`ExperimentSpec` — the declarative description of one run.
* :class:`Experiment` — the staged facade
  (``prepare -> train -> compile -> deploy -> replay -> report``) with
  per-stage caching and timings.
* :class:`ExperimentResult` — everything a run produced, in one bundle.
* :mod:`~repro.pipeline.systems` — the system/scenario registries that make
  SpliDT and every baseline invocable through the same interface.
* :mod:`~repro.pipeline.artifacts` — save/load of run directories so replay
  can re-run without retraining.
* :mod:`~repro.pipeline.cli` — the ``python -m repro`` command-line front
  door (``run``, ``replay``, ``list-datasets``, ``compare``).

Example::

    from repro.pipeline import Experiment, ExperimentSpec

    spec = ExperimentSpec(dataset="D3", n_flows=400, depth=9,
                          features_per_subtree=4, n_partitions=3)
    result = Experiment(spec).run()
    print(result.replay_report.f1_score, result.ttd["median"])
"""

from repro.pipeline.artifacts import load_run, save_run
from repro.pipeline.experiment import (
    STAGES,
    Deployment,
    Experiment,
    ExperimentResult,
    Prepared,
)
from repro.pipeline.spec import (
    ExperimentSpec,
    DseConfig,
    ServeConfig,
    SpecError,
)
from repro.pipeline.systems import (
    SCENARIOS,
    SYSTEMS,
    ExperimentError,
    ProgramFactory,
    System,
    available_scenarios,
    available_systems,
    get_scenario,
    get_system,
    register_scenario,
    register_system,
)

__all__ = [
    "Deployment",
    "Experiment",
    "ExperimentError",
    "ExperimentResult",
    "ExperimentSpec",
    "Prepared",
    "ProgramFactory",
    "SCENARIOS",
    "STAGES",
    "SYSTEMS",
    "DseConfig",
    "ServeConfig",
    "SpecError",
    "System",
    "available_scenarios",
    "available_systems",
    "get_scenario",
    "get_system",
    "load_run",
    "register_scenario",
    "register_system",
    "save_run",
]
