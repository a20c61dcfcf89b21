"""Adversarial workload scenarios: hostile traffic, table pressure, evasion.

The subsystem that turns the reproduction into a system you can attack:
composable adversarial traffic layers over the synthetic generators
(:mod:`repro.scenarios.traffic`), a declarative :class:`ScenarioSpec`
(:mod:`repro.scenarios.spec`) nested inside
:class:`~repro.pipeline.spec.ExperimentSpec`, a named catalog
(:mod:`repro.scenarios.catalog`) and the train-clean / attack-deployed
runner (:mod:`repro.scenarios.runner`).  CLI surface:
``python -m repro scenario {list,run,sweep}``.
"""

from repro.scenarios.catalog import (
    WORKLOAD_SCENARIOS,
    available_workload_scenarios,
    get_workload_scenario,
    register_workload_scenario,
)
from repro.scenarios.runner import (
    ScenarioResult,
    run_scenario,
    sweep_occupancy,
)
from repro.scenarios.spec import (
    LAYER_KINDS,
    DegradationBounds,
    LayerSpec,
    ScenarioError,
    ScenarioSpec,
)
from repro.scenarios.traffic import ScenarioWorkload, build_workload

__all__ = [
    "LAYER_KINDS",
    "WORKLOAD_SCENARIOS",
    "DegradationBounds",
    "LayerSpec",
    "ScenarioError",
    "ScenarioResult",
    "ScenarioSpec",
    "ScenarioWorkload",
    "available_workload_scenarios",
    "build_workload",
    "get_workload_scenario",
    "register_workload_scenario",
    "run_scenario",
    "sweep_occupancy",
]
