"""System and scenario registries for the experiment pipeline.

A *system* adapts one classifier family (SpliDT or a baseline) to the uniform
stage contract the :class:`~repro.pipeline.experiment.Experiment` facade
drives: ``train`` fits a model on a windowed dataset, ``offline_report``
scores it on held-out matrices, ``compile`` lowers it to range-marking TCAM
rules, ``build_program`` instantiates a fresh data-plane program with the
rules installed (a ``SpliDTDataPlane`` for every system that has one), and
``resources`` costs the deployment against the hardware target.
Registering a new system here makes it reachable from every entry
point at once — the CLI, the examples, and the benchmark harness.

A *scenario* is a named :class:`~repro.pipeline.spec.ExperimentSpec` preset
(dataset + model + replay settings) so common experiments can be launched by
name (``python -m repro run --scenario vpn-detection``).
"""

from __future__ import annotations

from repro.baselines.iisy import per_packet_table_cost
from repro.baselines.leo import leo_table_cost
from repro.baselines.netbeacon import netbeacon_table_cost
from repro.baselines.pforest import train_pforest_model
from repro.baselines.topk import (
    BaselineCandidate,
    TopKTrainer,
    evaluate_grid,
    exit_tree,
    train_topk_model,
)
from repro.core.config import TopKConfig
from repro.core.dse import best_at_flows
from repro.core.evaluation import (
    ClassificationReport,
    evaluate_classifier,
    evaluate_partitioned_tree,
)
from repro.core.range_marking import RuleSet, generate_rules, stacked_training_matrix
from repro.core.resources import (
    FeasibilityResult,
    ResourceEstimate,
    check_feasibility,
    estimate_splidt_resources,
    estimate_topk_resources,
    range_marking_cost,
)
from repro.core.partitioned_tree import PartitionedDecisionTree, train_partitioned_tree
from repro.dataplane.splidt_program import SpliDTDataPlane
from repro.datasets.materialize import WindowedDataset
from repro.datasets.workloads import WORKLOADS
from repro.pipeline.spec import ExperimentSpec, SpecError
from repro.switch.eviction import make_eviction_policy


class ExperimentError(RuntimeError):
    """Raised when a pipeline stage cannot produce its output."""


class _RegistryRef:
    """Pickle placeholder: a system adapter referenced by registry name."""

    def __init__(self, name: str) -> None:
        self.name = name


class ProgramFactory:
    """Picklable zero-argument factory of fresh data-plane programs.

    The serving layer builds one program per engine or worker through this.
    A plain ``lambda`` would do in-process, but the process-sharded engine
    must *pickle* the factory into its workers.  In-process the factory
    calls the exact :class:`System` instance it was built from (custom,
    unregistered adapters keep working, as they did with the old lambda);
    across a pickle boundary a *registered* adapter travels as its registry
    name and is re-resolved in the worker, while an unregistered one is
    pickled directly (it must then be picklable itself).

    Under ``spawn``/``forkserver`` a by-name adapter must be registered at
    import time (every built-in system is); systems registered dynamically
    at runtime exist only in the parent interpreter.
    """

    def __init__(self, system: "System", model, rules, spec: ExperimentSpec) -> None:
        self.system = system
        self.model = model
        self.rules = rules
        self.spec = spec

    def __call__(self):
        """Build a fresh program via the system adapter."""
        return self.system.build_program(self.model, self.rules, self.spec)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        name = self.system.name
        if name and SYSTEMS.get(name) is self.system:
            state["system"] = _RegistryRef(name)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if isinstance(self.system, _RegistryRef):
            self.system = get_system(self.system.name)


class System:
    """Uniform stage contract one classifier family implements.

    Subclasses override the hooks below; ``supports_replay`` marks systems
    with a data-plane program (others stop after the offline report).
    """

    name: str = ""
    supports_replay: bool = True

    def train(self, spec: ExperimentSpec, windowed: WindowedDataset):
        """Fit the model described by ``spec`` on ``windowed``."""
        raise NotImplementedError

    def offline_report(
        self, model, windowed: WindowedDataset, spec: ExperimentSpec
    ) -> ClassificationReport:
        """Held-out classification report of the trained model."""
        raise NotImplementedError

    def compile(self, model, windowed: WindowedDataset, spec: ExperimentSpec) -> RuleSet | None:
        """Lower the model to TCAM rules (``None`` if the system has none)."""
        return None

    def build_program(self, model, rules: RuleSet | None, spec: ExperimentSpec):
        """A *fresh* data-plane program with the rules installed, or ``None``."""
        return None

    def program_factory(self, model, rules: RuleSet | None, spec: ExperimentSpec):
        """Zero-argument factory of fresh programs for the serving layer.

        The process-sharded engine builds one program per worker through
        this, so register state is never shared across shards.  Returns a
        picklable :class:`ProgramFactory` so the process-sharded engine
        works under every start method (including ``spawn``).
        """
        return ProgramFactory(self, model, rules, spec)

    def resources(
        self, model, rules: RuleSet | None, spec: ExperimentSpec
    ) -> ResourceEstimate | None:
        """Hardware cost of the deployment (``None`` when not modelled)."""
        return None

    def feasibility(
        self, model, resources: ResourceEstimate | None, spec: ExperimentSpec
    ) -> FeasibilityResult | None:
        """Feasibility at ``spec.target_flows`` (default: from resources)."""
        if resources is None:
            return None
        return check_feasibility(resources, n_flows=spec.target_flows)


def _deploy(
    model: PartitionedDecisionTree, rules: RuleSet, spec: ExperimentSpec
) -> SpliDTDataPlane:
    """The one data-plane program every replayable system builds.

    SpliDT deploys its partitioned tree; a top-k baseline deploys
    :func:`~repro.baselines.topk.exit_tree` of its model.  Either way the
    program runs the rules the system compiled, on the spec's target and
    register file, under the scenario's eviction policy.
    """
    eviction = None
    if spec.scenario is not None:
        eviction = make_eviction_policy(
            spec.scenario.eviction, timeout=spec.scenario.eviction_timeout
        )
    return SpliDTDataPlane(
        model, rules, target=spec.target_spec(), flow_slots=spec.flow_slots,
        eviction=eviction,
    )


class SpliDTSystem(System):
    """The paper's partitioned decision tree, replayed on the switch model."""

    name = "splidt"
    supports_replay = True

    def train(self, spec, windowed):
        return train_partitioned_tree(windowed, spec.model_config(), random_state=spec.seed)

    def offline_report(self, model, windowed, spec):
        return evaluate_partitioned_tree(model, windowed)

    def compile(self, model, windowed, spec):
        matrix = stacked_training_matrix(windowed, model.config.n_partitions)
        return generate_rules(model, matrix, bit_width=spec.bit_width)

    def build_program(self, model, rules, spec):
        return _deploy(model, rules, spec)

    def resources(self, model, rules, spec):
        return estimate_splidt_resources(
            model, rules, target=spec.target_spec(), workloads=WORKLOADS
        )


class _TopKSearchSystem(System):
    """Shared shape of the searched one-shot baselines (NetBeacon / Leo / per-packet).

    ``candidates`` evaluates the class's (k, depth) grid once — only
    feasibility depends on the flow count — and ``train`` selects the model
    of best validation F1 the system can support at ``spec.target_flows``,
    mirroring the paper's methodology; the candidates are fitted on the
    ``"fit"`` split, so the test split only reports.  The grid lives on the class; the spec's
    ``depth``/``features_per_subtree`` are *not* consulted — pin an exact
    configuration with ``system="topk"`` instead.  A subclass contributes its
    grid and its cost model (``table_cost``).
    """

    supports_replay = True
    use_stateful = True
    k_range: tuple[int, ...] = (1, 2, 4, 6)
    depth_range: tuple[int, ...] = (4, 8, 12)

    def candidates(self, trainer: TopKTrainer, spec: ExperimentSpec) -> list[BaselineCandidate]:
        """The grid, fitted and costed on ``spec``'s target (k-major order)."""
        configs = [
            TopKConfig(
                depth=depth, top_k=k, bit_width=spec.bit_width, use_stateful=self.use_stateful
            )
            for k in self.k_range
            for depth in self.depth_range
        ]
        return evaluate_grid(
            trainer, configs, name=self.name, table_cost=self.table_cost,
            target=spec.target_spec(),
        )

    def train(self, spec, windowed):
        trainer = TopKTrainer(windowed, random_state=spec.seed)
        candidate = best_at_flows(self.candidates(trainer, spec), spec.target_flows)
        if candidate is None:
            raise ExperimentError(
                f"{self.name}: no feasible configuration at "
                f"{spec.target_flows:,} concurrent flows on {spec.target}"
            )
        return candidate

    def offline_report(self, candidate, windowed, spec):
        return candidate.report

    def compile(self, candidate, windowed, spec):
        return candidate.model.generate_rules(windowed.flow_matrix("train"))

    def build_program(self, candidate, rules, spec):
        return _deploy(exit_tree(candidate.model), rules, spec)

    def resources(self, candidate, rules, spec):
        return candidate.resources


class NetBeaconSystem(_TopKSearchSystem):
    """NetBeacon: one-shot tree over a global top-k stateful feature set."""

    name = "netbeacon"
    table_cost = staticmethod(netbeacon_table_cost)


class LeoSystem(_TopKSearchSystem):
    """Leo: one-shot tree with Leo's TCAM layout cost model."""

    name = "leo"
    depth_range = (3, 6, 11)
    table_cost = staticmethod(leo_table_cost)


class PerPacketSystem(_TopKSearchSystem):
    """IIsy/Planter-style stateless per-packet model (no flow registers)."""

    name = "per_packet"
    supports_replay = False
    use_stateful = False
    k_range = (4,)
    #: The depth range the benchmark harness and examples have always
    #: searched for the stateless baseline.
    depth_range = (6, 10)
    table_cost = staticmethod(per_packet_table_cost)

    def compile(self, candidate, windowed, spec):
        return candidate.model.generate_rules(windowed.packet_matrix("train"))

    def build_program(self, candidate, rules, spec):
        return None


class TopKSystem(System):
    """A single top-k tree at the spec's exact (depth, k) — no search."""

    name = "topk"
    supports_replay = True

    def train(self, spec, windowed):
        return train_topk_model(windowed, spec.topk_config(), random_state=spec.seed)

    def offline_report(self, model, windowed, spec):
        return evaluate_classifier(
            model, windowed.flow_matrix("test"), windowed.split_labels("test")
        )

    def compile(self, model, windowed, spec):
        return model.generate_rules(windowed.flow_matrix("train"))

    def build_program(self, model, rules, spec):
        return _deploy(exit_tree(model), rules, spec)

    def resources(self, model, rules, spec):
        target = spec.target_spec()
        return estimate_topk_resources(model, range_marking_cost(rules, target), target=target)


class PForestSystem(TopKSystem):
    """pForest: an in-network random forest sharing one top-k register set."""

    name = "pforest"
    supports_replay = False

    def train(self, spec, windowed):
        return train_pforest_model(
            windowed, spec.topk_config(), n_trees=spec.n_trees, random_state=spec.seed
        )

    def build_program(self, model, rules, spec):
        return None


#: Registered systems, keyed by name.
SYSTEMS: dict[str, System] = {}


def register_system(system: System) -> System:
    """Add a system to the registry (later registrations override)."""
    if not system.name:
        raise ValueError("system must define a name")
    SYSTEMS[system.name] = system
    return system


def get_system(name: str) -> System:
    """Look up a registered system by name."""
    try:
        return SYSTEMS[name]
    except KeyError as exc:
        raise SpecError(
            f"unknown system {name!r}; expected one of {available_systems()}"
        ) from exc


def available_systems() -> tuple[str, ...]:
    """Names of all registered systems."""
    return tuple(sorted(SYSTEMS))


for _system in (
    SpliDTSystem(),
    NetBeaconSystem(),
    LeoSystem(),
    PerPacketSystem(),
    TopKSystem(),
    PForestSystem(),
):
    register_system(_system)


#: Named experiment presets (scenarios), keyed by name.
SCENARIOS: dict[str, ExperimentSpec] = {}


def register_scenario(name: str, spec: ExperimentSpec) -> ExperimentSpec:
    """Register a named spec preset."""
    SCENARIOS[name] = spec
    return spec


def get_scenario(name: str) -> ExperimentSpec:
    """Look up a scenario preset by name."""
    try:
        return SCENARIOS[name]
    except KeyError as exc:
        raise SpecError(
            f"unknown scenario {name!r}; expected one of {available_scenarios()}"
        ) from exc


def available_scenarios() -> tuple[str, ...]:
    """Names of all registered scenarios."""
    return tuple(sorted(SCENARIOS))


register_scenario(
    "quickstart",
    ExperimentSpec(dataset="D3", n_flows=800, seed=42, depth=9,
                   features_per_subtree=4, partition_sizes=(3, 3, 3),
                   target_flows=500_000),
)
register_scenario(
    "vpn-detection",
    ExperimentSpec(dataset="D3", n_flows=600, seed=8, depth=9,
                   features_per_subtree=4, partition_sizes=(3, 3, 3),
                   replay_flows=200, flow_slots=16384),
)
register_scenario(
    "iot-intrusion",
    ExperimentSpec(dataset="D6", n_flows=700, seed=1, depth=12,
                   features_per_subtree=4, n_partitions=3),
)
