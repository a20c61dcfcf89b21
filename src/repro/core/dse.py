"""Design-space exploration (DSE) for partitioned decision trees.

This is the paper's Figure 5 workflow: a Bayesian-optimisation loop proposes
model configurations (tree depth ``D``, features per subtree ``k``, number of
partitions), each configuration is trained with the custom partitioned
training algorithm, compiled to TCAM rules, costed against the hardware
target, and the resulting (F1 score, supported flows, feasibility) triple is
fed back to the optimiser.  The output is a Pareto frontier of configurations
trading classification accuracy against flow scalability.

Every candidate is fitted on the dataset's ``"fit"`` split and carries two
reports: ``validation``, which every selection here ranks on (the optimiser's
objective, the Pareto front, ``best_at_flows``), and ``report``, the test-split
score a figure prints for the candidate selected.  The test split never
decides a selection.

Candidates are evaluated serially on the calling thread.  ``run(batch_size=N)``
asks the optimiser for a whole batch up front (the paper asks a batch per
iteration) and tells results back in proposal order; every configuration is
evaluated at most once per search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.bayesopt.optimizer import MultiObjectiveBayesianOptimizer
from repro.bayesopt.space import IntegerParameter, ParameterSpace
from repro.core.config import SpliDTConfig
from repro.core.evaluation import ClassificationReport, evaluate_partitioned_tree
from repro.core.pareto import pareto_front_indices
from repro.core.partitioned_tree import PartitionedDecisionTree, train_partitioned_tree
from repro.core.range_marking import (
    FeatureQuantizer,
    RuleSet,
    generate_rules,
    stacked_training_matrix,
)
from repro.core.resources import (
    ResourceEstimate,
    check_feasibility,
    estimate_splidt_resources,
)
from repro.datasets.materialize import DatasetStore
from repro.datasets.workloads import WORKLOADS, WorkloadProfile, flow_duration_moments
from repro.switch.targets import TOFINO1, TargetSpec

#: Flow-count targets the paper reports (100K, 500K, 1M).
DEFAULT_FLOW_TARGETS = (100_000, 500_000, 1_000_000)


@dataclass
class StageTimings:
    """Per-iteration timing breakdown (the paper's Table 4 stages)."""

    fetch: float = 0.0
    training: float = 0.0
    optimizer: float = 0.0
    rulegen: float = 0.0
    backend: float = 0.0

    @property
    def total(self) -> float:
        """Total iteration time."""
        return self.fetch + self.training + self.optimizer + self.rulegen + self.backend


@dataclass
class CandidateEvaluation:
    """Everything the DSE learns about one configuration.

    ``report`` scores the model on the test split, ``validation`` on the
    validation split it is selected by.
    """

    config: SpliDTConfig
    report: ClassificationReport
    validation: ClassificationReport
    model: PartitionedDecisionTree
    rules: RuleSet
    resources: ResourceEstimate
    timings: StageTimings = field(default_factory=StageTimings)

    @property
    def f1_score(self) -> float:
        """Validation F1 score: what a search or a selection ranks on.

        The test-split score is ``report.f1_score``.
        """
        return self.validation.f1_score

    @property
    def max_flows(self) -> int:
        """Concurrent flows supported by the register budget."""
        return self.resources.max_flows

    def supports(self, n_flows: int) -> bool:
        """Whether this candidate is feasible at ``n_flows`` concurrent flows."""
        return check_feasibility(self.resources, n_flows=n_flows).feasible


class EvaluationContext:
    """Cross-candidate memoisation of the config-independent evaluation prefix.

    Three stages of :func:`evaluate_configuration` do not depend on the full
    candidate configuration, only on ``(n_partitions, bit_width)``:

    * the dataset fetch (cached per partition count by
      :class:`~repro.datasets.materialize.DatasetStore`),
    * the reduced-precision view (memoised per width by
      :meth:`~repro.datasets.materialize.WindowedDataset.with_precision`), and
    * the rules' quantiser, fitted on the stacked training windows (cached
      here).

    A search evaluates dozens of candidates that share those keys; caching
    them turns the repeated prefix into dictionary lookups.  The
    resource estimate's flow-duration moments are memoised the same way, per
    ``(workload, n_flows)``.  All cached values are deterministic functions of
    the dataset and the key, so the cached path is bit-identical to
    recomputing.
    """

    def __init__(self, store) -> None:
        self.store = store
        self._quantizers: dict[tuple[int, int], FeatureQuantizer] = {}
        self._moments: dict[tuple[WorkloadProfile, int], tuple[float, float]] = {}

    def duration_moments(self, workload: WorkloadProfile, n_flows: int) -> tuple[float, float]:
        """:func:`flow_duration_moments` of one workload and sample size."""
        key = (workload, n_flows)
        if key not in self._moments:
            self._moments[key] = flow_duration_moments(workload, n_flows)
        return self._moments[key]

    def quantizer(self, n_partitions: int, bit_width: int) -> FeatureQuantizer:
        """The rules' quantiser for one cache key, fitted on the stacked training windows."""
        key = (n_partitions, bit_width)
        if key not in self._quantizers:
            windowed = self.store.fetch(n_partitions).with_precision(bit_width)
            self._quantizers[key] = FeatureQuantizer(bit_width).fit(
                stacked_training_matrix(windowed)
            )
        return self._quantizers[key]


def evaluate_configuration(
    store: DatasetStore,
    config: SpliDTConfig,
    *,
    target: TargetSpec = TOFINO1,
    workloads: dict[str, WorkloadProfile] | None = None,
    random_state: int = 0,
    context: EvaluationContext | None = None,
) -> CandidateEvaluation:
    """Train, compile and cost one configuration (one DSE evaluation).

    The model is fitted on the ``"fit"`` split and scored on the
    ``"validation"`` and ``"test"`` splits.  Passing a long-lived ``context``
    memoises the config-independent prefix (fetch, precision view, quantizer
    fit) and the flow-duration moments across calls; the result is
    bit-identical either way.
    """
    if context is None:
        context = EvaluationContext(store)
    timings = StageTimings()

    start = time.perf_counter()
    windowed = store.fetch(config.n_partitions).with_precision(config.bit_width)
    timings.fetch = time.perf_counter() - start

    start = time.perf_counter()
    model = train_partitioned_tree(windowed, config, split="fit", random_state=random_state)
    report = evaluate_partitioned_tree(model, windowed)
    validation = evaluate_partitioned_tree(model, windowed, split="validation")
    timings.training = time.perf_counter() - start

    start = time.perf_counter()
    rules = generate_rules(
        model,
        bit_width=config.bit_width,
        quantizer=context.quantizer(config.n_partitions, config.bit_width),
    )
    timings.rulegen = time.perf_counter() - start

    start = time.perf_counter()
    resources = estimate_splidt_resources(
        model,
        rules,
        target=target,
        workloads=workloads or WORKLOADS,
        duration_moments=context.duration_moments,
    )
    timings.backend = time.perf_counter() - start

    return CandidateEvaluation(
        config=config,
        report=report,
        validation=validation,
        model=model,
        rules=rules,
        resources=resources,
        timings=timings,
    )


def best_at_flows(candidates, n_flows: int):
    """The highest-validation-F1 candidate feasible at ``n_flows``, or ``None``.

    The one selection rule of every comparison at a flow count: a candidate is
    anything carrying ``resources`` (a :class:`ResourceEstimate`) and a
    ``validation`` report — a SpliDT :class:`CandidateEvaluation` or a
    baseline's ``BaselineCandidate`` — and the first of equal scores wins.
    """
    feasible = [
        c for c in candidates if check_feasibility(c.resources, n_flows=n_flows).feasible
    ]
    return max(feasible, key=lambda c: c.validation.f1_score, default=None)


def _uniform_config(depth: int, k: int, n_partitions: int, bit_width: int) -> SpliDTConfig:
    """A uniform configuration, its partition count clamped to its depth."""
    return SpliDTConfig.uniform(
        depth=depth,
        n_partitions=min(n_partitions, depth),
        features_per_subtree=k,
        bit_width=bit_width,
    )


def evaluate_uniform_space(
    store: DatasetStore,
    *,
    depth_range: tuple[int, int],
    k_range: tuple[int, int],
    partitions_range: tuple[int, int],
    bit_widths: tuple[int, ...] = (32,),
    random_state: int = 0,
) -> list[CandidateEvaluation]:
    """Evaluate every uniform configuration of a bounded space, at each bit width.

    The exact answer a :class:`DesignSearch` over the same (inclusive) bounds
    approximates, costed on Tofino1: every ``(depth, k, n_partitions)`` is normalised as
    :meth:`DesignSearch.config_from_params` does (``n_partitions <= depth``),
    each distinct configuration is evaluated once over one shared
    :class:`EvaluationContext`, and the list is in (bit width, depth, k,
    n_partitions) order — the order ``best_at_flows`` breaks ties in.
    """
    configs = dict.fromkeys(
        _uniform_config(depth, k, partitions, bit_width)
        for bit_width in bit_widths
        for depth in range(depth_range[0], depth_range[1] + 1)
        for k in range(k_range[0], k_range[1] + 1)
        for partitions in range(partitions_range[0], partitions_range[1] + 1)
    )
    context = EvaluationContext(store)
    return [
        evaluate_configuration(store, config, random_state=random_state, context=context)
        for config in configs
    ]


@dataclass
class SearchResult:
    """Outcome of a design-space exploration run.

    ``wall_time`` is the elapsed time of the whole ``run()`` loop.
    """

    history: list[CandidateEvaluation]
    target: TargetSpec
    wall_time: float = 0.0

    def pareto_candidates(self) -> list[CandidateEvaluation]:
        """Non-dominated candidates in (validation F1, supported flows) space."""
        feasible = [c for c in self.history if c.max_flows > 0]
        if not feasible:
            return []
        points = np.array([[c.f1_score, float(c.max_flows)] for c in feasible])
        indices = pareto_front_indices(points)
        return [feasible[i] for i in indices]

    def best_at_flows(self, n_flows: int) -> CandidateEvaluation | None:
        """Best (highest validation F1) candidate feasible at ``n_flows`` concurrent flows."""
        return best_at_flows(self.history, n_flows)

    def pareto_table(self, flow_targets: tuple[int, ...] = DEFAULT_FLOW_TARGETS) -> dict[int, CandidateEvaluation | None]:
        """Best candidate per flow target (the rows of Figure 6 / Table 3)."""
        return {flows: self.best_at_flows(flows) for flows in flow_targets}

    def convergence_trace(self) -> list[float]:
        """Cumulative best validation F1 over iterations (Figure 7)."""
        best = 0.0
        trace = []
        for candidate in self.history:
            best = max(best, candidate.f1_score)
            trace.append(best)
        return trace

    def mean_timings(self) -> StageTimings:
        """Mean per-iteration timings across the history (Table 4)."""
        if not self.history:
            return StageTimings()
        return StageTimings(
            fetch=float(np.mean([c.timings.fetch for c in self.history])),
            training=float(np.mean([c.timings.training for c in self.history])),
            optimizer=float(np.mean([c.timings.optimizer for c in self.history])),
            rulegen=float(np.mean([c.timings.rulegen for c in self.history])),
            backend=float(np.mean([c.timings.backend for c in self.history])),
        )


class DesignSearch:
    """Bayesian-optimisation search over partitioned-tree configurations.

    Args:
        store: The dataset store candidates are evaluated against.
        target: Hardware target used for resource costing.
        depth_range / k_range / partitions_range: Search-space bounds.
        bit_width: Feature precision of every candidate.
        workloads: Workload profiles for the resource model.
        seed: Seed shared by the optimiser and candidate training.
        workers: Must be ``0``.  The evaluator pool it sized is removed;
            the keyword and the no-op context manager stay only because the
            frozen ``benchmarks/perf`` harness passes ``workers=0`` inside a
            ``with`` block (ROADMAP item 1(b) removes both).
    """

    def __init__(
        self,
        store: DatasetStore,
        *,
        target: TargetSpec = TOFINO1,
        depth_range: tuple[int, int] = (2, 30),
        k_range: tuple[int, int] = (1, 6),
        partitions_range: tuple[int, int] = (1, 7),
        bit_width: int = 32,
        workloads: dict[str, WorkloadProfile] | None = None,
        seed: int = 0,
        workers: int = 0,
    ) -> None:
        self.store = store
        self.target = target
        self.depth_range = depth_range
        self.k_range = k_range
        self.partitions_range = partitions_range
        self.bit_width = bit_width
        self.workloads = workloads or WORKLOADS
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        if workers != 0:
            raise ValueError(
                f"workers must be 0 (the evaluator pool was removed), got {workers}"
            )

        self.space = ParameterSpace(
            [
                IntegerParameter("depth", depth_range[0], depth_range[1]),
                IntegerParameter("features_per_subtree", k_range[0], k_range[1]),
                IntegerParameter("n_partitions", partitions_range[0], partitions_range[1]),
            ]
        )
        self.optimizer = MultiObjectiveBayesianOptimizer(
            self.space, n_objectives=2, seed=seed, n_initial=6, candidate_pool=128
        )
        self.context = EvaluationContext(store)
        self._evaluated: dict[tuple, CandidateEvaluation] = {}
        self.history: list[CandidateEvaluation] = []

    # ------------------------------------------------------------------
    def config_from_params(self, params: dict) -> SpliDTConfig:
        """Turn a raw parameter dict into a valid :class:`SpliDTConfig`."""
        return _uniform_config(
            int(params["depth"]),
            int(params["features_per_subtree"]),
            int(params["n_partitions"]),
            self.bit_width,
        )

    def evaluate(self, config: SpliDTConfig) -> CandidateEvaluation:
        """Evaluate one configuration (cached on the configuration tuple)."""
        key = (
            config.depth,
            config.features_per_subtree,
            config.partition_sizes,
            config.bit_width,
        )
        if key not in self._evaluated:
            self._evaluated[key] = evaluate_configuration(
                self.store,
                config,
                target=self.target,
                workloads=self.workloads,
                random_state=self.seed,
                context=self.context,
            )
        return self._evaluated[key]

    def __enter__(self) -> "DesignSearch":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def run(
        self,
        n_iterations: int = 30,
        *,
        batch_size: int = 1,
        method: str = "bayesian",
    ) -> SearchResult:
        """Run the search for ``n_iterations`` evaluations.

        ``method`` may be ``"bayesian"`` (default) or ``"random"`` (pure
        random sampling, used as an ablation of the BO stage).

        The whole batch is asked for before any evaluation and results are
        told back in proposal order.
        """
        run_start = time.perf_counter()
        evaluated = 0
        while evaluated < n_iterations:
            batch = min(batch_size, n_iterations - evaluated)
            if method == "bayesian":
                optimizer_start = time.perf_counter()
                proposals = self.optimizer.ask(batch)
                optimizer_elapsed = (time.perf_counter() - optimizer_start) / max(batch, 1)
            else:
                proposals = self.space.sample_many(batch, self.rng)
                optimizer_elapsed = 0.0

            configs = [self.config_from_params(params) for params in proposals]
            candidates = [self.evaluate(config) for config in configs]

            batch_objectives = []
            batch_feasible = []
            for candidate in candidates:
                candidate.timings.optimizer = optimizer_elapsed
                self.history.append(candidate)
                batch_objectives.append(
                    (candidate.f1_score, np.log10(max(candidate.max_flows, 1)))
                )
                batch_feasible.append(candidate.max_flows > 0)
                evaluated += 1
            if method == "bayesian":
                self.optimizer.tell_many(proposals, batch_objectives, batch_feasible)

        return SearchResult(
            history=list(self.history),
            target=self.target,
            wall_time=time.perf_counter() - run_start,
        )
