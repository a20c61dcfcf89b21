"""The :class:`Experiment` facade: spec in, results out.

One experiment is the paper's fixed loop as six composable stages::

    prepare -> train -> compile -> deploy -> replay -> report

Each stage is individually cacheable: calling any stage method runs (and
memoises) its prerequisites, so ``experiment.replay()`` trains at most once
and a second call returns the cached :class:`ReplayResult` without touching
the data plane again.  ``report()`` bundles everything into one
:class:`ExperimentResult`.

Example::

    from repro.pipeline import Experiment, ExperimentSpec

    result = Experiment(ExperimentSpec(dataset="D3", n_flows=400)).run()
    print(result.replay_report.f1_score, result.ttd["median"])
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.evaluation import ClassificationReport
from repro.core.resources import FeasibilityResult, ResourceEstimate
from repro.dataplane.runtime import ReplayResult, replay_dataset
from repro.datasets.flows import FlowDataset
from repro.datasets.materialize import DatasetStore, WindowedDataset
from repro.datasets.registry import load_dataset
from repro.pipeline.spec import ExperimentSpec
from repro.pipeline.systems import ExperimentError, System, get_system

#: Stage names in execution order.
STAGES = ("prepare", "train", "compile", "deploy", "replay", "report")


@dataclass
class Prepared:
    """Output of the ``prepare`` stage."""

    dataset: FlowDataset
    store: DatasetStore
    windowed: WindowedDataset


@dataclass
class Deployment:
    """Output of the ``deploy`` stage."""

    program: object | None
    resources: ResourceEstimate | None
    feasibility: FeasibilityResult | None


@dataclass
class ExperimentResult:
    """Everything one experiment produced, in one bundle.

    Attributes:
        spec: The spec that produced this result.
        offline_report: Held-out (matrix) classification report.
        replay_result: Packet-level replay outcome (``None`` when the system
            has no data-plane program or replay was skipped).
        ttd: Time-to-detection summary of the replay (median/mean/p90/p99/max
            seconds; empty when there was no replay).
        recirculation: Recirculation statistics of the replay.
        resources: Hardware cost estimate (``None`` when not modelled).
        feasibility: Feasibility verdict at ``spec.target_flows``.
        timings: Wall-clock seconds per executed stage.
        model_summary: Structure statistics of the trained model.
    """

    spec: ExperimentSpec
    offline_report: ClassificationReport
    replay_result: ReplayResult | None
    ttd: dict[str, float] = field(default_factory=dict)
    recirculation: dict[str, float] = field(default_factory=dict)
    resources: ResourceEstimate | None = None
    feasibility: FeasibilityResult | None = None
    timings: dict[str, float] = field(default_factory=dict)
    model_summary: dict = field(default_factory=dict)

    @property
    def replay_report(self) -> ClassificationReport:
        """Replay-side report, falling back to the offline report."""
        if self.replay_result is not None:
            return self.replay_result.report
        return self.offline_report

    @property
    def f1_score(self) -> float:
        """Headline F1 (replay when available, offline otherwise)."""
        return self.replay_report.f1_score

    def summary(self) -> dict:
        """JSON-compatible summary (what ``result.json`` artifacts store)."""
        replayed = self.replay_result is not None
        return {
            "spec": self.spec.to_dict(),
            "offline_f1": self.offline_report.f1_score,
            "offline_accuracy": self.offline_report.accuracy,
            "replayed": replayed,
            "replay_f1": self.replay_result.report.f1_score if replayed else None,
            "replay_flows": len(self.replay_result.verdicts) if replayed else 0,
            "ttd": self.ttd,
            "recirculation": self.recirculation,
            "max_flows": self.resources.max_flows if self.resources else None,
            "tcam_entries": self.resources.tcam_entries if self.resources else None,
            "feasible": self.feasibility.feasible if self.feasibility else None,
            "timings": self.timings,
            "model": self.model_summary,
        }


class Experiment:
    """Runs an :class:`ExperimentSpec` through the staged pipeline.

    Stage methods are idempotent: results are cached on the instance, so the
    stages compose freely (``replay()`` twice trains once).  ``invalidate``
    drops a stage *and everything after it* so a stage can be re-run — e.g.
    after swapping the replay engine on a loaded artifact.
    """

    def __init__(self, spec: ExperimentSpec) -> None:
        self.spec = spec.validate()
        self.system: System = get_system(spec.system)
        self._cache: dict[str, object] = {}
        self.timings: dict[str, float] = {}
        #: Stages satisfied from a loaded artifact rather than computed.
        self.restored_stages: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # Stage plumbing
    # ------------------------------------------------------------------
    def _stage(self, name: str, fn):
        if name not in self._cache:
            start = time.perf_counter()
            self._cache[name] = fn()
            self.timings[name] = time.perf_counter() - start
        return self._cache[name]

    def stage_ran(self, name: str) -> bool:
        """Whether ``name`` has produced a cached result."""
        return name in self._cache

    def restore_stage(self, name: str, value) -> None:
        """Seed a stage's cached result (used by artifact loading)."""
        if name not in STAGES:
            raise ValueError(f"unknown stage {name!r}; expected one of {STAGES}")
        self._cache[name] = value
        self.timings[name] = 0.0

    def invalidate(self, stage: str) -> None:
        """Drop ``stage`` and all downstream stages from the cache."""
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
        for name in STAGES[STAGES.index(stage):]:
            self._cache.pop(name, None)
            self.timings.pop(name, None)

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def prepare(self) -> Prepared:
        """Generate the dataset and materialise its window features."""

        def run() -> Prepared:
            spec = self.spec
            dataset = load_dataset(spec.dataset, n_flows=spec.n_flows, seed=spec.seed)
            store = DatasetStore(dataset, test_size=spec.test_size, random_state=spec.seed)
            windowed = store.fetch(spec.materialized_partitions())
            if spec.bit_width != 32:
                windowed = windowed.with_precision(spec.bit_width)
            return Prepared(dataset=dataset, store=store, windowed=windowed)

        return self._stage("prepare", run)

    def train(self):
        """Fit the system's model (whatever ``System.train`` returns)."""
        return self._stage(
            "train", lambda: self.system.train(self.spec, self.prepare().windowed)
        )

    def compile(self):
        """Lower the trained model to range-marking TCAM rules."""
        return self._stage(
            "compile",
            lambda: self.system.compile(self.train(), self.prepare().windowed, self.spec),
        )

    def deploy(self) -> Deployment:
        """Install the rules into a data-plane program and cost it."""

        def run() -> Deployment:
            model, rules = self.train(), self.compile()
            program = self.system.build_program(model, rules, self.spec)
            resources = self.system.resources(model, rules, self.spec)
            feasibility = self.system.feasibility(model, resources, self.spec)
            return Deployment(program=program, resources=resources, feasibility=feasibility)

        return self._stage("deploy", run)

    def replay(self) -> ReplayResult | None:
        """Replay the dataset through a fresh program; ``None`` if unsupported.

        A *new* program is built for every (non-cached) replay so register
        state from a previous replay can never leak into this one.
        """

        def run() -> ReplayResult | None:
            if not self.system.supports_replay:
                return None
            self.deploy()  # surfaces resource/feasibility data in timings order
            program = self.system.build_program(self.train(), self.compile(), self.spec)
            if program is None:
                return None
            spec = self.spec
            return replay_dataset(
                program,
                self.prepare().dataset,
                max_flows=spec.replay_flows,
                jitter_starts=spec.jitter_starts,
                seed=spec.seed,
                engine=spec.replay_engine,
            )

        return self._stage("replay", run)

    # ------------------------------------------------------------------
    # Serving (streaming inference over the deployed model)
    # ------------------------------------------------------------------
    def serve_engine(self):
        """A (not yet opened) streaming engine configured by ``spec.serve``.

        Builds on the deployed model: ``prepare``/``train``/``compile`` run
        (or come from a loaded artifact), then the system's program factory
        feeds :func:`repro.serve.create_engine`.  Pair it with
        :meth:`packet_stream`::

            engine = experiment.serve_engine()
            with engine:
                for chunk in experiment.packet_stream():
                    engine.ingest(chunk)
            print(engine.result().report.f1_score)
        """
        from repro.serve import create_engine

        if not self.system.supports_replay:
            raise ExperimentError(
                f"system {self.spec.system!r} has no data-plane program to serve"
            )
        self.deploy()  # surfaces resource/feasibility data before serving
        factory = self.system.program_factory(self.train(), self.compile(), self.spec)
        serve = self.spec.serve
        return create_engine(
            factory,
            engine=serve.engine,
            workers=serve.workers,
            spawn_method=serve.spawn_method,
            ring_slots=serve.ring_slots,
            backpressure=serve.backpressure,
        )

    def packet_stream(self, chunk_size: int | None = None):
        """The experiment's replay traffic as an iterator of packet chunks.

        Applies the spec's ``replay_flows`` truncation and ``jitter_starts``
        exactly as the replay stage does, so serving and batch replay observe
        the same packets.  ``chunk_size`` defaults to ``spec.serve.chunk_size``.
        """
        from repro.dataplane.runtime import prepare_replay_flows
        from repro.datasets.streams import iter_packet_chunks

        spec = self.spec
        flows = prepare_replay_flows(
            self.prepare().dataset,
            max_flows=spec.replay_flows,
            jitter_starts=spec.jitter_starts,
            seed=spec.seed,
        )
        size = chunk_size if chunk_size is not None else spec.serve.chunk_size
        return iter_packet_chunks(flows, size)

    def report(self) -> ExperimentResult:
        """Run any remaining stages and bundle the :class:`ExperimentResult`."""

        def run() -> ExperimentResult:
            from repro.analysis.ttd import summarize_ttd

            windowed = self.prepare().windowed
            model = self.train()
            offline = self.system.offline_report(model, windowed, self.spec)
            deployment = self.deploy()
            replay_result = self.replay()
            ttd: dict[str, float] = {}
            recirculation: dict[str, float] = {}
            if replay_result is not None:
                ttd = summarize_ttd(replay_result.time_to_detection())
                recirculation = dict(replay_result.recirculation)
            return ExperimentResult(
                spec=self.spec,
                offline_report=offline,
                replay_result=replay_result,
                ttd=ttd,
                recirculation=recirculation,
                resources=deployment.resources,
                feasibility=deployment.feasibility,
                timings=dict(self.timings),
                model_summary=self._model_summary(model),
            )

        result = self._stage("report", run)
        # The report's timing snapshot races its own stage entry; refresh so
        # the bundled timings include every stage that actually ran.
        result.timings = dict(self.timings)
        return result

    def run(self) -> ExperimentResult:
        """Alias for :meth:`report` — run the pipeline end to end."""
        return self.report()

    # ------------------------------------------------------------------
    def _model_summary(self, model) -> dict:
        summary: dict = {"system": self.spec.system}
        inner = getattr(model, "model", model)  # BaselineCandidate wraps .model
        if hasattr(inner, "n_subtrees"):
            summary["n_subtrees"] = inner.n_subtrees
        if hasattr(inner, "features_used"):
            summary["n_features_used"] = len(inner.features_used())
        if hasattr(inner, "config"):
            config = inner.config
            for key in ("depth", "top_k", "features_per_subtree", "partition_sizes"):
                if hasattr(config, key):
                    value = getattr(config, key)
                    summary[key] = list(value) if isinstance(value, tuple) else value
        return summary


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """One-call convenience: ``Experiment(spec).run()``."""
    return Experiment(spec).run()


__all__ = [
    "Deployment",
    "Experiment",
    "ExperimentError",
    "ExperimentResult",
    "Prepared",
    "STAGES",
    "run_experiment",
]
