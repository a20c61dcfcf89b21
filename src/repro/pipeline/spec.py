"""Declarative experiment specification.

An :class:`ExperimentSpec` captures *everything* one end-to-end run of the
paper's pipeline depends on — dataset key/size/seed, the system under test
(SpliDT or a baseline), its model hyper-parameters, the hardware target, and
the replay settings — as one serialisable value.  The
:class:`~repro.pipeline.experiment.Experiment` facade turns a spec into
results; two runs with equal specs produce bit-identical models, rules and
replay verdicts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace as dataclass_replace

from repro.core.config import SpliDTConfig, TopKConfig
from repro.dataplane.runtime import REPLAY_ENGINES
from repro.datasets.profiles import DATASET_KEYS
from repro.online.config import OnlineConfig, OnlineConfigError
from repro.serve.engine import SERVE_ENGINES
from repro.serve.process_sharded import START_METHODS as SPAWN_METHODS
from repro.switch.targets import TARGETS, TargetSpec, get_target


class SpecError(ValueError):
    """Raised when an :class:`ExperimentSpec` is invalid."""


@dataclass(frozen=True)
class ServeConfig:
    """Declarative serving settings (the ``python -m repro serve`` surface).

    Attributes:
        engine: Inference engine — ``"streaming"`` (per-packet),
            ``"microbatch"`` (vectorized micro-batches) or ``"sharded-mp"``
            (worker *processes* partitioned by CRC32 register slot over a
            shared-memory packet source).
        workers: Worker process count (``"sharded-mp"`` engine only).
        spawn_method: Process start method for ``"sharded-mp"`` —
            ``"fork"``, ``"spawn"``, ``"forkserver"`` or ``None`` (the
            platform default: fork on Linux, spawn on macOS/Windows).
        ring_slots: Slots per worker ring of ``"sharded-mp"``; a full ring
            is its backpressure (``ingest`` blocks).
        chunk_size: Packets per ingested chunk when streaming a dataset.
        backpressure: Buffered-packet limit before micro-batch ingestion
            errors.
        online: Online-loop settings (:class:`repro.online.OnlineConfig`) —
            drift detection, retraining and model hot swap.
            Disabled unless ``online.enabled`` is set (``serve --online``).
    """

    engine: str = "microbatch"
    workers: int = 4
    spawn_method: str | None = None
    ring_slots: int = 64
    chunk_size: int = 256
    backpressure: int = 1_000_000
    online: OnlineConfig = OnlineConfig()

    def __post_init__(self) -> None:
        if isinstance(self.online, dict):
            object.__setattr__(self, "online", OnlineConfig(**self.online))

    def validate(self) -> "ServeConfig":
        """Check the serving settings; raises :class:`SpecError`."""
        if self.engine not in SERVE_ENGINES:
            raise SpecError(
                f"unknown serve engine {self.engine!r}; expected one of {SERVE_ENGINES}"
            )
        if self.workers < 1:
            raise SpecError(f"serve workers must be >= 1, got {self.workers}")
        if self.spawn_method not in SPAWN_METHODS:
            raise SpecError(
                f"unknown serve spawn_method {self.spawn_method!r}; "
                f"expected one of {SPAWN_METHODS}"
            )
        if self.ring_slots < 1:
            raise SpecError(f"serve ring_slots must be >= 1, got {self.ring_slots}")
        if self.chunk_size < 1:
            raise SpecError(f"serve chunk_size must be >= 1, got {self.chunk_size}")
        if self.backpressure < self.chunk_size:
            raise SpecError(
                f"serve backpressure ({self.backpressure}) must be >= "
                f"chunk_size ({self.chunk_size})"
            )
        try:
            self.online.validate()
        except OnlineConfigError as exc:
            raise SpecError(f"serve online config: {exc}") from exc
        return self

    def replace(self, **changes) -> "ServeConfig":
        """A copy of the config with ``changes`` applied."""
        return dataclass_replace(self, **changes)


@dataclass(frozen=True)
class DseConfig:
    """Declarative design-search settings (the ``python -m repro dse`` surface).

    Attributes:
        iterations: Candidate evaluations in the search.
        batch_size: Proposals asked (and evaluated) per optimiser iteration.
        method: ``"bayesian"`` (multi-objective BO, the paper's search) or
            ``"random"`` (pure sampling — the ablation of the BO stage).
        depth_range: Inclusive bounds of the total tree depth ``D``.
        k_range: Inclusive bounds of the per-subtree feature budget ``k``.
        partitions_range: Inclusive bounds of the partition count ``p``.
    """

    iterations: int = 24
    batch_size: int = 4
    method: str = "bayesian"
    depth_range: tuple[int, int] = (2, 16)
    k_range: tuple[int, int] = (1, 6)
    partitions_range: tuple[int, int] = (1, 5)

    def __post_init__(self) -> None:
        for name in ("depth_range", "k_range", "partitions_range"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))

    def validate(self) -> "DseConfig":
        """Check the search settings; raises :class:`SpecError`."""
        if self.iterations < 1:
            raise SpecError(f"dse iterations must be >= 1, got {self.iterations}")
        if self.batch_size < 1:
            raise SpecError(f"dse batch_size must be >= 1, got {self.batch_size}")
        if self.method not in ("bayesian", "random"):
            raise SpecError(
                f"unknown dse method {self.method!r}; expected 'bayesian' or 'random'"
            )
        for name in ("depth_range", "k_range", "partitions_range"):
            bounds = getattr(self, name)
            if len(bounds) != 2 or bounds[0] < 1 or bounds[1] < bounds[0]:
                raise SpecError(
                    f"dse {name} must be (lo, hi) with 1 <= lo <= hi, got {bounds}"
                )
        return self

    def replace(self, **changes) -> "DseConfig":
        """A copy of the config with ``changes`` applied."""
        return dataclass_replace(self, **changes)


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one dataset-to-dataplane experiment.

    Attributes:
        dataset: Dataset key (``"D1"`` … ``"D7"``).
        n_flows: Flows generated for training/evaluation.
        seed: Seed for dataset generation, the train/test split, and training.
        system: Registry key of the system under test (``"splidt"`` or a
            baseline such as ``"netbeacon"``; see
            :func:`repro.pipeline.systems.available_systems`).
        depth: Total tree depth ``D`` (SpliDT) or maximum depth
            (``topk``/``pforest``).  The search baselines (``netbeacon``,
            ``leo``, ``per_packet``) pick their own depth/k inside
            ``train`` and ignore these two fields — use ``system="topk"``
            to pin an exact (depth, k).
        features_per_subtree: ``k`` — per-subtree feature budget (SpliDT)
            or the global top-k (``topk``/``pforest``).
        n_partitions: Number of partitions (ignored by one-shot baselines,
            but still controls dataset materialisation).
        partition_sizes: Explicit per-partition depths; overrides the uniform
            split of ``depth`` across ``n_partitions`` when given.
        bit_width: Feature register / match-key precision in bits.
        target: Hardware target name (``"tofino1"`` …).
        target_flows: Concurrent-flow target used for baseline model search
            and feasibility checks.
        replay_engine: ``"vectorized"`` (the batched window plane) or
            ``"reference"`` (the per-packet oracle).
        replay_flows: Replay only the first N flows (``None`` = all).
        flow_slots: Register slots of the simulated data-plane program.
        jitter_starts: Randomly shift flow start times during replay.
        test_size: Held-out fraction of the train/test split.
        n_trees: Ensemble size (pForest only).
        serve: Streaming-serving settings (:class:`ServeConfig`) used by
            ``python -m repro serve`` and :meth:`Experiment.serve_engine`.
        dse: Design-search settings (:class:`DseConfig`) used by
            ``python -m repro dse`` — iteration/batch counts, the search
            method and the search-space bounds.
        scenario: Optional adversarial workload
            (:class:`repro.scenarios.ScenarioSpec`).  When set, the deployed
            data plane honours the scenario's eviction policy, and
            ``python -m repro scenario`` replays the scenario's traffic
            against the trained model.
    """

    dataset: str = "D3"
    n_flows: int = 600
    seed: int = 0
    system: str = "splidt"
    depth: int = 9
    features_per_subtree: int = 4
    n_partitions: int = 3
    partition_sizes: tuple[int, ...] | None = None
    bit_width: int = 32
    target: str = "tofino1"
    target_flows: int = 100_000
    replay_engine: str = "vectorized"
    replay_flows: int | None = 200
    flow_slots: int = 8192
    jitter_starts: bool = False
    test_size: float = 0.3
    n_trees: int = 5
    serve: ServeConfig = ServeConfig()
    dse: DseConfig = DseConfig()
    scenario: "object | None" = None

    def __post_init__(self) -> None:
        if self.partition_sizes is not None and not isinstance(self.partition_sizes, tuple):
            object.__setattr__(self, "partition_sizes", tuple(self.partition_sizes))
        if isinstance(self.serve, dict):
            object.__setattr__(self, "serve", ServeConfig(**self.serve))
        if isinstance(self.dse, dict):
            object.__setattr__(self, "dse", DseConfig(**self.dse))
        if isinstance(self.scenario, dict):
            # Imported lazily: repro.scenarios imports the pipeline back.
            from repro.scenarios.spec import ScenarioSpec

            object.__setattr__(self, "scenario", ScenarioSpec(**self.scenario))

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> "ExperimentSpec":
        """Check the spec; raises :class:`SpecError` with the first problem."""
        from repro.pipeline.systems import available_systems

        if self.dataset not in DATASET_KEYS:
            raise SpecError(
                f"unknown dataset {self.dataset!r}; expected one of {DATASET_KEYS}"
            )
        if self.system not in available_systems():
            raise SpecError(
                f"unknown system {self.system!r}; expected one of {available_systems()}"
            )
        if self.n_flows < 10:
            raise SpecError(f"n_flows must be >= 10, got {self.n_flows}")
        if self.target.lower() not in TARGETS:
            raise SpecError(
                f"unknown target {self.target!r}; expected one of {tuple(TARGETS)}"
            )
        if self.replay_engine not in REPLAY_ENGINES:
            raise SpecError(
                f"unknown replay engine {self.replay_engine!r}; "
                f"expected one of {REPLAY_ENGINES}"
            )
        if self.replay_flows is not None and self.replay_flows < 1:
            raise SpecError(f"replay_flows must be >= 1, got {self.replay_flows}")
        if self.flow_slots < 1:
            raise SpecError(f"flow_slots must be >= 1, got {self.flow_slots}")
        if not 0.0 < self.test_size < 1.0:
            raise SpecError(f"test_size must be in (0, 1), got {self.test_size}")
        if self.n_trees < 1:
            raise SpecError(f"n_trees must be >= 1, got {self.n_trees}")
        self.serve.validate()
        self.dse.validate()
        if self.scenario is not None:
            from repro.scenarios.spec import ScenarioSpec

            if not isinstance(self.scenario, ScenarioSpec):
                raise SpecError(
                    f"scenario must be a ScenarioSpec or dict, "
                    f"got {type(self.scenario).__name__}"
                )
            try:
                self.scenario.validate()
            except ValueError as exc:
                raise SpecError(f"scenario: {exc}") from exc
        try:
            if self.system == "splidt":
                self.model_config()
            else:
                self.topk_config()
        except ValueError as exc:  # re-raise config errors as spec errors
            raise SpecError(str(exc)) from exc
        return self

    # ------------------------------------------------------------------
    # Derived values
    # ------------------------------------------------------------------
    def target_spec(self) -> TargetSpec:
        """The resolved hardware target."""
        return get_target(self.target)

    def model_config(self) -> SpliDTConfig:
        """The SpliDT model configuration this spec describes."""
        if self.partition_sizes is not None:
            return SpliDTConfig(
                depth=self.depth,
                features_per_subtree=self.features_per_subtree,
                partition_sizes=self.partition_sizes,
                bit_width=self.bit_width,
            )
        return SpliDTConfig.uniform(
            depth=self.depth,
            n_partitions=self.n_partitions,
            features_per_subtree=self.features_per_subtree,
            bit_width=self.bit_width,
        )

    def topk_config(self) -> TopKConfig:
        """The one-shot baseline configuration this spec describes."""
        return TopKConfig(
            depth=self.depth,
            top_k=self.features_per_subtree,
            bit_width=self.bit_width,
            use_stateful=self.system != "per_packet",
        )

    def materialized_partitions(self) -> int:
        """Windows to materialise (the SpliDT config's partition count)."""
        if self.system == "splidt":
            return self.model_config().n_partitions
        return max(self.n_partitions, 1)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form (JSON-compatible); ``serve`` becomes a nested dict."""
        data = asdict(self)
        if data["partition_sizes"] is not None:
            data["partition_sizes"] = list(data["partition_sizes"])
        for name in ("depth_range", "k_range", "partitions_range"):
            data["dse"][name] = list(data["dse"][name])
        if self.scenario is not None:
            # ScenarioSpec.to_dict keeps the payload JSON-compatible
            # (infinite bounds serialise as null).
            data["scenario"] = self.scenario.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output; rejects unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SpecError(f"unknown spec fields: {sorted(unknown)}")
        payload = dict(data)
        if payload.get("partition_sizes") is not None:
            payload["partition_sizes"] = tuple(payload["partition_sizes"])
        if isinstance(payload.get("serve"), dict):
            serve_payload = dict(payload["serve"])
            serve_known = {f.name for f in fields(ServeConfig)}
            serve_unknown = set(serve_payload) - serve_known
            if serve_unknown:
                raise SpecError(f"unknown serve fields: {sorted(serve_unknown)}")
            if isinstance(serve_payload.get("online"), dict):
                online_payload = serve_payload["online"]
                online_known = {f.name for f in fields(OnlineConfig)}
                online_unknown = set(online_payload) - online_known
                if online_unknown:
                    raise SpecError(
                        f"unknown serve online fields: {sorted(online_unknown)}"
                    )
                serve_payload["online"] = OnlineConfig(**online_payload)
            payload["serve"] = ServeConfig(**serve_payload)
        if isinstance(payload.get("dse"), dict):
            dse_payload = dict(payload["dse"])
            dse_known = {f.name for f in fields(DseConfig)}
            dse_unknown = set(dse_payload) - dse_known
            if dse_unknown:
                raise SpecError(f"unknown dse fields: {sorted(dse_unknown)}")
            payload["dse"] = DseConfig(**dse_payload)
        if isinstance(payload.get("scenario"), dict):
            from repro.scenarios.spec import ScenarioError, ScenarioSpec

            try:
                payload["scenario"] = ScenarioSpec.from_dict(payload["scenario"])
            except ScenarioError as exc:
                raise SpecError(f"scenario: {exc}") from exc
        return cls(**payload)

    def replace(self, **changes) -> "ExperimentSpec":
        """A copy of the spec with ``changes`` applied."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update(changes)
        return ExperimentSpec(**data)
