"""Declarative workload-scenario specification.

A :class:`ScenarioSpec` describes *hostile or overload traffic*: a base
synthetic dataset plus an ordered stack of adversarial layers (heavy-hitter
source skew, flash crowds, DDoS floods, flow-size evasion), the flow-table
eviction policy the data plane runs under, and whether the workload is
materialised in RAM or streamed out-of-core.  It is the workload-side
complement of :class:`~repro.pipeline.spec.ExperimentSpec` (which describes
the *system* under test) and nests inside it as the ``scenario`` field, so
one serialised spec captures both what is deployed and what attacks it.

Not to be confused with the named ``ExperimentSpec`` *presets* that
``python -m repro run --scenario`` selects — those configure the system;
these configure the traffic.  The workload catalog lives in
:mod:`repro.scenarios.catalog`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace as dataclass_replace

from repro.datasets.profiles import DATASET_KEYS
from repro.switch.eviction import EVICTION_POLICIES


class ScenarioError(ValueError):
    """Raised when a :class:`ScenarioSpec` is invalid."""


#: Adversarial layer kinds understood by :mod:`repro.scenarios.traffic`.
LAYER_KINDS = ("heavy-hitter", "flash-crowd", "ddos-flood", "evasion")


@dataclass(frozen=True)
class LayerSpec:
    """One adversarial layer: a kind plus its parameters.

    Parameters are kind-specific and validated by the layer implementation
    in :mod:`repro.scenarios.traffic`:

    * ``heavy-hitter`` — ``skew`` (Zipf exponent, > 0), ``n_sources``
      (size of the concentrated source pool).
    * ``flash-crowd`` — ``at`` (stream time the crowd converges on),
      ``width`` (seconds the correlated starts spread over), ``fraction``
      (share of flows pulled into the crowd).
    * ``ddos-flood`` — ``flows`` (spoofed flow count), ``start`` /
      ``duration`` (attack window), ``min_packets`` / ``max_packets``
      (per-flow packet range).
    * ``evasion`` — ``scale`` (advertised-flow-size multiplier), ``fraction``
      (share of flows spoofing their size), extending the
      :mod:`repro.analysis.robustness` spoofing model to mixed traffic.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))

    def validate(self) -> "LayerSpec":
        """Check the layer kind (parameters are checked by the layer)."""
        if self.kind not in LAYER_KINDS:
            raise ScenarioError(
                f"unknown layer kind {self.kind!r}; expected one of {LAYER_KINDS}"
            )
        from repro.scenarios.traffic import validate_layer_params

        validate_layer_params(self)
        return self

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-compatible)."""
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: dict) -> "LayerSpec":
        """Rebuild from :meth:`to_dict` output; rejects unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ScenarioError(f"unknown layer fields: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class DegradationBounds:
    """Acceptable floor of classification quality under a scenario.

    ``python -m repro scenario run --assert-degradation-bounds`` (and the CI
    scenario-smoke job) fails the run when any bound is violated.  Metrics
    are computed over the *legitimate* flows only — attack traffic is load,
    not ground truth.
    """

    min_accuracy: float = 0.0
    min_decided_fraction: float = 0.0
    max_median_ttd: float = math.inf

    def validate(self) -> "DegradationBounds":
        """Check the bounds; raises :class:`ScenarioError`."""
        if not 0.0 <= self.min_accuracy <= 1.0:
            raise ScenarioError(
                f"min_accuracy must be in [0, 1], got {self.min_accuracy}"
            )
        if not 0.0 <= self.min_decided_fraction <= 1.0:
            raise ScenarioError(
                f"min_decided_fraction must be in [0, 1], got {self.min_decided_fraction}"
            )
        if self.max_median_ttd <= 0.0:
            raise ScenarioError(
                f"max_median_ttd must be > 0, got {self.max_median_ttd}"
            )
        return self

    def to_dict(self) -> dict:
        """Plain-dict form; an unbounded TTD serialises as ``None``."""
        data = asdict(self)
        if math.isinf(data["max_median_ttd"]):
            data["max_median_ttd"] = None
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "DegradationBounds":
        """Rebuild from :meth:`to_dict` output; rejects unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ScenarioError(f"unknown bounds fields: {sorted(unknown)}")
        payload = dict(data)
        if payload.get("max_median_ttd") is None:
            payload["max_median_ttd"] = math.inf
        return cls(**payload)


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one adversarial workload.

    Attributes:
        name: Scenario identifier (catalog key or ``"custom"``).
        dataset: Base synthetic profile the legitimate traffic follows.
        traffic_flows: Legitimate flows generated before layers apply.
        seed: Seed of both the base generator and the layer transforms.
        layers: Ordered adversarial layers (:class:`LayerSpec`).
        ruleset: Optional path to a ClassBench-format 5-tuple ruleset; when
            set, legitimate flows draw their five-tuples from the ruleset's
            filters (trace-derived classification workloads; see
            :mod:`repro.scenarios.classbench`).
        eviction: Collision-slot eviction policy of the replayed data plane
            (``"none"``, ``"idle-timeout"`` or ``"lru"``; see
            :mod:`repro.switch.eviction`).
        eviction_timeout: Idle seconds before ``"idle-timeout"`` evicts.
        streamed: Spill the workload out-of-core through a
            :class:`~repro.datasets.streams.StreamedPacketWriter` instead of
            materialising ``Flow`` objects (mandatory for million-flow runs).
        chunk_size: Packets per chunk when feeding streamed workloads.
        bounds: Optional :class:`DegradationBounds` asserted after a run.
    """

    name: str = "custom"
    dataset: str = "D3"
    traffic_flows: int = 360
    seed: int = 0
    layers: tuple[LayerSpec, ...] = ()
    ruleset: str | None = None
    eviction: str = "none"
    eviction_timeout: float = 1.0
    streamed: bool = False
    chunk_size: int = 4096
    bounds: DegradationBounds | None = None

    def __post_init__(self) -> None:
        layers = tuple(
            LayerSpec(**layer) if isinstance(layer, dict) else layer
            for layer in self.layers
        )
        object.__setattr__(self, "layers", layers)
        if isinstance(self.bounds, dict):
            object.__setattr__(self, "bounds", DegradationBounds(**self.bounds))

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> "ScenarioSpec":
        """Check the spec; raises :class:`ScenarioError` with the first problem."""
        if self.dataset not in DATASET_KEYS:
            raise ScenarioError(
                f"unknown dataset {self.dataset!r}; expected one of {DATASET_KEYS}"
            )
        if self.traffic_flows < 1:
            raise ScenarioError(f"traffic_flows must be >= 1, got {self.traffic_flows}")
        if self.eviction not in EVICTION_POLICIES:
            raise ScenarioError(
                f"unknown eviction policy {self.eviction!r}; "
                f"expected one of {EVICTION_POLICIES}"
            )
        if self.eviction_timeout < 0.0:
            raise ScenarioError(
                f"eviction_timeout must be >= 0, got {self.eviction_timeout}"
            )
        if self.chunk_size < 1:
            raise ScenarioError(f"chunk_size must be >= 1, got {self.chunk_size}")
        for layer in self.layers:
            layer.validate()
        if self.bounds is not None:
            self.bounds.validate()
        return self

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form; nested specs become nested dicts."""
        data = asdict(self)
        data["layers"] = [layer.to_dict() for layer in self.layers]
        data["bounds"] = self.bounds.to_dict() if self.bounds is not None else None
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Rebuild from :meth:`to_dict` output; rejects unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
        payload = dict(data)
        if payload.get("layers"):
            payload["layers"] = tuple(
                LayerSpec.from_dict(layer) if isinstance(layer, dict) else layer
                for layer in payload["layers"]
            )
        if isinstance(payload.get("bounds"), dict):
            payload["bounds"] = DegradationBounds.from_dict(payload["bounds"])
        return cls(**payload)

    def replace(self, **changes) -> "ScenarioSpec":
        """A copy of the spec with ``changes`` applied."""
        return dataclass_replace(self, **changes)
