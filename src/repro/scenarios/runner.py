"""Scenario execution: train clean, attack the deployed data plane, measure.

:func:`run_scenario` follows the operational story end to end — the model is
trained and compiled on *clean* traffic of the scenario's base profile (via
the ordinary :class:`~repro.pipeline.experiment.Experiment` pipeline), then
the deployed program replays the *adversarial* workload, under the
scenario's eviction policy, and the degradation is measured on the
legitimate flows only.  :func:`sweep_occupancy` repeats the replay while the
flow population sweeps past the register file's slot capacity (the
benchmark's 0.5×→8× pressure curve), reusing one trained model across every
point.
"""

from __future__ import annotations

import resource
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.dataplane import vectorized as vz
from repro.dataplane.runtime import score_verdicts
from repro.datasets.profiles import get_profile
from repro.pipeline.experiment import Experiment
from repro.pipeline.spec import ExperimentSpec
from repro.pipeline.systems import get_system
from repro.scenarios.spec import DegradationBounds, ScenarioSpec
from repro.scenarios.traffic import ScenarioWorkload, build_workload, layer_params


def peak_rss_bytes() -> int:
    """This process's lifetime peak resident set size, in bytes."""
    # ru_maxrss is kilobytes on Linux (bytes on macOS; both monotone, and
    # the scenarios pipeline only asserts relative bounds).
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


@dataclass
class ScenarioResult:
    """Outcome of replaying one scenario workload against a deployed model.

    Quality metrics (``accuracy``, ``f1_score``, ``decided_fraction``,
    ``median_ttd``) cover the **legitimate** flows only; attack flows are
    load.  ``occupancy`` is total flows over register slots — the pressure
    axis of the degradation curves.
    """

    scenario: str
    flow_slots: int
    occupancy: float
    n_flows: int
    n_legit: int
    n_packets: int
    accuracy: float
    f1_score: float
    decided_fraction: float
    median_ttd: float
    evictions: int
    eviction_policy: str
    streamed: bool
    peak_rss_bytes: int
    materialised_estimate: int | None
    elapsed_s: float
    #: Seconds inside the replay itself (``elapsed_s`` also covers generating
    #: the workload, building the program and scoring).
    replay_s: float = 0.0
    #: ``program.replay_stats`` of the replay: flows and packets per plane
    #: (batched / slot_stream; the packet counts sum to the packets
    #: replayed), event rounds, and the slot state left ``deferred`` (slots /
    #: open_windows / packets) for a later reader.
    replay_stats: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def violations(self, bounds: DegradationBounds | None) -> list[str]:
        """Human-readable bound violations (empty = within bounds)."""
        if bounds is None:
            return []
        problems = []
        if self.accuracy < bounds.min_accuracy:
            problems.append(
                f"accuracy {self.accuracy:.3f} < required {bounds.min_accuracy:.3f}"
            )
        if self.decided_fraction < bounds.min_decided_fraction:
            problems.append(
                f"decided fraction {self.decided_fraction:.3f} < required "
                f"{bounds.min_decided_fraction:.3f}"
            )
        if np.isfinite(bounds.max_median_ttd) and not (
            np.isnan(self.median_ttd) or self.median_ttd <= bounds.max_median_ttd
        ):
            problems.append(
                f"median TTD {self.median_ttd:.4f}s > allowed {bounds.max_median_ttd:.4f}s"
            )
        return problems

    def to_dict(self) -> dict:
        """JSON-compatible form (NaN TTD becomes ``None``)."""
        data = asdict(self)
        if np.isnan(data["median_ttd"]):
            data["median_ttd"] = None
        return data


def prepare_system(
    scenario: ScenarioSpec, experiment: ExperimentSpec | None = None
) -> tuple[object, object, ExperimentSpec]:
    """Train + compile the system the scenario attacks, on clean traffic.

    ``experiment`` overrides the model/system settings; its dataset and seed
    are pinned to the scenario's so the deployment matches the traffic
    distribution it was trained for.
    """
    base = experiment if experiment is not None else ExperimentSpec()
    spec = base.replace(dataset=scenario.dataset, seed=scenario.seed)
    pipeline = Experiment(spec)
    model = pipeline.train()
    rules = pipeline.compile()
    return model, rules, spec


def replay_workload(program, workload: ScenarioWorkload) -> None:
    """Replay a workload through ``program`` (verdicts land on the program).

    One batched replay; an evasion workload's flows advertise their
    ``advertised`` sizes instead of their packet counts, shifting the window
    boundaries the subtrees observe.
    """
    vz.replay_arrays(program, workload.flows, soa=workload.soa, sizes=workload.advertised)


def run_scenario(
    scenario: ScenarioSpec,
    *,
    flow_slots: int = 1024,
    traffic_flows: int | None = None,
    experiment: ExperimentSpec | None = None,
    prepared: tuple | None = None,
) -> ScenarioResult:
    """Run one scenario end to end and measure the degradation.

    ``prepared`` short-circuits training with an existing
    ``(model, rules, exp_spec)`` triple (what :func:`sweep_occupancy` uses
    to share one deployment across pressure points).
    """
    scenario.validate()
    model, rules, exp_spec = (
        prepared if prepared is not None else prepare_system(scenario, experiment)
    )
    started = time.perf_counter()
    with build_workload(scenario, traffic_flows=traffic_flows) as workload:
        program = get_system(exp_spec.system).build_program(
            model, rules, exp_spec.replace(scenario=scenario, flow_slots=flow_slots)
        )
        replay_started = time.perf_counter()
        replay_workload(program, workload)
        replay_s = time.perf_counter() - replay_started
        program.check_accounting(workload.n_packets)

        # Legitimate flows are flow ids 0 .. n_legit - 1, the source's first
        # n_legit rows: only they are scored.
        n_legit, verdicts = workload.n_legit, program.verdicts
        report = score_verdicts(
            verdicts, workload.soa.flow_ids[:n_legit], workload.soa.labels[:n_legit]
        )
        ttd = verdicts.time_to_detection()[verdicts.flow_ids < n_legit]
        median_ttd = float(np.median(ttd)) if ttd.size else float("nan")
        stats = program.eviction_stats()
        estimate = (
            workload.source.materialised_bytes_estimate()
            if workload.source is not None
            else None
        )
        result = ScenarioResult(
            scenario=scenario.name,
            flow_slots=flow_slots,
            occupancy=workload.n_flows / flow_slots,
            n_flows=workload.n_flows,
            n_legit=workload.n_legit,
            n_packets=workload.n_packets,
            accuracy=report.accuracy,
            f1_score=report.f1_score,
            decided_fraction=report.n_samples / max(workload.n_legit, 1),
            median_ttd=median_ttd,
            evictions=int(stats["evictions"]),
            eviction_policy=stats["policy"],
            streamed=workload.streamed,
            peak_rss_bytes=peak_rss_bytes(),
            materialised_estimate=estimate,
            elapsed_s=time.perf_counter() - started,
            replay_s=replay_s,
            replay_stats=program.replay_stats,
        )
    return result


def sweep_occupancy(
    scenario: ScenarioSpec,
    *,
    flow_slots: int = 256,
    factors: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0),
    experiment: ExperimentSpec | None = None,
    prepared: tuple | None = None,
) -> list[ScenarioResult]:
    """Replay the scenario as the flow population sweeps the slot capacity.

    Each factor targets ``factor × flow_slots`` total flows; the legitimate
    flow count is scaled to hit the target after any flood layers'
    (fixed-size) contribution.  One model is trained and shared across all
    points, so the sweep isolates the *table pressure* axis; ``prepared``
    hands in an existing ``(model, rules, exp_spec)`` deployment instead, as
    for :func:`run_scenario`.
    """
    scenario.validate()
    profile = get_profile(scenario.dataset)
    flood_total = sum(
        int(layer_params(layer)["flows"])
        for layer in scenario.layers
        if layer.kind == "ddos-flood"
    )
    if prepared is None:
        prepared = prepare_system(scenario, experiment)
    results = []
    for factor in factors:
        target_total = max(int(round(factor * flow_slots)), 1)
        legit = max(target_total - flood_total, profile.n_classes)
        results.append(
            run_scenario(
                scenario,
                flow_slots=flow_slots,
                traffic_flows=legit,
                prepared=prepared,
            )
        )
    return results


__all__ = [
    "ScenarioResult",
    "peak_rss_bytes",
    "prepare_system",
    "replay_workload",
    "run_scenario",
    "sweep_occupancy",
]
