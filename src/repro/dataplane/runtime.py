"""Packet-level replay of a flow dataset through a data-plane program.

The runtime interleaves the packets of many concurrent flows in timestamp
order (as a switch would observe them), feeds them through a
:class:`SpliDTDataPlane` — the one program every system deploys; a top-k
baseline's is a one-partition model — and collects per-flow
verdicts, classification accuracy against ground truth, time-to-detection
distributions and recirculation statistics.

The ``engine=`` parameter selects the execution strategy:

* ``"reference"`` — :class:`~repro.serve.StreamingEngine`, the per-packet
  interpreter loop: the whole dataset is ingested as one chunk and drained.
  Every packet becomes a PHV and traverses ``process_packet``.  Slow, but it
  is the semantics oracle the batched engine is verified against.
* ``"vectorized"`` — :func:`repro.dataplane.vectorized.replay_arrays` called
  directly: packets live in structure-of-arrays NumPy columns, flows advance
  in lock-step window rounds over the preallocated
  :class:`~repro.dataplane.vectorized.ReplayWorkspace`, and per-packet
  operator updates collapse into segment reductions.  Produces bit-identical
  verdicts, labels, time-to-detection values and recirculation statistics
  (asserted by ``tests/test_parity_fuzz.py``); this is what the throughput
  benchmarks measure.

Both engines share the global packet interleave computed once by
:class:`~repro.datasets.flows.PacketArrays` instead of re-sorting per call;
when the replay needs no flow truncation or jitter, the dataset's memoised
``packet_arrays()`` (including its cached derived columns) is reused across
replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.evaluation import ClassificationReport
from repro.dataplane.verdicts import Verdicts
from repro.datasets.flows import Flow, FlowDataset, PacketArrays

#: Engines accepted by :func:`replay_dataset`.
REPLAY_ENGINES = ("reference", "vectorized")


@dataclass
class ReplayResult:
    """Outcome of replaying a dataset through a data-plane program.

    Verdicts are keyed (and iterated) by flow id in ascending order, so the
    arrays returned by :meth:`time_to_detection` and
    :meth:`recirculations_per_flow` are comparable across replay engines.
    """

    verdicts: Verdicts
    labels: dict[int, int]
    report: ClassificationReport
    recirculation: dict[str, float] = field(default_factory=dict)

    def time_to_detection(self) -> np.ndarray:
        """Per-flow time-to-detection values (seconds) for decided flows.

        Example::

            >>> result = replay_dataset(program, dataset)
            >>> result.time_to_detection().mean()  # doctest: +SKIP
            0.041
        """
        return self.verdicts.time_to_detection()

    def recirculations_per_flow(self) -> np.ndarray:
        """Per-flow recirculation counts."""
        return self.verdicts.n_recirculations.astype(float)


def build_replay_result(
    verdicts: Verdicts,
    labels: dict[int, int],
    recirculation: dict[str, float] | None = None,
) -> ReplayResult:
    """Score verdicts against ground truth and bundle a :class:`ReplayResult`.

    Shared by :func:`replay_dataset` and the serving engines' ``close()`` so
    batch and streaming replays produce structurally identical results.
    Scores from the verdict columns: no per-flow object is built.
    """
    flow_ids = verdicts.flow_ids.tolist()
    scored = [row for row, flow_id in enumerate(flow_ids) if flow_id in labels]
    y_true = np.array([labels[flow_ids[row]] for row in scored], dtype=np.intp)
    y_pred = verdicts.labels[scored].astype(np.intp)
    if scored:
        report = ClassificationReport.from_predictions(y_true, y_pred)
    else:
        report = ClassificationReport(0.0, 0.0, 0.0, 0.0, 0, np.zeros((0, 0)))
    return ReplayResult(
        verdicts=verdicts,
        labels=dict(labels),
        report=report,
        recirculation=dict(recirculation or {}),
    )


def prepare_replay_flows(
    dataset: FlowDataset,
    *,
    max_flows: int | None = None,
    jitter_starts: bool = False,
    seed: int = 0,
) -> list[Flow]:
    """The flow list a replay (or serving session) observes.

    Applies the ``max_flows`` truncation and, when ``jitter_starts`` is set,
    shifts each flow's start time randomly within [0, 10) s so flows overlap
    (models concurrency).  Used by :func:`replay_dataset` and by
    ``Experiment.packet_stream`` so batch replay and ``python -m repro
    serve`` stream exactly the same traffic.
    """
    flows = list(dataset.flows) if max_flows is None else dataset.flows[:max_flows]
    if not jitter_starts:
        return flows
    rng = np.random.default_rng(seed)
    shifted = []
    for flow in flows:
        offset = float(rng.uniform(0.0, 10.0))
        moved = [
            type(p)(
                timestamp=p.timestamp + offset,
                size=p.size,
                flags=p.flags,
                direction=p.direction,
                payload=p.payload,
            )
            for p in flow.packets
        ]
        shifted.append(
            Flow(
                five_tuple=flow.five_tuple,
                packets=moved,
                label=flow.label,
                class_name=flow.class_name,
                flow_id=flow.flow_id,
            )
        )
    return shifted


def replay_dataset(
    program,
    dataset: FlowDataset,
    *,
    max_flows: int | None = None,
    jitter_starts: bool = False,
    seed: int = 0,
    engine: str = "reference",
) -> ReplayResult:
    """Replay a flow dataset through ``program`` and score the verdicts.

    Args:
        program: A fresh ``SpliDTDataPlane`` (what every system's
            ``build_program`` returns).
        dataset: The labelled flows to replay.
        max_flows: Optionally replay only the first ``max_flows`` flows.
        jitter_starts: Shift each flow's start time randomly within [0, 10) s
            so flows overlap (models concurrency).
        seed: Seed for the jitter.
        engine: ``"reference"`` for the per-packet interpreter loop or
            ``"vectorized"`` for the batched window plane; both produce
            identical results (see the module docstring for the contract).

    Example::

        >>> from repro.dataplane import SpliDTDataPlane, replay_dataset
        >>> program = SpliDTDataPlane(model, rules, flow_slots=8192)
        >>> result = replay_dataset(program, dataset, engine="vectorized")
        >>> result.report.f1_score  # doctest: +SKIP
        0.87
    """
    if engine not in REPLAY_ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {REPLAY_ENGINES}")

    flows = prepare_replay_flows(
        dataset, max_flows=max_flows, jitter_starts=jitter_starts, seed=seed
    )
    if max_flows is None and not jitter_starts:
        # Same flow objects as the dataset: reuse its memoised SoA (and the
        # derived columns cached on it) across replays.
        soa = dataset.packet_arrays()
    else:
        soa = PacketArrays.from_flows(flows)

    if engine == "vectorized":
        from repro.dataplane import vectorized as vz

        vz.replay_arrays(program, flows, soa=soa)
        labels = {flow.flow_id: flow.label for flow in flows}
        return build_replay_result(program.verdicts, labels, program.recirculation_stats())

    # Deferred import: repro.serve sits on top of this module.
    from repro.datasets.streams import PacketChunk
    from repro.serve import StreamingEngine

    serving = StreamingEngine(program).open()
    serving.ingest(PacketChunk(soa=soa, flows=flows, positions=soa.interleave_order))
    serving.drain()
    return serving.close()


def ttd_ecdf(ttd_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of time-to-detection values (Figure 10).

    Example::

        >>> values, probabilities = ttd_ecdf(result.time_to_detection())
        >>> bool(probabilities[-1] == 1.0) if values.size else True
        True
    """
    values = np.sort(np.asarray(ttd_values, dtype=float))
    if values.size == 0:
        return np.array([]), np.array([])
    probabilities = np.arange(1, values.size + 1) / values.size
    return values, probabilities
