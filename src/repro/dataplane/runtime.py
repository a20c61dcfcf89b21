"""Packet-level replay of a flow dataset through a data-plane program.

The runtime interleaves the packets of many concurrent flows in timestamp
order (as a switch would observe them), feeds them through a
:class:`SpliDTDataPlane` — the one program every system deploys; a top-k
baseline's is a one-partition model — and collects per-flow
verdicts, classification accuracy against ground truth, time-to-detection
distributions and recirculation statistics.  Scoring verdicts against
ground truth (:func:`score_verdicts`) and finding a reader's new verdicts
(:func:`fresh_rows`) live here, once, for every replay and serving session.

:func:`replay_dataset` runs :func:`repro.dataplane.vectorized.replay_arrays`:
packets live in structure-of-arrays NumPy columns, flows alone in their
register slots advance in lock-step window rounds
(:func:`~repro.dataplane.vectorized.close_ready_windows`), contended register
slots replay on the slot-stream plane, and per-packet operator updates
collapse into segment reductions.  Its verdicts, labels, time-to-detection
values and recirculation statistics are bit-identical to the per-packet
interpreter's (:func:`repro.dataplane.oracle.replay_dataset`, asserted by
``tests/test_parity_fuzz.py``).

When the replay needs no flow truncation, the dataset's memoised
``packet_arrays()`` (including its cached derived columns) is reused across
replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.evaluation import ClassificationReport
from repro.dataplane import vectorized as vz
from repro.dataplane.verdicts import Verdicts
from repro.datasets.flows import FlowDataset, LazyFlowList, PacketArrays


@dataclass
class ReplayResult:
    """Outcome of replaying a dataset through a data-plane program.

    Verdicts are keyed (and iterated) by flow id in ascending order, so the
    arrays returned by :meth:`time_to_detection` and
    :meth:`recirculations_per_flow` are comparable across replays.  The
    ground truth is the replayed source's ``truth_ids`` / ``truth_labels``
    columns (one row per flow, in source order).
    """

    verdicts: Verdicts
    truth_ids: np.ndarray
    truth_labels: np.ndarray
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


def truth_index(verdict_ids: np.ndarray, flow_ids) -> np.ndarray:
    """Each verdict's row in the source's ``flow_ids`` column, ``-1`` where it has none.

    One sorted lookup over the columns; of repeated source ids the last row
    wins.  ``flow_ids`` may be the packet source itself (a ``PacketArrays``):
    the sort order of its column is then kept on its ``derived`` dict, so a
    serving session's repeated reads cost O(verdicts), not a sort of the
    source.
    """
    derived = getattr(flow_ids, "derived", None)
    if hasattr(flow_ids, "flow_ids"):
        flow_ids = flow_ids.flow_ids
    flow_ids = np.asarray(flow_ids, dtype=np.int64)
    if not flow_ids.size:
        return np.full(len(verdict_ids), -1, dtype=np.intp)
    kept = None if derived is None else derived.get("flow_id_order")
    if kept is None:
        order = np.argsort(flow_ids, kind="stable")
        kept = (order, flow_ids[order])
        if derived is not None:
            derived["flow_id_order"] = kept
    order, ordered = kept
    at = np.searchsorted(ordered, verdict_ids, side="right") - 1
    index = order[np.maximum(at, 0)]
    return np.where((at >= 0) & (flow_ids[index] == verdict_ids), index, -1)


def score_verdicts(
    verdicts: Verdicts,
    flow_ids: np.ndarray,
    labels: np.ndarray,
    subset=None,
) -> ClassificationReport:
    """Score verdicts against the ground truth of the source they decided.

    ``flow_ids`` / ``labels`` are the source's ground-truth columns (or
    ``flow_ids`` the source itself: :func:`truth_index`); a verdict of a flow
    id they do not hold is not scored, nor, when ``subset`` (flow ids) is
    given, one outside it.  The one scorer of every replay, serving
    session and scenario: it reads the verdict columns, builds no per-flow
    object, and is empty (all zeros) when nothing is scored.  The matching
    TTD summary is ``summarize_ttd(verdicts.time_to_detection())``.
    """
    index = truth_index(verdicts.flow_ids, flow_ids)
    scored = index >= 0
    if subset is not None:
        scored &= np.isin(verdicts.flow_ids, np.asarray(subset, dtype=np.int64))
    if not scored.any():
        return ClassificationReport(0.0, 0.0, 0.0, 0.0, 0, np.zeros((0, 0)))
    return ClassificationReport.from_predictions(
        np.asarray(labels)[index[scored]].astype(np.intp),
        verdicts.labels[scored].astype(np.intp),
    )


def fresh_rows(verdicts: Verdicts, seen: np.ndarray) -> np.ndarray:
    """Rows of ``verdicts`` whose flow id is not in ``seen`` (ascending), in flow-id order.

    The one rule by which the serving loop's readers find new verdicts: a
    reader keeps the flow ids it has read — ``verdicts.flow_ids`` of its last
    snapshot, as snapshots only grow — and reads only these rows.
    """
    ids = verdicts.flow_ids
    if not len(seen):
        return np.arange(ids.size)
    at = np.searchsorted(seen, ids).clip(max=len(seen) - 1)
    return np.flatnonzero(seen[at] != ids)


def build_replay_result(
    verdicts: Verdicts,
    flow_ids: np.ndarray,
    labels: np.ndarray,
    recirculation: dict[str, float] | None = None,
) -> ReplayResult:
    """Score verdicts (:func:`score_verdicts`) and bundle a :class:`ReplayResult`.

    Shared by :func:`replay_dataset` and the serving engines' ``close()`` so
    batch and streaming replays produce structurally identical results.
    ``flow_ids`` / ``labels`` are the source's ground-truth columns.
    """
    flow_ids = np.asarray(flow_ids, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    return ReplayResult(
        verdicts=verdicts,
        truth_ids=flow_ids,
        truth_labels=labels,
        report=score_verdicts(verdicts, flow_ids, labels),
        recirculation=dict(recirculation or {}),
    )


def prepare_replay_flows(
    dataset: FlowDataset, *, max_flows: int | None = None
) -> LazyFlowList:
    """The flows a replay (or serving session) observes, over their columns.

    Applies the ``max_flows`` truncation.  Used by :func:`replay_dataset`
    and by ``Experiment.packet_stream`` so batch replay and ``python -m
    repro serve`` stream exactly the same traffic.  Works on the dataset's
    columns: untouched, they are the dataset's own (with the derived
    columns cached on them); truncated, a gathered copy.
    """
    soa = dataset.packet_arrays()
    if max_flows is not None:
        kept = np.arange(soa.n_flows)[:max_flows]
        if kept.size < soa.n_flows:
            soa = soa.take(kept)
    return LazyFlowList(soa, dataset.class_names)


def replay_dataset(
    program, dataset: FlowDataset, *, max_flows: int | None = None
) -> ReplayResult:
    """Replay a flow dataset through ``program`` and score the verdicts.

    Args:
        program: A fresh ``SpliDTDataPlane`` (what every system's
            ``build_program`` returns).
        dataset: The labelled flows to replay.
        max_flows: Optionally replay only the first ``max_flows`` flows.

    Example::

        >>> from repro.dataplane import SpliDTDataPlane, replay_dataset
        >>> program = SpliDTDataPlane(model, rules, flow_slots=8192)
        >>> result = replay_dataset(program, dataset)
        >>> result.report.f1_score  # doctest: +SKIP
        0.87
    """
    flows = prepare_replay_flows(dataset, max_flows=max_flows)
    soa = flows.soa
    vz.replay_arrays(program, flows, soa=soa)
    return build_replay_result(
        program.verdicts, soa.flow_ids, soa.labels, program.recirculation_stats()
    )
