"""The online control loop: monitor the serve path, retrain, hot-swap.

State machine (see ``docs/serving.md``)::

    monitoring --drift alarm--> retraining --buffer full--> swap
        ^                                                     |
        +------ cooldown (in-flight old-epoch verdicts) <-----+

The controller rides alongside a live :class:`repro.serve.InferenceEngine`:
the serving loop calls :meth:`OnlineController.observe_chunk` after each
``ingest``, the controller finds the engine's new verdicts with one mask
over the snapshot's flow-id column
(:func:`~repro.dataplane.runtime.fresh_rows`), grades each against its
flow's label in the source's columns, and drives the drift monitor.  On an
alarm it buffers the next ``min_retrain_flows`` labelled flows, retrains on
them with the offline pipeline —
:func:`~repro.datasets.materialize.materialize`,
:func:`~repro.core.partitioned_tree.train_partitioned_tree` (Algorithm 1),
:func:`~repro.core.range_marking.generate_rules` — and fires
:meth:`~repro.serve.InferenceEngine.swap_model`.  The swap itself
guarantees that flows already in flight finish on the old model bit-exactly
(see ``tests/test_serve_swap.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.config import SpliDTConfig
from repro.core.partitioned_tree import train_partitioned_tree
from repro.core.range_marking import generate_rules, stacked_training_matrix
from repro.dataplane.runtime import fresh_rows, truth_index
from repro.datasets.flows import FlowDataset
from repro.datasets.materialize import materialize
from repro.online.config import OnlineConfig
from repro.online.drift import DriftMonitor

#: Controller states.
MONITORING, RETRAINING, COOLDOWN = "monitoring", "retraining", "cooldown"


@dataclass
class OnlineEvent:
    """One observable transition of the online loop (for logs and tests)."""

    kind: str
    n_verdicts: int
    error_rate: float
    detail: dict = field(default_factory=dict)


class OnlineController:
    """Drift detection, retraining and hot swap for one session.

    Args:
        config: The online-loop knobs (validated on construction).
        model_config: Shape of the deployed model; the refreshed model keeps
            it so the swap stays table-compatible.
        factory: The deployed :class:`~repro.pipeline.systems.ProgramFactory`.
            A refreshed model is built through its system and spec, so it
            runs on the same target, register file and eviction policy.
        class_names: Class names of the dataset being served (their count is
            the refreshed model's label space).

    Example::

        >>> controller = OnlineController(config=..., model_config=...,
        ...                               factory=experiment.system.program_factory(
        ...                                   model, rules, experiment.spec),
        ...                               class_names=dataset.class_names)
        >>> for chunk in iter_packet_chunks(dataset.flows, 64):
        ...     engine.ingest(chunk)
        ...     controller.observe_chunk(engine, chunk)
    """

    def __init__(
        self,
        *,
        config: OnlineConfig,
        model_config: SpliDTConfig,
        factory,
        class_names,
    ) -> None:
        config.validate()
        self.config = config
        self.model_config = model_config
        self.factory = factory
        self.class_names = list(class_names)
        self.monitor = DriftMonitor(config)
        self.state = MONITORING
        self.events: list[OnlineEvent] = []
        self.swap_events: list = []
        #: The last chunk observed: its source's ground-truth columns, and
        #: its flows for the retrain buffer.
        self._chunk = None
        #: Flow ids of the verdicts graded so far (ascending).
        self._seen = np.empty(0, dtype=np.int64)
        self._n_graded = 0
        self._buffer: OrderedDict[int, object] = OrderedDict()
        self._stale: set[int] = set()
        self._cooldown_left = 0

    # ------------------------------------------------------------------
    # Serve-path hooks
    # ------------------------------------------------------------------
    @property
    def n_verdicts(self) -> int:
        """Verdicts graded so far."""
        return self._n_graded

    def observe_chunk(self, engine, chunk):
        """Absorb one ingested chunk: take its source as ground truth, then poll.

        Returns the :class:`~repro.serve.engine.SwapEvent` if this poll
        fired a swap, else ``None``.
        """
        self._chunk = chunk
        return self.poll(engine)

    def poll(self, engine, *, allow_swap: bool = True):
        """Grade the engine's new verdicts and advance the state machine.

        New verdicts are processed in ``(decided_at, flow_id)`` order so the
        controller's decisions depend on the stream, not on which engine
        flushed first.  A verdict whose flow the observed source does not
        hold has no ground truth: it counts as graded and is skipped.
        ``allow_swap=False`` (the post-drain poll) grades verdicts but never
        calls ``swap_model`` — a drained engine rejects swaps by contract.
        """
        verdicts = engine.verdicts()
        if verdicts.flow_ids is self._seen:
            return None  # the snapshot last read: nothing new
        fresh = fresh_rows(verdicts, self._seen)
        if not fresh.size:
            self._seen = verdicts.flow_ids  # the same flow ids, read once
            return None
        # Rows are in flow-id order, so a stable sort orders ties by flow id.
        fresh = fresh[np.argsort(verdicts.decided_at[fresh], kind="stable")]
        fresh_ids = verdicts.flow_ids[fresh]
        source = self._chunk.soa if self._chunk is not None else None
        truth = truth_index(fresh_ids, source if source is not None else ())
        seen, self._seen = self._seen, verdicts.flow_ids
        swap_event = None
        for position, (flow_id, y_pred, row) in enumerate(
            zip(fresh_ids.tolist(), verdicts.labels[fresh].tolist(), truth.tolist())
        ):
            self._n_graded += 1
            if row < 0:
                continue
            y_true = int(source.labels[row])
            if flow_id in self._stale:
                # The flow was in flight at the last swap, so its verdict
                # comes from the *old* epoch — it says nothing about the
                # refreshed model and must not re-trigger the detector.
                self._stale.discard(flow_id)
                continue
            if self.state == COOLDOWN:
                self._cooldown_left -= 1
                if self._cooldown_left <= 0:
                    self.monitor.reset()
                    self.state = MONITORING
                continue
            if self.state == MONITORING:
                if self.monitor.observe(y_true, y_pred):
                    self.state = RETRAINING
                    self._buffer.clear()
                    self.events.append(
                        OnlineEvent(
                            kind="drift",
                            n_verdicts=self.n_verdicts,
                            error_rate=self.monitor.error_rate,
                        )
                    )
                continue
            # RETRAINING: every labelled post-alarm flow feeds the buffer.
            self.monitor.windowed.update(y_true != y_pred)
            self._buffer[flow_id] = self._chunk.flows[row]
            while len(self._buffer) > self.config.retrain_window:
                self._buffer.popitem(last=False)
            if allow_swap and len(self._buffer) >= self.config.min_retrain_flows:
                graded = np.concatenate((seen, fresh_ids[: position + 1]))
                swap_event = self._retrain_and_swap(engine, graded)
        return swap_event

    # ------------------------------------------------------------------
    # Retrain + swap
    # ------------------------------------------------------------------
    def _retrain_and_swap(self, engine, graded: np.ndarray):
        """Retrain on the buffer and swap; ``graded`` holds the flow ids graded so far."""
        buffered = list(self._buffer.values())
        n_partitions = self.model_config.n_partitions
        windowed = materialize(
            FlowDataset("online-retrain", "", buffered, self.class_names),
            n_partitions,
        )
        # Every buffered flow trains, so every one fits the precision view.
        windowed = replace(windowed, train_indices=np.arange(windowed.n_flows)).with_precision(
            self.model_config.bit_width
        )
        model = train_partitioned_tree(windowed, self.model_config, split="all")
        rules = generate_rules(
            model, stacked_training_matrix(windowed, n_partitions, split="all")
        )
        event = engine.swap_model(
            self.factory.system.program_factory(model, rules, self.factory.spec)
        )
        self._stale |= set(event.started_flow_ids) - set(graded.tolist())
        self.swap_events.append(event)
        self.events.append(
            OnlineEvent(
                kind="swap",
                n_verdicts=self.n_verdicts,
                error_rate=self.monitor.error_rate,
                detail={
                    "epoch": event.epoch,
                    "latency_s": event.latency_s,
                    "buffered_packets": event.buffered_packets,
                    "pinned_flows": event.pinned_flows,
                    "retrain_flows": len(buffered),
                },
            )
        )
        self._buffer.clear()
        self.state = COOLDOWN
        self._cooldown_left = self.config.cooldown_flows
        if self._cooldown_left <= 0:
            self.monitor.reset()
            self.state = MONITORING
        return event

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Session summary (mirrors what ``serve --online`` prints)."""
        return {
            "state": self.state,
            "verdicts": self.n_verdicts,
            "error_rate": round(self.monitor.error_rate, 6),
            "accuracy": round(self.monitor.accuracy, 6),
            "drift_alarms": sum(1 for e in self.events if e.kind == "drift"),
            "swaps": len(self.swap_events),
            "swap_latency_s": [round(e.latency_s, 6) for e in self.swap_events],
        }
