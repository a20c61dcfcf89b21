"""The online control loop: monitor the serve path, retrain, hot-swap.

State machine (see ``docs/serving.md``)::

    monitoring --drift alarm--> retraining --buffer full--> swap
        ^                                                     |
        +------ cooldown (in-flight old-epoch verdicts) <-----+

The controller rides alongside a live :class:`repro.serve.InferenceEngine`:
the serving loop calls :meth:`OnlineController.observe_chunk` after each
``ingest``, the controller diffs the engine's verdict dict against what it
has already seen, grades each new verdict against the flow's ground-truth
label, and drives the drift monitor.  On an alarm it buffers the next
``min_retrain_flows`` labelled flows, retrains on them with the offline
pipeline — :func:`~repro.datasets.materialize.materialize`,
:func:`~repro.core.partitioned_tree.train_partitioned_tree` (Algorithm 1),
:func:`~repro.core.range_marking.generate_rules` — and fires
:meth:`~repro.serve.InferenceEngine.swap_model`.  The swap itself
guarantees that flows already in flight finish on the old model bit-exactly
(see ``tests/test_serve_swap.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.config import SpliDTConfig
from repro.core.partitioned_tree import train_partitioned_tree
from repro.core.range_marking import generate_rules, stacked_training_matrix
from repro.dataplane.splidt_program import SpliDTDataPlane
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


class OnlineProgramFactory:
    """Picklable factory building the refreshed data-plane program.

    Module-level class (not a lambda) so ``swap_model`` works on the
    process-sharded engine under every start method.
    """

    def __init__(self, model, rules, flow_slots: int) -> None:
        self.model = model
        self.rules = rules
        self.flow_slots = flow_slots

    def __call__(self) -> SpliDTDataPlane:
        return SpliDTDataPlane(self.model, self.rules, flow_slots=self.flow_slots)


class OnlineController:
    """Drift detection, retraining and hot swap for one session.

    Args:
        config: The online-loop knobs (validated on construction).
        model_config: Shape of the deployed model; the refreshed model keeps
            it so the swap stays table-compatible.
        flow_slots: Register table size of the deployed program.
        class_names: Class names of the dataset being served (their count is
            the refreshed model's label space).

    Example::

        >>> controller = OnlineController(config=..., model_config=...,
        ...                               flow_slots=8192,
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
        flow_slots: int,
        class_names,
    ) -> None:
        config.validate()
        self.config = config
        self.model_config = model_config
        self.flow_slots = int(flow_slots)
        self.class_names = list(class_names)
        self.monitor = DriftMonitor(config)
        self.state = MONITORING
        self.events: list[OnlineEvent] = []
        self.swap_events: list = []
        self._flow_by_id: dict[int, object] = {}
        self._seen: set[int] = set()
        self._buffer: OrderedDict[int, object] = OrderedDict()
        self._stale: set[int] = set()
        self._cooldown_left = 0

    # ------------------------------------------------------------------
    # Serve-path hooks
    # ------------------------------------------------------------------
    @property
    def n_verdicts(self) -> int:
        """Verdicts graded so far."""
        return len(self._seen)

    def bind_flows(self, flows) -> None:
        """Register the stream's flow table (ground-truth labels by flow id)."""
        for flow in flows:
            self._flow_by_id.setdefault(flow.flow_id, flow)

    def observe_chunk(self, engine, chunk):
        """Absorb one ingested chunk: bind its flow table, then poll.

        Returns the :class:`~repro.serve.engine.SwapEvent` if this poll
        fired a swap, else ``None``.
        """
        if len(self._flow_by_id) != len(chunk.flows):
            self.bind_flows(chunk.flows)
        return self.poll(engine)

    def poll(self, engine, *, allow_swap: bool = True):
        """Grade the engine's new verdicts and advance the state machine.

        New verdicts are processed in ``(decided_at, flow_id)`` order so the
        controller's decisions depend on the stream, not on which engine
        flushed first.  ``allow_swap=False`` (the post-drain poll) grades
        verdicts but never calls ``swap_model`` — a drained engine rejects
        swaps by contract.
        """
        verdicts = engine.verdicts()
        fresh = [verdicts[fid] for fid in verdicts if fid not in self._seen]
        if not fresh:
            return None
        fresh.sort(key=lambda vd: (vd.decided_at, vd.flow_id))
        swap_event = None
        for verdict in fresh:
            self._seen.add(verdict.flow_id)
            flow = self._flow_by_id.get(verdict.flow_id)
            if flow is None:
                continue
            y_true, y_pred = flow.label, verdict.label
            if verdict.flow_id in self._stale:
                # The flow was in flight at the last swap, so its verdict
                # comes from the *old* epoch — it says nothing about the
                # refreshed model and must not re-trigger the detector.
                self._stale.discard(verdict.flow_id)
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
            self.monitor.windowed.update(int(y_true) != int(y_pred))
            self._buffer[verdict.flow_id] = flow
            while len(self._buffer) > self.config.retrain_window:
                self._buffer.popitem(last=False)
            if allow_swap and len(self._buffer) >= self.config.min_retrain_flows:
                swap_event = self._retrain_and_swap(engine)
        return swap_event

    # ------------------------------------------------------------------
    # Retrain + swap
    # ------------------------------------------------------------------
    def _retrain_and_swap(self, engine):
        buffered = list(self._buffer.values())
        n_partitions = self.model_config.n_partitions
        windowed = materialize(
            FlowDataset("online-retrain", "", buffered, self.class_names),
            n_partitions,
        )
        model = train_partitioned_tree(windowed, self.model_config, split="all")
        rules = generate_rules(
            model, stacked_training_matrix(windowed, n_partitions, split="all")
        )
        event = engine.swap_model(
            OnlineProgramFactory(model, rules, self.flow_slots)
        )
        self._stale |= set(event.started_flow_ids) - self._seen
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
            "accuracy": round(self.monitor.report.accuracy, 6),
            "drift_alarms": sum(1 for e in self.events if e.kind == "drift"),
            "swaps": len(self.swap_events),
            "swap_latency_s": [round(e.latency_s, 6) for e in self.swap_events],
        }
