"""Span tracing of ``repro`` from the outside.

The program under test carries no timers of its own yet, so the traced run
wraps a declared table of layer-boundary callables *at run time*: each entry
of :data:`SPAN_TABLE` names a callable by dotted path, and
:meth:`Tracer.install` rebinds it (everywhere ``repro`` holds a reference to
it) to a wrapper that records one span per call — name, start, end, parent.
A layer's self time is its spans' duration minus what their child spans
cover.  Spans stay in memory until the run ends.

Only callables invoked at most ~10K times per run are wrapped (never
``process_packet``), which keeps the overhead in the low percents; the
end-to-end numbers always come from a run where nothing is wrapped at all.

A path that no longer resolves is not an error: later changes may delete or
rename private functions.  The span is listed in :attr:`Tracer.unresolved`
and every metric derived from it reads ``None``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

#: Root span the harness opens around every timed unit.
UNIT_SPAN = "unit"

#: Modules whose ``from x import fn`` bindings are rebound with the wrapper.
_REBIND_PREFIXES = ("repro.", f"{__package__}.")


def _scalar_counts(args, kwargs) -> dict[str, int]:
    """Flows and packets handed to ``_replay_scalar(program, flows, soa, mask, prefix)``."""
    soa, mask = args[2], args[3]
    prefix = args[4] if len(args) > 4 else kwargs.get("prefix_counts")
    per_flow = soa.n_packets_per_flow if prefix is None else prefix
    return {
        "dataplane.scalar_flows": int(mask.sum()),
        "dataplane.scalar_packets": int(per_flow[mask].sum()),
    }


def _flush_counts(args, kwargs) -> dict[str, int]:
    """Flows in one ``MicroBatchEngine._flush(self, indices)``."""
    return {"serve.flush_flows": int(args[1].size)}


def _classify_counts(args, kwargs) -> dict[str, int]:
    """Rows in one ``RuleSet.classify_batch(self, sid, feature_matrix)``."""
    return {"core.classify_batch_rows": int(args[2].shape[0])}


@dataclass(frozen=True)
class SpanTarget:
    """One wrapped callable: the span it records under and where it lives.

    ``path`` is ``"package.module:function"`` or
    ``"package.module:Class.method"``.  ``counters`` optionally derives work
    counts from the call's arguments, accumulated next to the span.
    """

    span: str
    path: str
    counters: Callable[[tuple, dict], dict[str, int]] | None = None


#: Layer boundaries of ``repro``, one line per wrapped callable.  Several
#: targets may feed one span (two generators, one ``datasets.generate``).
SPAN_TABLE: tuple[SpanTarget, ...] = (
    SpanTarget("datasets.generate", "repro.scenarios.traffic:build_workload"),
    SpanTarget("datasets.generate", "repro.datasets.registry:load_dataset"),
    SpanTarget(
        "datasets.generate", "repro.datasets.generators:SyntheticTrafficGenerator.generate"
    ),
    SpanTarget("datasets.soa_build", "repro.datasets.flows:PacketArrays.from_flows"),
    SpanTarget("features.materialize", "repro.datasets.materialize:materialize"),
    SpanTarget("ml.tree_fit", "repro.ml.tree:DecisionTreeClassifier.fit"),
    SpanTarget("core.train", "repro.core.partitioned_tree:train_partitioned_tree"),
    SpanTarget("core.rulegen", "repro.core.range_marking:generate_rules"),
    SpanTarget("core.resources", "repro.core.resources:estimate_splidt_resources"),
    SpanTarget("core.evaluate", "repro.core.dse:evaluate_configuration"),
    SpanTarget("core.lut_compile", "repro.core.rule_lut:compile_lookup"),
    SpanTarget(
        "core.classify_batch",
        "repro.core.range_marking:RuleSet.classify_batch",
        _classify_counts,
    ),
    SpanTarget("bayesopt.ask", "repro.bayesopt.optimizer:BayesianOptimizer.ask"),
    SpanTarget("bayesopt.tell", "repro.bayesopt.optimizer:BayesianOptimizer.tell_many"),
    SpanTarget("pipeline.prepare", "repro.pipeline.experiment:Experiment.prepare"),
    SpanTarget("pipeline.train", "repro.pipeline.experiment:Experiment.train"),
    SpanTarget("pipeline.compile", "repro.pipeline.experiment:Experiment.compile"),
    SpanTarget(
        "dataplane.program_build",
        "repro.dataplane.splidt_program:SpliDTDataPlane.__init__",
    ),
    SpanTarget("dataplane.replay_arrays", "repro.dataplane.vectorized:replay_arrays"),
    SpanTarget("dataplane.split", "repro.dataplane.vectorized:_split_scalar_fast"),
    SpanTarget(
        "dataplane.scalar", "repro.dataplane.vectorized:_replay_scalar", _scalar_counts
    ),
    SpanTarget("dataplane.batched", "repro.dataplane.vectorized:_replay_splidt_batched"),
    SpanTarget("dataplane.window_fill", "repro.dataplane.vectorized:_WindowAggregator.fill"),
    SpanTarget(
        "dataplane.step_windows",
        "repro.dataplane.splidt_program:SpliDTDataPlane.step_windows",
    ),
    SpanTarget(
        "dataplane.begin_flows",
        "repro.dataplane.splidt_program:SpliDTDataPlane.begin_flows",
    ),
    SpanTarget(
        "dataplane.finalise",
        "repro.dataplane.splidt_program:SpliDTDataPlane.finalise_staged",
    ),
    SpanTarget("switch.slot_hash", "repro.switch.hashing:flow_slots"),
    SpanTarget("serve.open", "repro.serve.engine:InferenceEngine.open"),
    SpanTarget("serve.ingest", "repro.serve.engine:InferenceEngine.ingest"),
    SpanTarget("serve.drain", "repro.serve.engine:InferenceEngine.drain"),
    SpanTarget("serve.close", "repro.serve.engine:InferenceEngine.close"),
    SpanTarget("serve.eligible", "repro.serve.microbatch:MicroBatchEngine._eligible"),
    SpanTarget(
        "serve.flush", "repro.serve.microbatch:MicroBatchEngine._flush", _flush_counts
    ),
    SpanTarget("serve.route", "repro.serve.process_sharded:ProcessShardedEngine._ingest"),
    SpanTarget(
        "serve.ring_push", "repro.serve.process_sharded:ProcessShardedEngine._send_chunk"
    ),
)

#: Spans the harness records itself, around calls it makes into a layer.
HARNESS_SPANS = (UNIT_SPAN, "datasets.chunk_iter", "dataplane.result_build")


def ring_occupancy(engine) -> float:
    """Messages buffered in a sharded-mp engine's rings right now (else 0).

    The public ``stats()`` synchronises with every worker, which would empty
    the rings it is asked about, so the traced run reads the live counters:
    one more private name, kept here with the others.
    """
    live = getattr(engine, "_transport_stats", None)
    return live().get("ring_occupancy", 0.0) if live is not None else 0.0


def _resolve(path: str):
    """``(owner, attribute, raw)`` of a dotted path; raises if it is gone."""
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    # vars(), not getattr(): keeps classmethod/staticmethod wrappers intact
    # and refuses an attribute merely inherited from a base class.
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Records spans from wrapped callables and from ``with tracer.span(...)``.

    One tracer serves one workload run.  ``phase`` is stamped on every span
    (``"setup"`` until the harness starts the timed window, then
    ``"window"``), so set-up cost and per-unit cost of the same callable
    stay apart.  Only the thread that created the tracer records: the serve
    engines run helper threads whose calls would corrupt the parent stack.
    """

    def __init__(self, table: tuple[SpanTarget, ...] = SPAN_TABLE) -> None:
        self.table = table
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: ``[name_id, start, end, parent_index, phase]`` per span.
        self.spans: list[list] = []
        self.counters: dict[tuple[str, str], int] = defaultdict(int)
        self.counter_errors: set[str] = set()
        self.phase = "setup"
        self.active = False
        self.unresolved: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._thread = threading.get_ident()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self, name_id: int) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, time.perf_counter(), 0.0, parent, self.phase])
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A harness-side span; free when the tracer is not active."""
        if not self.active:
            yield
            return
        index = self._enter(self._name_id(name))
        try:
            yield
        finally:
            self._exit(index)

    def _wrap(self, fn, target: SpanTarget):
        name_id = self._name_id(target.span)
        counters = target.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            if counters is not None:
                try:
                    for key, amount in counters(args, kwargs).items():
                        self.counters[(self.phase, key)] += amount
                except Exception:  # signature drifted: the count is unknown
                    self.counter_errors.add(target.span)
            index = self._enter(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index)

        return traced

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every resolvable target; idempotent until :meth:`uninstall`."""
        if self.active:
            return
        resolved_spans: set[str] = set()
        for target in self.table:
            try:
                owner, attr, raw = _resolve(target.path)
            except (ImportError, AttributeError, KeyError):
                continue
            resolved_spans.add(target.span)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, target))
                self._patch(owner, attr, wrapped)
                continue
            wrapped = self._wrap(raw, target)
            self._patch(owner, attr, wrapped)
            if isinstance(owner, types.ModuleType):
                # ``from module import fn`` copies the binding: rebind every
                # module of repro (and of this harness) holding the same object.
                for name, module in list(sys.modules.items()):
                    if module is owner or not name.startswith(_REBIND_PREFIXES):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, key, wrapped)
        self.unresolved = sorted(
            {target.span for target in self.table} - resolved_spans
        )
        self.active = True

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every wrapped callable (spans recorded so far are kept)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    # ------------------------------------------------------------------
    # Reading the spans
    # ------------------------------------------------------------------
    def aggregate(self) -> dict[tuple[str, str], dict[str, float]]:
        """``(phase, span) -> {calls, total_s, self_s}`` over all spans."""
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent, _phase in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[tuple[str, str], dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index, (name_id, start, end, _parent, phase) in enumerate(self.spans):
            row = table[(phase, self.names[name_id])]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return dict(table)

    def durations(self, name: str, phase: str) -> list[float]:
        """Duration of every span called ``name`` in ``phase``."""
        name_id = self._name_ids.get(name)
        return [
            end - start
            for span_id, start, end, _parent, span_phase in self.spans
            if span_id == name_id and span_phase == phase
        ]

    def dump(self) -> dict:
        """The raw spans, compact: names once, then one row per span."""
        return {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "phase"],
            "spans": self.spans,
        }


class LayerView:
    """Per-layer numbers of one traced run, by the rule the README states.

    A span that fired inside the timed window reads *per timed unit* (window
    total divided by the traced units); one that fired only before it reads
    *per set-up*.  A span none of whose targets resolved reads ``None``.
    """

    def __init__(self, tracer: Tracer, units: int) -> None:
        self.tracer = tracer
        self.units = max(units, 1)
        self.rows = tracer.aggregate()

    def _read(self, span: str, field: str):
        if span in self.tracer.unresolved:
            return None
        window = self.rows.get(("window", span))
        if window is not None:
            return window[field] / self.units
        setup = self.rows.get(("setup", span))
        return setup[field] if setup is not None else 0.0

    def self_s(self, span: str):
        """Self time of ``span`` in seconds."""
        return self._read(span, "self_s")

    def calls(self, span: str):
        """Number of calls of ``span``."""
        return self._read(span, "calls")

    def counter(self, key: str, span: str):
        """An argument-derived work count attached to ``span`` (per unit)."""
        if span in self.tracer.unresolved or span in self.tracer.counter_errors:
            return None
        if ("window", key) in self.tracer.counters:
            return self.tracer.counters[("window", key)] / self.units
        return float(self.tracer.counters.get(("setup", key), 0))

    def coverage(self) -> float:
        """Share of the timed units' duration attributed to a layer span."""
        unit = self.rows.get(("window", UNIT_SPAN))
        if unit is None or unit["total_s"] <= 0.0:
            return 0.0
        return 1.0 - unit["self_s"] / unit["total_s"]
