"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper.  The
helpers here cache dataset materialisations across modules (they all run in
one pytest process), provide small model-selection routines for SpliDT and
the baselines at the paper's flow-count targets, and write each benchmark's
output table — to an untracked scratch directory, so a test run leaves
``git status`` clean, or over the committed ``benchmarks/results/`` when
``SPLIDT_BENCH_BLESS=1`` asks for it.

Since the ``repro.pipeline`` layer landed, the harness sits on top of it:
baseline model search goes through the system registry (the same adapters
``python -m repro`` drives), the replay engine is
``ExperimentSpec.replay_engine``, and :func:`splidt_experiment` hands a
benchmark a fully staged :class:`~repro.pipeline.Experiment` that shares
this module's dataset-store cache.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import core, datasets  # noqa: E402
from repro.baselines import TopKTrainer  # noqa: E402
from repro.dataplane import replay_dataset  # noqa: E402
from repro.pipeline import (  # noqa: E402
    Experiment,
    ExperimentSpec,
    Prepared,
    get_system,
)
from repro.switch.targets import TOFINO1  # noqa: E402

#: Number of flows generated per dataset for benchmark-scale training.
BENCH_FLOWS = 500

#: Seed shared by the benchmark datasets and SpliDT training runs.
BENCH_SEED = 7


def run_replay(program, dataset, **kwargs):
    """Replay ``dataset`` through ``program`` with the spec's default engine."""
    kwargs.setdefault("engine", ExperimentSpec().replay_engine)
    return replay_dataset(program, dataset, **kwargs)


#: Environment knob: worker-process count of the serving benchmarks.
SERVE_WORKERS_ENV = "SPLIDT_SERVE_WORKERS"


def serve_workers(default: int = 4) -> int:
    """Worker count for the sharded serving benchmarks.

    Reads ``SPLIDT_SERVE_WORKERS`` (so CI and operators can match the
    benchmark to the machine) and falls back to ``default``.  Used for the
    process-sharded rows of ``test_serve_throughput.py``.
    """
    value = os.environ.get(SERVE_WORKERS_ENV)
    return int(value) if value else default


def available_cores() -> int:
    """CPU cores this process may use (affinity-aware when the OS has it)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: Flow-count targets reported in the paper.
FLOW_TARGETS = (100_000, 500_000, 1_000_000)

#: The committed tables.
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Where a run writes its tables unless it is blessed (gitignored).
SCRATCH_RESULTS_DIR = Path(__file__).resolve().parent / ".results_scratch"

#: Environment switch: ``1`` makes :func:`write_result` overwrite the
#: committed tables.  Benchmarks only — nothing under ``src/`` reads it.
BLESS_ENV = "SPLIDT_BENCH_BLESS"

#: Candidate SpliDT configurations evaluated per flow target (depth, k, partitions).
SPLIDT_CANDIDATES = (
    (12, 4, 3),
    (9, 4, 3),
    (10, 3, 5),
    (8, 3, 4),
    (12, 2, 4),
    (10, 2, 5),
    (6, 2, 3),
    (4, 2, 2),
    (3, 1, 1),
)

_STORES: dict[tuple[str, int, int], datasets.DatasetStore] = {}
_SPLIDT_CACHE: dict = {}
_BASELINE_CACHE: dict = {}
_TRAINERS: dict[int, TopKTrainer] = {}
_EXPERIMENT_CACHE: dict = {}
_MODEL_STAGE_CACHE: dict = {}

#: Spec fields :func:`splidt_experiment` must not override: the prepared
#: data comes from this module's shared store, which is built with the
#: defaults for these fields — a silent mismatch would mis-label the run.
_PINNED_SPEC_FIELDS = frozenset({"dataset", "n_flows", "seed", "system", "test_size"})


def get_store(key: str, n_flows: int = BENCH_FLOWS, seed: int = BENCH_SEED) -> datasets.DatasetStore:
    """Dataset store for ``key`` (cached across benchmark modules)."""
    cache_key = (key, n_flows, seed)
    if cache_key not in _STORES:
        dataset = datasets.load_dataset(key, n_flows=n_flows, seed=seed)
        _STORES[cache_key] = datasets.DatasetStore(dataset, random_state=seed)
    return _STORES[cache_key]


def splidt_experiment(
    key: str,
    depth: int,
    k: int,
    partitions: int,
    *,
    n_flows: int = BENCH_FLOWS,
    seed: int = BENCH_SEED,
    **spec_overrides,
) -> Experiment:
    """A pipeline :class:`Experiment` for one SpliDT configuration (cached).

    The experiment's ``prepare`` stage is seeded from this module's shared
    dataset-store cache, and the ``train``/``compile`` stages are shared
    across experiments that differ only in replay settings (flow slots,
    replayed flow count, engine) — so benchmarks composing pipeline stages
    train each (dataset, configuration) pair exactly once.
    """
    forbidden = _PINNED_SPEC_FIELDS & set(spec_overrides)
    if forbidden:
        raise ValueError(
            f"splidt_experiment cannot override {sorted(forbidden)}; the prepared "
            "data comes from the shared benchmark store (pass key/n_flows/seed "
            "as positional/keyword arguments instead)"
        )
    spec = ExperimentSpec(
        dataset=key,
        n_flows=n_flows,
        seed=seed,
        depth=depth,
        features_per_subtree=k,
        n_partitions=partitions,
        **spec_overrides,
    )
    store = get_store(key, n_flows, seed)
    cache_key = (spec, id(store))
    if cache_key not in _EXPERIMENT_CACHE:
        experiment = Experiment(spec)
        windowed = store.fetch(spec.materialized_partitions())
        if spec.bit_width != 32:
            windowed = windowed.with_precision(spec.bit_width)
        experiment.restore_stage(
            "prepare", Prepared(dataset=store.dataset, store=store, windowed=windowed)
        )
        model_key = (id(store), spec.model_config())
        if model_key in _MODEL_STAGE_CACHE:
            trained, rules = _MODEL_STAGE_CACHE[model_key]
            experiment.restore_stage("train", trained)
            experiment.restore_stage("compile", rules)
        else:
            _MODEL_STAGE_CACHE[model_key] = (experiment.train(), experiment.compile())
        _EXPERIMENT_CACHE[cache_key] = experiment
    return _EXPERIMENT_CACHE[cache_key]


def evaluate_splidt_config(
    store: datasets.DatasetStore,
    depth: int,
    k: int,
    partitions: int,
    *,
    bit_width: int = 32,
    seed: int = BENCH_SEED,
) -> core.CandidateEvaluation:
    """Train/compile/cost one SpliDT configuration (cached)."""
    cache_key = (id(store), depth, k, partitions, bit_width)
    if cache_key not in _SPLIDT_CACHE:
        config = core.SpliDTConfig.uniform(
            depth=depth, n_partitions=partitions, features_per_subtree=k, bit_width=bit_width
        )
        _SPLIDT_CACHE[cache_key] = core.evaluate_configuration(
            store, config, target=TOFINO1, workloads=datasets.WORKLOADS, random_state=seed
        )
    return _SPLIDT_CACHE[cache_key]


def best_splidt_at_flows(
    store: datasets.DatasetStore,
    n_flows: int,
    *,
    candidates: tuple = SPLIDT_CANDIDATES,
    bit_width: int = 32,
) -> core.CandidateEvaluation | None:
    """Best candidate SpliDT configuration feasible at ``n_flows``."""
    evaluated = [
        evaluate_splidt_config(store, depth, k, partitions, bit_width=bit_width)
        for depth, k, partitions in candidates
    ]
    return core.best_at_flows(evaluated, n_flows)


def baseline_at_flows(store: datasets.DatasetStore, system: str, n_flows: int):
    """Best NetBeacon / Leo / per-packet model at ``n_flows``, or ``None``.

    The system's grid is evaluated once per (store, system) through the
    pipeline's registry — the same adapters ``python -m repro run --system
    netbeacon`` uses, so benchmark and CLI baselines cannot drift apart —
    and every flow target selects from it.  One trainer per store shares the
    feature ranking across systems.
    """
    cache_key = (id(store), system)
    if cache_key not in _BASELINE_CACHE:
        trainer = _TRAINERS.setdefault(id(store), TopKTrainer(store.fetch(3), random_state=0))
        _BASELINE_CACHE[cache_key] = get_system(system).candidates(
            trainer, ExperimentSpec(system=system)
        )
    return core.best_at_flows(_BASELINE_CACHE[cache_key], n_flows)


def ideal_f1(store: datasets.DatasetStore, n_partitions: int = 3) -> float:
    """F1 of the unlimited-resource reference model (all features, deep tree)."""
    from repro.ml import DecisionTreeClassifier
    from repro.ml.metrics import f1_score

    windowed = store.fetch(n_partitions)
    X_train = np.hstack([windowed.partition_matrix(p, "train") for p in range(n_partitions)])
    X_test = np.hstack([windowed.partition_matrix(p, "test") for p in range(n_partitions)])
    tree = DecisionTreeClassifier(max_depth=20, min_samples_leaf=3, random_state=0)
    tree.fit(X_train, windowed.split_labels("train"))
    return f1_score(windowed.split_labels("test"), tree.predict(X_test), "weighted")


def write_result(name: str, content: str) -> Path:
    """Persist a regenerated table and echo it.

    Timings jitter from run to run, so an ordinary run (tier-1 included)
    writes to :data:`SCRATCH_RESULTS_DIR`; only ``SPLIDT_BENCH_BLESS=1``
    replaces the committed table under ``benchmarks/results/``.
    """
    directory = RESULTS_DIR if os.environ.get(BLESS_ENV) == "1" else SCRATCH_RESULTS_DIR
    directory.mkdir(exist_ok=True)
    path = directory / f"{name}.txt"
    path.write_text(content + "\n")
    print(f"\n=== {name} ===\n{content}\n")
    return path
