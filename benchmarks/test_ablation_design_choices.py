"""Ablation benches for the design choices DESIGN.md calls out.

Three ablations, all on D3:

* **Recursive sample-partitioned training (Algorithm 1) vs independent
  subtrees** — Algorithm 1 trains each child subtree only on the samples that
  reach its parent leaf, so subtrees specialise; the ablation trains every
  subtree of a partition on *all* samples.  Expected shape: Algorithm 1 ≥
  the ablation.
* **Bayesian optimisation vs random search** — same evaluation budget; each
  row is the test F1 of the search's best-on-validation candidate.
* **Per-subtree feature budget vs global top-k at equal k** — the heart of
  the paper: letting each subtree pick its own ≤ k features beats restricting
  the whole model to the same k features.
"""

from __future__ import annotations

import numpy as np

from bench_common import BENCH_SPACE, get_store, write_result
from repro.analysis import render_table
from repro.core.config import SpliDTConfig, TopKConfig
from repro.core.dse import DesignSearch
from repro.core.evaluation import evaluate_classifier, evaluate_partitioned_tree
from repro.core.partitioned_tree import train_partitioned_tree
from repro.baselines.topk import train_topk_model
from repro.ml.tree import DecisionTreeClassifier
from repro.ml.metrics import f1_score
from repro.switch.targets import TOFINO1


def _independent_subtree_f1(store, config: SpliDTConfig) -> float:
    """Ablation: every partition's subtree trained on all samples.

    This collapses each partition to a single subtree (no per-leaf sample
    routing), then chains their majority decisions: inference uses the last
    partition's prediction.
    """
    windowed = store.fetch(config.n_partitions)
    y_train = windowed.split_labels("train")
    y_test = windowed.split_labels("test")
    votes = np.zeros((y_test.shape[0], windowed.n_classes))
    for partition in range(config.n_partitions):
        tree = DecisionTreeClassifier(
            max_depth=config.partition_sizes[partition],
            max_distinct_features=config.features_per_subtree,
            min_samples_leaf=config.min_samples_leaf,
            random_state=partition,
        )
        tree.fit(windowed.partition_matrix(partition, "train"), y_train)
        probabilities = tree.predict_proba(windowed.partition_matrix(partition, "test"))
        for column, cls in enumerate(tree.classes_):
            votes[:, int(cls)] += probabilities[:, column]
    predictions = np.argmax(votes, axis=1)
    return f1_score(y_test, predictions, "weighted")


def _run() -> str:
    store = get_store("D3")
    rows = []

    # Ablation 1: Algorithm 1 vs independent subtrees.
    config = SpliDTConfig(depth=9, features_per_subtree=4, partition_sizes=(3, 3, 3))
    windowed = store.fetch(3)
    recursive = train_partitioned_tree(windowed, config, random_state=0)
    recursive_f1 = evaluate_partitioned_tree(recursive, windowed).f1_score
    independent_f1 = _independent_subtree_f1(store, config)
    rows.append(["Training", "Algorithm 1 (sample-partitioned)", f"{recursive_f1:.3f}"])
    rows.append(["Training", "Independent subtrees (ablation)", f"{independent_f1:.3f}"])

    # Ablation 2: Bayesian optimisation vs random search (equal budget).
    for method in ("bayesian", "random"):
        search = DesignSearch(store, target=TOFINO1, **BENCH_SPACE, seed=29)
        result = search.run(n_iterations=10, method=method)
        best = max(result.history, key=lambda c: c.f1_score)
        rows.append(["Search", method, f"{best.report.f1_score:.3f}"])

    # Ablation 3: per-subtree feature budget vs global top-k at equal k.
    for k in (2, 4):
        partitioned = train_partitioned_tree(
            windowed,
            SpliDTConfig(depth=9, features_per_subtree=k, partition_sizes=(3, 3, 3)),
            random_state=1,
        )
        partitioned_f1 = evaluate_partitioned_tree(partitioned, windowed).f1_score
        global_topk = train_topk_model(windowed, TopKConfig(depth=9, top_k=k), random_state=1)
        topk_f1 = evaluate_classifier(
            global_topk, windowed.flow_matrix("test"), windowed.split_labels("test")
        ).f1_score
        rows.append([f"Feature budget (k={k})", "per-subtree (SpliDT)", f"{partitioned_f1:.3f}"])
        rows.append([f"Feature budget (k={k})", "global top-k", f"{topk_f1:.3f}"])

    return render_table(["Ablation", "Variant", "F1"], rows)


def test_ablation_design_choices(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    write_result("ablation_design_choices", table)
    assert "Algorithm 1" in table
