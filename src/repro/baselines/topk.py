"""Shared machinery for the one-shot top-k baselines (NetBeacon and Leo).

Both baselines collect a fixed, global set of the ``k`` most important
stateful features over the whole flow and run the decision tree once.  Their
register footprint therefore grows with ``k`` and their feature coverage is
capped at ``k`` — the constraint SpliDT removes.  On the switch a top-k model
is a one-partition SpliDT model (:func:`exit_tree`) and runs on the same
``SpliDTDataPlane`` as SpliDT.

A baseline is compared *at a flow count*, and only feasibility depends on
the count: :func:`evaluate_grid` fits and costs a (k, depth) grid once, and
``core.best_at_flows`` picks from the evaluated candidates per flow target, by
validation F1.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SpliDTConfig, TopKConfig
from repro.core.evaluation import ClassificationReport, evaluate_classifier
from repro.core.partitioned_tree import (
    LeafOutcome,
    OUTCOME_EXIT,
    PartitionedDecisionTree,
    Subtree,
)
from repro.core.range_marking import RuleSet, generate_rules
from repro.core.resources import ResourceEstimate, TableCost, estimate_topk_resources
from repro.datasets.materialize import WindowedDataset
from repro.features.definitions import STATEFUL_INDICES, STATELESS_INDICES
from repro.ml.tree import DecisionTreeClassifier
from repro.switch.targets import TargetSpec


def select_top_k_features(
    X: np.ndarray,
    y: np.ndarray,
    k: int,
    *,
    candidate_indices: tuple[int, ...] | None = None,
    random_state: int = 0,
) -> list[int]:
    """Rank features by impurity importance and return the top ``k``.

    A full (unconstrained) reference tree is trained on all candidate
    features; its impurity-decrease importances give the global ranking the
    top-k baselines use.  The ranking does not depend on ``k``: the top ``k``
    are a prefix of the top ``k + 1``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    candidates = list(candidate_indices) if candidate_indices is not None else list(range(X.shape[1]))
    reference = DecisionTreeClassifier(
        max_depth=12, allowed_features=candidates, random_state=random_state
    )
    reference.fit(X, y)
    allowed = set(candidates)
    ranked = np.argsort(-reference.feature_importances_)
    return [int(index) for index in ranked if index in allowed][:k]


def exit_subtree(tree: DecisionTreeClassifier, *, sid: int = 1) -> Subtree:
    """View a flat tree as one SpliDT subtree whose every leaf exits."""
    subtree = Subtree(sid=sid, partition=0, tree=tree)
    for leaf in tree.tree_.leaves():
        label = int(tree.classes_[int(np.argmax(leaf.value))]) if leaf.value.sum() else 0
        subtree.outcomes[leaf.node_id] = LeafOutcome(kind=OUTCOME_EXIT, label=label)
    return subtree


@dataclass
class TopKModel:
    """A trained one-shot top-k decision-tree model."""

    config: TopKConfig
    tree: DecisionTreeClassifier
    feature_indices: list[int]
    name: str = "topk"
    metadata: dict = field(default_factory=dict)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict class labels from whole-flow (or per-packet) features."""
        return self.tree.predict(X)

    def features_used(self) -> set[int]:
        """Distinct features the fitted tree actually tests."""
        return self.tree.features_used()

    @property
    def depth(self) -> int:
        """Realised depth of the tree."""
        return self.tree.get_depth()

    @property
    def n_leaves(self) -> int:
        """Number of leaves of the tree."""
        return self.tree.get_n_leaves()

    def generate_rules(self, training_matrix: np.ndarray) -> RuleSet:
        """Compile the flat tree with the range-marking algorithm, as :func:`exit_tree`."""
        return generate_rules(exit_tree(self), training_matrix)


def exit_tree(model: TopKModel) -> PartitionedDecisionTree:
    """A top-k model as the SpliDT model it is: one partition, one subtree, every leaf exits.

    Its one window is the whole flow, so a ``SpliDTDataPlane`` over it infers
    once, at the flow's last packet, from whole-flow statistics of the
    features the tree tests — with the rules :meth:`TopKModel.generate_rules`
    compiles, under the five-tuple check and eviction of every other program.
    """
    config, tree = model.config, model.tree
    root_counts = tree.tree_.nodes[0].value
    return PartitionedDecisionTree(
        config=SpliDTConfig(
            depth=config.depth,
            features_per_subtree=config.top_k,
            partition_sizes=(config.depth,),
            bit_width=config.bit_width,
            min_samples_leaf=config.min_samples_leaf,
        ),
        subtrees={1: exit_subtree(tree)},
        root_sid=1,
        n_classes=tree.n_classes_,
        default_label=int(tree.classes_[int(np.argmax(root_counts))]),
    )


class TopKTrainer:
    """Fits one-shot top-k models on one dataset, ranking its features once.

    The feature ranking depends on the dataset, the setting (whole-flow or
    per-packet features) and the seed, not on ``k``, so every model fitted
    through one trainer shares it.  Both the ranking and the fits read
    ``split`` — by default ``"fit"``, which leaves the validation split to
    :func:`evaluate_grid`'s selection.
    """

    def __init__(
        self, windowed: WindowedDataset, *, split: str = "fit", random_state: int = 0
    ) -> None:
        self.windowed = windowed
        self.split = split
        self.random_state = random_state
        self._rankings: dict[bool, list[int]] = {}

    def matrix(self, use_stateful: bool, split: str | None = None) -> np.ndarray:
        """Whole-flow features, or per-packet ones in the stateless setting."""
        split = self.split if split is None else split
        if use_stateful:
            return self.windowed.flow_matrix(split)
        return self.windowed.packet_matrix(split)

    def ranking(self, use_stateful: bool) -> list[int]:
        """Every candidate feature of the setting, most important first."""
        if use_stateful not in self._rankings:
            candidates = tuple(STATELESS_INDICES)
            if use_stateful:
                candidates = tuple(STATEFUL_INDICES) + candidates
            self._rankings[use_stateful] = select_top_k_features(
                self.matrix(use_stateful),
                self.windowed.split_labels(self.split),
                len(candidates),
                candidate_indices=candidates,
                random_state=self.random_state,
            )
        return self._rankings[use_stateful]

    def fit(self, config: TopKConfig, *, name: str = "topk") -> TopKModel:
        """Fit one tree of ``config.depth`` over the top ``config.top_k`` features."""
        features = self.ranking(config.use_stateful)[: config.top_k]
        tree = DecisionTreeClassifier(
            max_depth=config.depth,
            allowed_features=features,
            min_samples_leaf=config.min_samples_leaf,
            random_state=self.random_state,
        )
        tree.fit(self.matrix(config.use_stateful), self.windowed.split_labels(self.split))
        return TopKModel(config=config, tree=tree, feature_indices=features, name=name)


def train_topk_model(
    windowed: WindowedDataset,
    config: TopKConfig,
    *,
    split: str = "train",
    name: str = "topk",
    random_state: int = 0,
) -> TopKModel:
    """Train a one-shot top-k model on whole-flow (or stateless) features."""
    return TopKTrainer(windowed, split=split, random_state=random_state).fit(config, name=name)


@dataclass
class BaselineCandidate:
    """One evaluated baseline configuration: what a per-#flows selection picks from.

    ``validation`` is what the selection ranks on; ``report`` is the test score.
    """

    model: TopKModel
    report: ClassificationReport
    validation: ClassificationReport
    resources: ResourceEstimate


def evaluate_grid(
    trainer: TopKTrainer,
    configs: list[TopKConfig],
    *,
    name: str,
    table_cost: Callable[[TopKModel, WindowedDataset, TargetSpec], TableCost],
    target: TargetSpec,
) -> list[BaselineCandidate]:
    """Fit, score and cost every configuration once, in the order given.

    The trainer fits on the ``"fit"`` split, and each candidate is scored on
    the validation and test splits.  ``table_cost(model, windowed, target)``
    is the system's cost model; everything else about a candidate's
    :class:`ResourceEstimate` is ``core.resources``' answer, so "feasible at
    N flows" is ``check_feasibility`` for every system.
    """
    if trainer.split != "fit":
        raise ValueError(
            f"evaluate_grid selects on the validation split, so its trainer fits on "
            f"'fit', not {trainer.split!r}"
        )
    windowed = trainer.windowed

    def score(model: TopKModel, stateful: bool, split: str) -> ClassificationReport:
        return evaluate_classifier(
            model, trainer.matrix(stateful, split), windowed.split_labels(split)
        )

    candidates = []
    for config in configs:
        model = trainer.fit(config, name=name)
        resources = estimate_topk_resources(
            model, table_cost(model, windowed, target), target=target
        )
        candidates.append(
            BaselineCandidate(
                model=model,
                report=score(model, config.use_stateful, "test"),
                validation=score(model, config.use_stateful, "validation"),
                resources=resources,
            )
        )
    return candidates
