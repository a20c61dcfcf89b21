"""pForest-style in-network random-forest baseline.

pForest (Busse-Grawitz et al.) generalises in-network decision trees to
random forests with top-k stateful features.  It is discussed in the paper's
related work as another one-shot system: every member tree shares the same
global top-k feature registers, so the per-flow register footprint is the
same as NetBeacon's, while the TCAM cost is multiplied by the ensemble size.
It provides a stronger-accuracy / higher-TCAM point for the comparison
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.topk import TopKTrainer, exit_subtree
from repro.core.config import TopKConfig
from repro.core.range_marking import FeatureQuantizer, RuleSet, generate_subtree_rules
from repro.datasets.materialize import WindowedDataset
from repro.ml.tree import DecisionTreeClassifier


@dataclass
class PForestModel:
    """A trained in-network random forest with a shared top-k feature set."""

    config: TopKConfig
    n_trees: int
    trees: list[DecisionTreeClassifier]
    feature_indices: list[int]
    classes: np.ndarray
    metadata: dict = field(default_factory=dict)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority vote over the ensemble."""
        X = np.asarray(X, dtype=float)
        votes = np.zeros((X.shape[0], self.classes.size), dtype=float)
        for tree in self.trees:
            probabilities = tree.predict_proba(X)
            for column, cls in enumerate(tree.classes_):
                votes[:, int(np.searchsorted(self.classes, cls))] += probabilities[:, column]
        return self.classes[np.argmax(votes, axis=1)]

    def features_used(self) -> set[int]:
        """Distinct features tested anywhere in the ensemble."""
        used: set[int] = set()
        for tree in self.trees:
            used |= tree.features_used()
        return used

    def generate_rules(self, training_matrix: np.ndarray) -> RuleSet:
        """Compile every member tree with the range-marking encoding.

        Each tree becomes one "subtree" rule group (keyed by a pseudo-SID
        equal to the tree index), mirroring how pForest installs one table
        group per tree.
        """
        quantizer = FeatureQuantizer(bit_width=self.config.bit_width).fit(training_matrix)
        subtree_rules = {
            index: generate_subtree_rules(exit_subtree(tree, sid=index), quantizer)
            for index, tree in enumerate(self.trees, start=1)
        }
        return RuleSet(subtree_rules=subtree_rules, quantizer=quantizer, bit_width=self.config.bit_width)


def train_pforest_model(
    windowed: WindowedDataset,
    config: TopKConfig,
    *,
    n_trees: int = 5,
    split: str = "train",
    random_state: int = 0,
) -> PForestModel:
    """Train a pForest ensemble on whole-flow features with shared top-k."""
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    trainer = TopKTrainer(windowed, split=split, random_state=random_state)
    X = trainer.matrix(config.use_stateful)
    y = windowed.split_labels(split)
    features = trainer.ranking(config.use_stateful)[: config.top_k]
    rng = np.random.default_rng(random_state)
    trees = []
    for index in range(n_trees):
        bootstrap = rng.integers(0, X.shape[0], size=X.shape[0])
        tree = DecisionTreeClassifier(
            max_depth=config.depth,
            allowed_features=features,
            min_samples_leaf=config.min_samples_leaf,
            max_features=max(1, len(features) - 1),
            random_state=random_state + index,
        )
        tree.fit(X[bootstrap], y[bootstrap])
        trees.append(tree)

    return PForestModel(
        config=config,
        n_trees=n_trees,
        trees=trees,
        feature_indices=features,
        classes=np.unique(y),
    )

