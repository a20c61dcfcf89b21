"""Partitioned decision trees — SpliDT's core model (Algorithm 1).

A partitioned tree is a collection of small CART subtrees organised into
partitions.  Subtree 1 (partition 0) is trained on the statistics of every
flow's *first* window; each of its leaves either exits early with a class
label or hands the samples that reached it to a child subtree in the next
partition, which is trained on those flows' *second*-window statistics — and
so on (the paper's Algorithm 1).  Every subtree may use at most ``k``
distinct features, but different subtrees choose different features, which is
how the model's total feature coverage grows well beyond ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SpliDTConfig
from repro.datasets.materialize import WindowedDataset
from repro.features.definitions import N_FEATURES
from repro.ml.tree import DecisionTreeClassifier, fit_level

#: Sentinel leaf outcome kinds.
OUTCOME_EXIT = "exit"
OUTCOME_NEXT = "next"


@dataclass
class LeafOutcome:
    """What happens when inference reaches a subtree leaf.

    Either the flow exits with ``label`` (final partition or early exit), or
    inference transitions to subtree ``next_sid`` in the next partition.
    """

    kind: str
    label: int | None = None
    next_sid: int | None = None


@dataclass
class Subtree:
    """One subtree of a partitioned decision tree.

    Attributes:
        sid: Subtree id (1-based, unique across the whole model).
        partition: Index of the partition this subtree belongs to.
        tree: The trained CART subtree.
        outcomes: Mapping from the CART tree's leaf node id to its outcome.
        n_training_samples: Training samples the subtree was fitted on.
    """

    sid: int
    partition: int
    tree: DecisionTreeClassifier
    outcomes: dict[int, LeafOutcome] = field(default_factory=dict)
    n_training_samples: int = 0

    def features_used(self) -> set[int]:
        """Distinct features tested by this subtree."""
        return self.tree.features_used()

    @property
    def depth(self) -> int:
        """Realised depth of the subtree."""
        return self.tree.get_depth()

    @property
    def n_leaves(self) -> int:
        """Number of leaves of the subtree."""
        return self.tree.get_n_leaves()


@dataclass
class PartitionedDecisionTree:
    """A trained SpliDT model: subtrees indexed by subtree id (SID)."""

    config: SpliDTConfig
    subtrees: dict[int, Subtree]
    root_sid: int
    n_classes: int
    class_names: list[str] = field(default_factory=list)
    default_label: int = 0

    # ------------------------------------------------------------------
    # Structure statistics (used by Tables 1 and 3)
    # ------------------------------------------------------------------
    @property
    def n_subtrees(self) -> int:
        """Number of trained subtrees."""
        return len(self.subtrees)

    @property
    def n_partitions(self) -> int:
        """Number of partitions in the configuration."""
        return self.config.n_partitions

    @property
    def total_depth(self) -> int:
        """Sum of realised subtree depths along the deepest partition chain."""
        depth_by_partition: dict[int, int] = {}
        for subtree in self.subtrees.values():
            depth_by_partition[subtree.partition] = max(
                depth_by_partition.get(subtree.partition, 0), subtree.depth
            )
        return sum(depth_by_partition.values())

    def subtrees_in_partition(self, partition: int) -> list[Subtree]:
        """Subtrees belonging to one partition, ordered by SID."""
        return sorted(
            (s for s in self.subtrees.values() if s.partition == partition),
            key=lambda s: s.sid,
        )

    def features_used(self) -> set[int]:
        """Distinct features used anywhere in the model (the paper's #Features)."""
        used: set[int] = set()
        for subtree in self.subtrees.values():
            used |= subtree.features_used()
        return used

    def features_per_partition(self) -> dict[int, set[int]]:
        """Union of features used by the subtrees of each partition."""
        result: dict[int, set[int]] = {}
        for subtree in self.subtrees.values():
            result.setdefault(subtree.partition, set()).update(subtree.features_used())
        return result

    def feature_density(self, n_features: int = N_FEATURES) -> dict[str, float]:
        """Feature-density statistics (% of N), per partition and per subtree.

        Mirrors the paper's Table 1: the mean (and std) fraction of the full
        feature catalogue used by a partition and by an individual subtree.
        """
        per_partition = [
            100.0 * len(features) / n_features
            for features in self.features_per_partition().values()
        ]
        per_subtree = [
            100.0 * len(subtree.features_used()) / n_features
            for subtree in self.subtrees.values()
        ]
        return {
            "partition_mean": float(np.mean(per_partition)) if per_partition else 0.0,
            "partition_std": float(np.std(per_partition)) if per_partition else 0.0,
            "subtree_mean": float(np.mean(per_subtree)) if per_subtree else 0.0,
            "subtree_std": float(np.std(per_subtree)) if per_subtree else 0.0,
        }

    def max_features_per_subtree(self) -> int:
        """Largest number of distinct features any single subtree uses (≤ k)."""
        if not self.subtrees:
            return 0
        return max(len(s.features_used()) for s in self.subtrees.values())

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def predict_windows(self, window_features: np.ndarray) -> np.ndarray:
        """Classify flows from their per-window feature matrices.

        Args:
            window_features: Array ``(n_partitions, n_flows, n_features)`` —
                the same layout ``WindowedDataset.window_features`` uses.

        Returns:
            Predicted labels, one per flow.
        """
        if window_features.ndim != 3:
            raise ValueError("window_features must have shape (P, n_flows, n_features)")
        if window_features.shape[0] < self.n_partitions:
            raise ValueError(
                f"need {self.n_partitions} windows, got {window_features.shape[0]}"
            )
        n_flows = window_features.shape[1]
        predictions = np.full(n_flows, self.default_label, dtype=np.intp)
        if n_flows == 0:
            return predictions

        # Batched traversal: instead of walking the subtree chain one flow at
        # a time, keep the set of still-active flows grouped by the subtree
        # they sit in and run each subtree's ``apply`` on all of its flows at
        # once.  Flows that hit an exit leaf (or a missing subtree/outcome,
        # which fall back to the default label exactly like the per-flow
        # walk) drop out; the rest carry their next SID into the next round.
        rows = np.arange(n_flows, dtype=np.intp)
        sids = np.full(n_flows, self.root_sid, dtype=np.intp)
        for _ in range(self.n_partitions):
            if rows.size == 0:
                break
            next_rows: list[np.ndarray] = []
            next_sids: list[np.ndarray] = []
            order = np.argsort(sids, kind="stable")
            sorted_sids = sids[order]
            boundaries = np.flatnonzero(
                np.r_[True, sorted_sids[1:] != sorted_sids[:-1], True]
            )
            for start, stop in zip(boundaries[:-1], boundaries[1:]):
                sid = int(sorted_sids[start])
                group_rows = rows[order[start:stop]]
                subtree = self.subtrees.get(sid)
                if subtree is None:
                    continue  # stays default_label
                leaf_ids = subtree.tree.apply(
                    window_features[subtree.partition, group_rows, :]
                )
                for leaf in np.unique(leaf_ids):
                    outcome = subtree.outcomes.get(int(leaf))
                    members = group_rows[leaf_ids == leaf]
                    if outcome is None:
                        continue  # stays default_label
                    if outcome.kind == OUTCOME_EXIT:
                        predictions[members] = int(outcome.label)
                    else:
                        next_rows.append(members)
                        next_sids.append(
                            np.full(members.size, int(outcome.next_sid), dtype=np.intp)
                        )
            if next_rows:
                rows = np.concatenate(next_rows)
                sids = np.concatenate(next_sids)
            else:
                rows = np.empty(0, dtype=np.intp)
                sids = rows
        # Flows still active after the final round never exited; they keep
        # the default label, matching the per-flow fallback.
        return predictions

    def _predict_single(self, windows: np.ndarray) -> int:
        sid = self.root_sid
        for _ in range(self.n_partitions):
            subtree = self.subtrees.get(sid)
            if subtree is None:
                return self.default_label
            vector = windows[subtree.partition].reshape(1, -1)
            leaf_id = int(subtree.tree.apply(vector)[0])
            outcome = subtree.outcomes.get(leaf_id)
            if outcome is None:
                return self.default_label
            if outcome.kind == OUTCOME_EXIT:
                return int(outcome.label)
            sid = int(outcome.next_sid)
        # Ran out of partitions without an exit (should not happen): fall back.
        return self.default_label

    def trace_windows(self, windows: np.ndarray) -> list[tuple[int, int]]:
        """Return the (partition, sid) sequence one flow's inference visits.

        Used by the data-plane runtime and by tests to check that the number
        of recirculations equals ``len(trace) - 1``.
        """
        trace = []
        sid = self.root_sid
        for _ in range(self.n_partitions):
            subtree = self.subtrees.get(sid)
            if subtree is None:
                break
            trace.append((subtree.partition, sid))
            vector = windows[subtree.partition].reshape(1, -1)
            leaf_id = int(subtree.tree.apply(vector)[0])
            outcome = subtree.outcomes.get(leaf_id)
            if outcome is None or outcome.kind == OUTCOME_EXIT:
                break
            sid = int(outcome.next_sid)
        return trace


def train_partitioned_tree(
    windowed: WindowedDataset,
    config: SpliDTConfig,
    *,
    split: str = "train",
    random_state: int = 0,
) -> PartitionedDecisionTree:
    """Train a partitioned decision tree (the paper's Algorithm 1).

    Args:
        windowed: Materialised window-feature dataset (must have at least
            ``config.n_partitions`` windows).  A raw
            :class:`~repro.datasets.flows.FlowDataset` is also accepted and
            materialised on the fly with ``config.n_partitions`` windows and
            the default train/test split.
        config: The model hyper-parameters.
        split: Which split of the dataset to train on.
        random_state: Seed forwarded to the CART learner (and to the
            materialisation split when a raw flow dataset is passed).

    Returns:
        The trained :class:`PartitionedDecisionTree`.
    """
    if not hasattr(windowed, "partition_matrix"):
        from repro.datasets.materialize import materialize

        windowed = materialize(windowed, config.n_partitions, random_state=random_state)
    if windowed.n_partitions < config.n_partitions:
        raise ValueError(
            f"dataset materialised with {windowed.n_partitions} windows but the "
            f"configuration needs {config.n_partitions}"
        )

    labels = windowed.split_labels(split)
    matrices = [
        windowed.partition_matrix(partition, split) for partition in range(config.n_partitions)
    ]
    n_samples = labels.shape[0]
    if n_samples == 0:
        raise ValueError("cannot train on an empty split")

    default_label = int(np.bincount(labels).argmax())
    model = PartitionedDecisionTree(
        config=config,
        subtrees={},
        root_sid=1,
        n_classes=windowed.n_classes,
        class_names=list(windowed.class_names),
        default_label=default_label,
    )

    # A partition at a time: every subtree of partition ``p`` grows in one
    # lockstep fit.  ``levels[p][i]`` is the i-th subtree of partition ``p``
    # in the order Algorithm 1's depth-first recursion meets them, as
    # ``(tree, rows, leaves)``; ``leaves`` pairs each leaf id with its exit
    # outcome or with the index of its child subtree in ``levels[p + 1]``.
    levels: list[list[tuple[DecisionTreeClassifier, np.ndarray, list]]] = []
    groups = [np.arange(n_samples, dtype=np.intp)]
    for partition, max_depth in enumerate(config.partition_sizes):
        if not groups:
            break
        trees = [
            DecisionTreeClassifier(
                max_depth=max_depth,
                max_distinct_features=config.features_per_subtree,
                min_samples_leaf=config.min_samples_leaf,
                criterion=config.criterion,
            )
            for _ in groups
        ]
        leaf_of = fit_level(
            trees, matrices[partition], labels, groups, windowed.feature_orders(partition, split)
        )
        is_last_partition = partition == config.n_partitions - 1
        if not is_last_partition:
            # The level's rows by (subtree, leaf): every leaf holds training
            # rows, so the runs come in the order of each tree's ``leaves()``.
            level_rows = np.concatenate(groups)
            n_nodes = np.array([len(tree.tree_.nodes) for tree in trees])
            key = np.repeat(np.cumsum(n_nodes) - n_nodes, [group.size for group in groups])
            key += leaf_of[level_rows]
            order = np.argsort(key, kind="stable")
            runs = iter(np.split(level_rows[order], np.flatnonzero(np.diff(key[order])) + 1))
        level, next_groups = [], []
        for tree, rows in zip(trees, groups):
            leaves = []
            for leaf in tree.tree_.leaves():
                leaf_rows = None if is_last_partition else next(runs)
                # A leaf spawns a child subtree only if there is a next
                # partition, the leaf reached this partition's maximum depth
                # (early exits stop here) and its samples are not all of one
                # class (pure leaves have nothing left to learn).
                mixed = np.count_nonzero(leaf.value) > 1
                if leaf_rows is not None and leaf.depth >= max_depth and mixed:
                    leaves.append((leaf.node_id, len(next_groups)))
                    next_groups.append(leaf_rows)
                    continue
                majority = int(tree.classes_[leaf.value.argmax()])
                leaves.append((leaf.node_id, LeafOutcome(kind=OUTCOME_EXIT, label=majority)))
            level.append((tree, rows, leaves))
        levels.append(level)
        groups = next_groups

    def number(partition: int, index: int) -> int:
        """Give a subtree and its descendants their SIDs, in the recursion's preorder."""
        tree, rows, leaves = levels[partition][index]
        sid = len(model.subtrees) + 1
        # The seed the recursion gave the subtree's fit (it draws nothing).
        tree.random_state = random_state + sid
        subtree = Subtree(
            sid=sid, partition=partition, tree=tree, n_training_samples=int(rows.size)
        )
        model.subtrees[sid] = subtree
        for leaf, outcome in leaves:
            if not isinstance(outcome, LeafOutcome):
                outcome = LeafOutcome(kind=OUTCOME_NEXT, next_sid=number(partition + 1, outcome))
            subtree.outcomes[leaf] = outcome
        return sid

    number(0, 0)
    return model
