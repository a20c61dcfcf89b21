"""Reduced-precision training against the rules the switch matches.

A model trained on ``WindowedDataset.with_precision(b)`` and compiled by
``generate_rules`` at ``b`` bits must decide every raw training row, through
``RuleSet.classify_batch`` and ``RuleSet.classify``, as the model decides
that row's view: the view's quantiser and the rules' refit are one
``FeatureQuantizer`` on the same rows, so a node's threshold sits between
two levels the node saw.  A held-out row may also land on a level the node
did not see; the only one that can go either way is the level halfway
between two it saw, whose stand-in equals the node's threshold up to float
rounding.  :class:`TestContract` checks both on hypothesis-drawn datasets
(zero columns, held-out rows above the training maximum);
:class:`TestD3` bounds the held-out misses on real traffic features and
replays a D3 experiment end to end at 8 and 16 bits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SpliDTConfig
from repro.core.partitioned_tree import OUTCOME_EXIT, train_partitioned_tree
from repro.core.range_marking import (
    KIND_EXIT,
    KIND_NEXT,
    generate_rules,
    stacked_training_matrix,
)
from repro.datasets.materialize import WindowedDataset
from repro.features.definitions import N_FEATURES
from repro.ml.metrics import f1_score
from repro.pipeline import Experiment, ExperimentSpec

BIT_WIDTHS = (8, 16, 32)
N_CLASSES = 3


def _random_windowed(seed: int, n_partitions: int, zero_columns: set[int]) -> WindowedDataset:
    """Counts, millisecond-resolution reals on scales 1–10^4, sparse columns.

    ``zero_columns`` are zero on every training row and positive on held-out
    rows; held-out rows are stretched by up to 2x, so many exceed the
    training maximum.
    """
    rng = np.random.default_rng(seed)
    n_train, n_held_out = 150, 300
    n_flows = n_train + n_held_out
    labels = rng.integers(0, N_CLASSES, n_flows)
    shape = (n_partitions, n_flows, N_FEATURES)
    # Each class shifts each column by its own factor, so the trees split.
    signal = 1.0 + rng.uniform(0.0, 2.0, (N_CLASSES, N_FEATURES))[labels]
    scale = 10.0 ** rng.integers(0, 5, N_FEATURES)
    windows = np.round(rng.exponential(1.0, shape) * signal * scale, 3)
    counts = rng.random(N_FEATURES) < 0.3
    windows[..., counts] = np.floor(windows[..., counts] / scale[counts] * 5)
    sparse = rng.random(N_FEATURES) < 0.2
    windows[..., sparse] *= rng.random((n_partitions, n_flows, int(sparse.sum()))) < 0.1
    columns = sorted(zero_columns)
    windows[:, :n_train, columns] = 0.0
    windows[:, n_train:, columns] += 1.0
    windows[:, n_train:] *= rng.uniform(0.5, 2.0, (1, n_held_out, 1))
    return WindowedDataset(
        name="random",
        n_partitions=n_partitions,
        window_features=windows,
        flow_features=windows.sum(axis=0),
        packet_features=windows[0],
        labels=labels,
        class_names=[f"c{i}" for i in range(N_CLASSES)],
        train_indices=np.arange(n_train),
        test_indices=np.arange(n_train, n_flows),
        fit_indices=np.arange(n_train),
        validation_indices=np.arange(0),
    )


def _model_steps(model, view, flows):
    """Every (subtree, flow) step of the model's walk over ``view``.

    ``(sids, flows, partitions, kinds, values)`` arrays: ``kinds`` /
    ``values`` are the step's outcome as ``classify_batch`` codes it.
    """
    steps = []
    sids = np.full(flows.size, model.root_sid)
    for _ in range(model.n_partitions):
        next_flows, next_sids = [], []
        for sid in np.unique(sids):
            subtree = model.subtrees[int(sid)]
            members = flows[sids == sid]
            leaves = subtree.tree.apply(view.window_features[subtree.partition, members])
            for flow, leaf in zip(members, leaves):
                outcome = subtree.outcomes[int(leaf)]
                if outcome.kind == OUTCOME_EXIT:
                    steps.append((sid, flow, subtree.partition, KIND_EXIT, outcome.label))
                else:
                    steps.append((sid, flow, subtree.partition, KIND_NEXT, outcome.next_sid))
                    next_flows.append(flow)
                    next_sids.append(outcome.next_sid)
        flows, sids = np.array(next_flows, dtype=np.intp), np.array(next_sids)
    return tuple(np.array(column) for column in zip(*steps))


def _misses(model, rules, windowed, view, flows):
    """The walk's steps whose raw row the rules decide unlike the model's view.

    Returns the missed ``(sid, flow, partition)`` triples and the number of
    steps; asserts that the scalar lookup agrees with the batched one.
    """
    sids, flows, partitions, kinds, values = _model_steps(model, view, flows)
    raw = windowed.window_features[partitions, flows]
    got_kinds, got_values = rules.classify_batch(sids, raw)
    assert [rules.classify(int(sid), row) for sid, row in zip(sids, raw)] == [
        ("exit" if kind == KIND_EXIT else "next", int(value))
        for kind, value in zip(got_kinds, got_values)
    ]
    wrong = (got_kinds != kinds) | (got_values != values)
    return list(zip(sids[wrong], flows[wrong], partitions[wrong])), sids.size


def _is_halfway(model, view, sid, flow, partition) -> bool:
    """Whether the view row's walk meets a threshold equal to its own stand-in."""
    tree = model.subtrees[int(sid)].tree.tree_
    row = view.window_features[partition, flow]
    for node_id in tree.decision_path(row):
        node = tree.nodes[node_id]
        if not node.is_leaf and abs(row[node.feature] - node.threshold) <= 1e-9 * abs(
            node.threshold
        ):
            return True
    return False


def _deploy(windowed, bit_width, depth, n_partitions, k):
    view = windowed.with_precision(bit_width)
    config = SpliDTConfig.uniform(
        depth=depth, n_partitions=n_partitions, features_per_subtree=k, bit_width=bit_width
    )
    model = train_partitioned_tree(view, config, random_state=0)
    rules = generate_rules(model, stacked_training_matrix(view), bit_width=bit_width)
    return view, model, rules


class TestContract:
    @pytest.mark.parametrize("bit_width", BIT_WIDTHS)
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_partitions=st.integers(1, 3),
        extra_depth=st.integers(0, 3),
        k=st.integers(1, 4),
        zero_columns=st.sets(st.integers(0, N_FEATURES - 1), max_size=6),
    )
    def test_rules_decide_every_training_row_as_the_model_decides_its_view(
        self, bit_width, seed, n_partitions, extra_depth, k, zero_columns
    ):
        windowed = _random_windowed(seed, n_partitions, zero_columns)
        view, model, rules = _deploy(
            windowed, bit_width, n_partitions + extra_depth, n_partitions, k
        )
        misses, _ = _misses(model, rules, windowed, view, windowed.train_indices)
        assert misses == []
        held_out, _ = _misses(model, rules, windowed, view, windowed.test_indices)
        assert all(_is_halfway(model, view, *miss) for miss in held_out), held_out


class TestD3:
    @pytest.mark.parametrize("bit_width", (8, 16))
    def test_held_out_rows_agree(self, windowed3, bit_width):
        view, model, rules = _deploy(windowed3, bit_width, depth=9, n_partitions=3, k=4)
        misses, _ = _misses(model, rules, windowed3, view, windowed3.train_indices)
        assert misses == []
        held_out, n_steps = _misses(model, rules, windowed3, view, windowed3.test_indices)
        assert len(held_out) <= 0.005 * n_steps
        assert all(_is_halfway(model, view, *miss) for miss in held_out)

    @pytest.mark.parametrize("bit_width", (8, 16))
    def test_replay_f1_matches_offline_f1_on_the_replayed_flows(self, bit_width):
        experiment = Experiment(
            ExperimentSpec(dataset="D3", n_flows=600, seed=7, bit_width=bit_width)
        )
        replayed = experiment.run().replay_result.report.f1_score
        view = experiment.prepare().windowed
        n_flows = experiment.spec.replay_flows
        offline = f1_score(
            view.labels[:n_flows],
            experiment.train().predict_windows(view.window_features[:, :n_flows]),
            "weighted",
        )
        assert replayed == pytest.approx(offline, abs=0.03)
