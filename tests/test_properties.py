"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pareto import pareto_front_indices
from repro.core.range_marking import MarkTable
from repro.dataplane import SpliDTDataPlane, oracle, replay_dataset
from repro.datasets.flows import FiveTuple, Flow, FlowDataset, Packet
from repro.features.window import window_boundaries
from repro.ml import DecisionTreeClassifier
from repro.ml.metrics import accuracy_score, f1_score
from repro.switch.eviction import make_eviction_policy
from repro.switch.tcam import range_to_ternary
from test_core_pareto import dominates


# ----------------------------------------------------------------------
# Window segmentation
# ----------------------------------------------------------------------
@given(n_packets=st.integers(0, 5000), n_windows=st.integers(1, 16))
def test_window_boundaries_partition_the_flow(n_packets, n_windows):
    boundaries = window_boundaries(n_packets, n_windows)
    assert len(boundaries) == n_windows
    assert boundaries[-1] == n_packets
    assert all(0 <= a <= b <= n_packets for a, b in zip(boundaries, boundaries[1:]))
    sizes = [boundaries[0]] + [b - a for a, b in zip(boundaries, boundaries[1:])]
    assert max(sizes) - min(sizes) <= 1  # uniform windows


# ----------------------------------------------------------------------
# Range-to-ternary prefix expansion
# ----------------------------------------------------------------------
@given(
    width=st.integers(1, 10),
    bounds=st.tuples(st.integers(0, 1023), st.integers(0, 1023)),
)
@settings(max_examples=200)
def test_range_to_ternary_covers_exactly_the_range(width, bounds):
    low, high = min(bounds), max(bounds)
    max_value = (1 << width) - 1
    low, high = min(low, max_value), min(high, max_value)
    matches = range_to_ternary(low, high, width)
    covered = {v for v in range(max_value + 1) if any(m.matches(v) for m in matches)}
    assert covered == set(range(low, high + 1))
    # Classic bound on prefix expansion size.
    assert len(matches) <= max(2 * width - 2, 1)


# ----------------------------------------------------------------------
# Mark tables
# ----------------------------------------------------------------------
@given(
    thresholds=st.lists(st.integers(0, 255), min_size=0, max_size=10),
    value=st.integers(0, 255),
)
def test_mark_table_mark_matches_range_bounds(thresholds, value):
    table = MarkTable(sid=1, feature=0, thresholds=thresholds, bit_width=8)
    mark = table.mark_for(value)
    low, high = table.range_bounds(mark)
    assert low <= value <= high


@given(thresholds=st.lists(st.integers(0, 255), min_size=0, max_size=10))
def test_mark_table_ranges_partition_domain(thresholds):
    table = MarkTable(sid=1, feature=0, thresholds=thresholds, bit_width=8)
    covered = []
    for mark in range(table.n_ranges):
        low, high = table.range_bounds(mark)
        if high >= low:
            covered.extend(range(low, high + 1))
    assert sorted(covered) == list(range(256))


@given(
    thresholds=st.lists(st.integers(0, 255), min_size=1, max_size=8),
    a=st.integers(0, 255),
    b=st.integers(0, 255),
)
def test_mark_table_marks_are_monotone(thresholds, a, b):
    table = MarkTable(sid=1, feature=0, thresholds=thresholds, bit_width=8)
    low, high = min(a, b), max(a, b)
    assert table.mark_for(low) <= table.mark_for(high)


# ----------------------------------------------------------------------
# Pareto front
# ----------------------------------------------------------------------
@given(
    points=st.lists(
        st.tuples(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)),
        min_size=1,
        max_size=40,
    )
)
def test_pareto_front_members_are_non_dominated(points):
    matrix = np.array(points, dtype=float)
    indices = pareto_front_indices(matrix)
    assert indices.size >= 1
    front = matrix[indices]
    for member in front:
        assert not any(dominates(other, member) for other in matrix)


@given(
    points=st.lists(
        st.tuples(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)),
        min_size=1,
        max_size=30,
    )
)
def test_every_point_is_dominated_by_or_on_the_front(points):
    matrix = np.array(points, dtype=float)
    indices = set(pareto_front_indices(matrix).tolist())
    front = matrix[sorted(indices)]
    for i, point in enumerate(matrix):
        if i in indices:
            continue
        assert any(dominates(member, point) or np.allclose(member, point) for member in front)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
@given(
    labels=st.lists(st.integers(0, 4), min_size=1, max_size=60),
    predictions=st.lists(st.integers(0, 4), min_size=1, max_size=60),
)
def test_metric_bounds(labels, predictions):
    n = min(len(labels), len(predictions))
    y_true = np.array(labels[:n])
    y_pred = np.array(predictions[:n])
    assert 0.0 <= accuracy_score(y_true, y_pred) <= 1.0
    for average in ("macro", "weighted", "micro"):
        assert 0.0 <= f1_score(y_true, y_pred, average) <= 1.0


@given(labels=st.lists(st.integers(0, 4), min_size=1, max_size=60))
def test_perfect_prediction_scores_one(labels):
    y = np.array(labels)
    assert accuracy_score(y, y) == 1.0
    assert abs(f1_score(y, y, "weighted") - 1.0) < 1e-9


# ----------------------------------------------------------------------
# CART invariants
# ----------------------------------------------------------------------
@st.composite
def _classification_problem(draw):
    n_samples = draw(st.integers(10, 60))
    n_features = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    X = rng.normal(size=(n_samples, n_features))
    y = rng.integers(0, draw(st.integers(2, 4)), size=n_samples)
    return X, y


@given(problem=_classification_problem(), max_depth=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_tree_depth_and_budget_invariants(problem, max_depth):
    X, y = problem
    tree = DecisionTreeClassifier(max_depth=max_depth, max_distinct_features=2).fit(X, y)
    assert tree.get_depth() <= max_depth
    assert len(tree.features_used()) <= 2
    predictions = tree.predict(X)
    assert set(np.unique(predictions)) <= set(np.unique(y))


@given(problem=_classification_problem())
@settings(max_examples=30, deadline=None)
def test_tree_node_counts_consistent(problem):
    X, y = problem
    tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
    root = tree.tree_.nodes[0]
    assert root.n_samples == X.shape[0]
    for node in tree.tree_.nodes:
        if not node.is_leaf:
            left = tree.tree_.nodes[node.left]
            right = tree.tree_.nodes[node.right]
            assert node.n_samples == left.n_samples + right.n_samples
            # Splitting never increases weighted impurity (greedy CART invariant).
            weighted_child = (
                left.n_samples * left.impurity + right.n_samples * right.impurity
            )
            assert weighted_child <= node.n_samples * node.impurity + 1e-9


# ----------------------------------------------------------------------
# Replay invariants on contended register slots (no oracle involved)
# ----------------------------------------------------------------------
# Bit-identity to the reference interpreter makes the interpreter the only
# specification; these hold for *any* correct replay, so they are checked on
# the oracle ("reference") and on the slot-stream plane ("vectorized") alike.
_TUPLE_POOL = [
    FiveTuple(src_ip=10 + i, dst_ip=20 + i, src_port=1000 + i, dst_port=443, protocol=6)
    for i in range(6)
]


@st.composite
def _contended_trace(draw):
    """``(flows, table size, eviction policy)`` with few slots and many ties."""
    gaps = st.sampled_from((0.0, 0.125, 0.5, 2.5))
    flows = []
    for flow_id in range(draw(st.integers(1, 10))):
        timestamp = draw(st.sampled_from((0.0, 0.25, 1.0, 3.0)))
        packets = []
        for _ in range(draw(st.integers(1, 9))):
            packets.append(
                Packet(
                    timestamp=timestamp,
                    size=draw(st.integers(40, 1500)),
                    flags=draw(st.sampled_from((0, 0x02, 0x10, 0x18))),
                    direction=draw(st.sampled_from((1, -1))),
                    payload=draw(st.integers(0, 1460)),
                )
            )
            timestamp += draw(gaps)
        flows.append(
            Flow(
                five_tuple=draw(st.sampled_from(_TUPLE_POOL)),
                packets=packets,
                label=0,
                class_name="",
                flow_id=flow_id,
            )
        )
    eviction = draw(
        st.sampled_from((("none", 1.0), ("lru", 1.0), ("idle-timeout", 0.0),
                         ("idle-timeout", 0.5), ("idle-timeout", 2.5)))
    )
    return flows, draw(st.sampled_from((1, 2, 3, 8))), eviction


def _replay(model, rules, flows, table_size, eviction, engine):
    name, timeout = eviction
    program = SpliDTDataPlane(
        model, rules, flow_slots=table_size,
        eviction=make_eviction_policy(name, timeout=timeout),
    )
    dataset = FlowDataset(name="p", description="", flows=flows, class_names=["a"])
    replay = oracle.replay_dataset if engine == "reference" else replay_dataset
    return program, replay(program, dataset)


@pytest.mark.parametrize("engine", ["reference", "vectorized"])
@given(trace=_contended_trace())
@settings(max_examples=60, deadline=None)
def test_contended_replay_invariants(engine, splidt_model, splidt_rules, trace):
    flows, table_size, eviction = trace
    program, result = _replay(splidt_model, splidt_rules, flows, table_size, eviction, engine)
    packet_times = {flow.flow_id: {p.timestamp for p in flow.packets} for flow in flows}
    for flow_id, verdict in result.verdicts.items():
        # A verdict is credited to the flow whose packet triggered it.
        assert verdict.decided_at in packet_times[flow_id]
        assert verdict.decided_at >= verdict.first_packet_at
    # Recirculations of evicted, overwritten and unfinished epochs are on the
    # channel but on no surviving verdict.
    recirculated = result.recirculation["packets"]
    assert recirculated >= sum(v.n_recirculations for v in result.verdicts.values())
    stats = program.eviction_stats()
    assert stats["evictions"] >= len(stats["evicted_flows"])
    if eviction[0] == "none":
        assert stats["evictions"] == 0
    # Slot accounting that does not mention the reference: an eviction hands
    # the slot to a newly admitted flow, and an admission decides at most once.
    assert stats["evictions"] <= stats["admissions"] <= sum(f.n_packets for f in flows)
    assert len(result.verdicts) <= program.controller.n_digests <= stats["admissions"]
    if engine == "vectorized":
        # Packets in = lockstep + slot-stream + per-packet: each counted once.
        paths = program.replay_stats["packets"]
        assert sum(paths.values()) == sum(f.n_packets for f in flows), paths
        assert program.replay_stats["deferred"]["packets"] <= paths["slot_stream"]


@given(trace=_contended_trace())
@settings(max_examples=60, deadline=None)
def test_deferred_slot_state_is_the_reference_state(splidt_model, splidt_rules, trace):
    # The batched planes record the slot state they end with as columns:
    # read as the oracle's objects, it must be what the oracle holds, field
    # by field, every operator register included.
    from test_slot_stream_plane import assert_same_slot_state

    flows, table_size, eviction = trace
    reference, _ = _replay(splidt_model, splidt_rules, flows, table_size, eviction, "reference")
    fused, _ = _replay(splidt_model, splidt_rules, flows, table_size, eviction, "vectorized")
    assert_same_slot_state(reference, fused)


@pytest.mark.parametrize("engine", ["reference", "vectorized"])
@given(trace=_contended_trace(), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_replay_is_invariant_under_flow_list_permutation(
    engine, splidt_model, splidt_rules, trace, seed
):
    # Arrival order is (timestamp, flow id): where a flow sits in the list
    # the replay is given must not matter.
    flows, table_size, eviction = trace
    shuffled = list(flows)
    random.Random(seed).shuffle(shuffled)
    outcomes = []
    for ordering in (flows, shuffled):
        program, result = _replay(
            splidt_model, splidt_rules, ordering, table_size, eviction, engine
        )
        outcomes.append(
            (
                {
                    fid: (v.label, v.decided_at, v.first_packet_at, v.n_recirculations)
                    for fid, v in result.verdicts.items()
                },
                result.recirculation,
                program.eviction_stats(),
            )
        )
    assert outcomes[0] == outcomes[1]
