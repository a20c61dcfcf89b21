"""Parity tests: the batched replay must match the per-packet oracle.

The contract (see ``repro/dataplane/vectorized.py``): for any dataset,
``replay_dataset`` produces bit-identical verdicts (label, decision time,
first-packet time, recirculation count, early-exit flag), time-to-detection
arrays and recirculation statistics to ``oracle.replay_dataset``.  The suite
exercises several D-datasets, overlapping flow starts (``_shifted_starts``),
``max_flows`` truncation, and a deliberately tiny register file that forces
hash collisions (the slot-stream plane).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import core, datasets
from repro.core.range_marking import generate_rules
from repro.dataplane import SpliDTDataPlane, oracle, replay_dataset
from repro.datasets.flows import FlowDataset, LazyFlowList, PacketArrays


def _assert_identical(reference, vectorized):
    """Field-by-field equality of two ReplayResults."""
    assert set(reference.verdicts) == set(vectorized.verdicts)
    for flow_id, ref_verdict in reference.verdicts.items():
        vec_verdict = vectorized.verdicts[flow_id]
        assert ref_verdict.label == vec_verdict.label
        assert ref_verdict.decided_at == vec_verdict.decided_at
        assert ref_verdict.first_packet_at == vec_verdict.first_packet_at
        assert ref_verdict.n_recirculations == vec_verdict.n_recirculations
        assert ref_verdict.early_exit == vec_verdict.early_exit
    assert np.array_equal(reference.time_to_detection(), vectorized.time_to_detection())
    assert np.array_equal(
        reference.recirculations_per_flow(), vectorized.recirculations_per_flow()
    )
    assert np.array_equal(reference.truth_ids, vectorized.truth_ids)
    assert np.array_equal(reference.truth_labels, vectorized.truth_labels)
    assert reference.report.f1_score == vectorized.report.f1_score
    assert reference.report.accuracy == vectorized.report.accuracy
    assert reference.recirculation == vectorized.recirculation


def _shifted_starts(dataset, seed):
    """``dataset`` with each flow's packets shifted by one ``uniform(0, 10)`` s draw.

    One offset per flow, drawn in flow order, so flows that started apart
    overlap: the replay sees concurrent flows and a new interleave.
    """
    soa = dataset.packet_arrays()
    offsets = np.random.default_rng(seed).uniform(0.0, 10.0, size=soa.n_flows)
    shifted = PacketArrays.from_columns(
        **{**soa._columns(), "timestamps": soa.timestamps + offsets[soa.packet_flow]}
    )
    return FlowDataset(
        name=dataset.name,
        description=dataset.description,
        flows=LazyFlowList(shifted, dataset.class_names),
        class_names=list(dataset.class_names),
        metadata=dict(dataset.metadata),
    )


def _splidt_artifacts(key: str, *, n_flows: int, depth: int, k: int, partitions: int, seed: int):
    dataset = datasets.load_dataset(key, n_flows=n_flows, seed=seed)
    store = datasets.DatasetStore(dataset, random_state=seed)
    windowed = store.fetch(partitions)
    base = depth // partitions
    sizes = tuple([base] * (partitions - 1) + [depth - base * (partitions - 1)])
    config = core.SpliDTConfig(
        depth=depth, features_per_subtree=k, partition_sizes=sizes
    )
    model = core.train_partitioned_tree(windowed, config, random_state=seed)
    training = np.vstack(
        [windowed.partition_matrix(p, "train") for p in range(partitions)]
    )
    rules = generate_rules(model, training)
    return dataset, model, rules


class TestSpliDTParity:
    @pytest.fixture(scope="class")
    def artifacts(self, splidt_model, splidt_rules, small_dataset):
        return small_dataset, splidt_model, splidt_rules

    def _both(self, artifacts, *, flow_slots=8192, **kwargs):
        dataset, model, rules = artifacts
        reference = oracle.replay_dataset(
            SpliDTDataPlane(model, rules, flow_slots=flow_slots), dataset, **kwargs
        )
        vectorized = replay_dataset(
            SpliDTDataPlane(model, rules, flow_slots=flow_slots), dataset, **kwargs
        )
        return reference, vectorized

    def test_plain_replay(self, artifacts):
        _assert_identical(*self._both(artifacts))

    def test_jittered_starts(self, artifacts):
        dataset, model, rules = artifacts
        _assert_identical(*self._both((_shifted_starts(dataset, 5), model, rules)))

    def test_max_flows_truncation(self, artifacts):
        _assert_identical(*self._both(artifacts, max_flows=97))

    def test_forced_collisions_use_scalar_path(self, artifacts):
        # 64 slots for 360 flows: most flows share a slot and take the
        # slot-stream plane; the rest stay on the flow-lockstep plane.  The
        # mixture must still be exact.
        _assert_identical(*self._both(artifacts, flow_slots=64))

    def test_collisions_with_jitter(self, artifacts):
        dataset, model, rules = artifacts
        _assert_identical(
            *self._both((_shifted_starts(dataset, 2), model, rules), flow_slots=128)
        )

    def test_single_flow(self, artifacts):
        _assert_identical(*self._both(artifacts, max_flows=1))

    @pytest.mark.parametrize(
        "replay", [oracle.replay_dataset, replay_dataset], ids=["reference", "vectorized"]
    )
    def test_max_flows_zero_replays_nothing(self, artifacts, replay):
        # Regression: ``max_flows=0`` used to be read as "no limit".
        dataset, model, rules = artifacts
        result = replay(SpliDTDataPlane(model, rules), dataset, max_flows=0)
        assert result.verdicts == {} and result.truth_ids.size == 0


@pytest.mark.parametrize(
    "key,depth,k,partitions",
    [("D1", 8, 6, 4), ("D2", 10, 5, 5), ("D4", 8, 8, 2)],
)
def test_splidt_parity_across_datasets(key, depth, k, partitions):
    """Different datasets/configs activate different feature kernels."""
    dataset, model, rules = _splidt_artifacts(
        key, n_flows=120, depth=depth, k=k, partitions=partitions, seed=13
    )
    shifted = _shifted_starts(dataset, 0)
    reference = oracle.replay_dataset(SpliDTDataPlane(model, rules, flow_slots=8192), shifted)
    vectorized = replay_dataset(SpliDTDataPlane(model, rules, flow_slots=8192), shifted)
    _assert_identical(reference, vectorized)


class TestTopKParity:
    """The NetBeacon program, as its registered system builds it, replayed and oracled."""

    def _both(self, factory, dataset, *, flow_slots=8192, **kwargs):
        reference = oracle.replay_dataset(factory(flow_slots)(), dataset, **kwargs)
        vectorized = replay_dataset(factory(flow_slots)(), dataset, **kwargs)
        return reference, vectorized

    def test_plain_replay(self, netbeacon_factory, small_dataset):
        _assert_identical(*self._both(netbeacon_factory, small_dataset))

    def test_jittered_starts(self, netbeacon_factory, small_dataset):
        _assert_identical(*self._both(netbeacon_factory, _shifted_starts(small_dataset, 9)))

    def test_max_flows_truncation(self, netbeacon_factory, small_dataset):
        _assert_identical(*self._both(netbeacon_factory, small_dataset, max_flows=50))

    def test_forced_collisions(self, netbeacon_factory, small_dataset):
        _assert_identical(*self._both(netbeacon_factory, small_dataset, flow_slots=64))


class TestPacketArrays:
    def test_flow_major_layout(self, small_dataset):
        soa = small_dataset.packet_arrays()
        assert soa.n_flows == small_dataset.n_flows
        assert soa.n_packets == sum(f.n_packets for f in small_dataset.flows)
        for index in (0, 7, soa.n_flows - 1):
            flow = small_dataset.flows[index]
            window = slice(soa.flow_starts[index], soa.flow_starts[index + 1])
            assert np.array_equal(
                soa.timestamps[window], [p.timestamp for p in flow.packets]
            )
            assert np.array_equal(soa.sizes[window], [p.size for p in flow.packets])

    def test_interleave_matches_event_sort(self, small_dataset):
        soa = small_dataset.packet_arrays()
        events = []
        for index, flow in enumerate(small_dataset.flows):
            for offset, packet in enumerate(flow.packets):
                events.append(
                    (packet.timestamp, flow.flow_id, int(soa.flow_starts[index]) + offset)
                )
        events.sort(key=lambda item: (item[0], item[1]))
        assert np.array_equal(soa.interleave_order, [position for _, _, position in events])

    def test_empty(self):
        soa = PacketArrays.from_flows([])
        assert soa.n_flows == 0 and soa.n_packets == 0

    def test_rejects_unknown_engine(self, small_dataset, splidt_model, splidt_rules):
        program = SpliDTDataPlane(splidt_model, splidt_rules)
        # The replay has no engine to select: the keyword is rejected, for
        # removed names ("fused", "reference") and the one it ran alike.
        for engine in ("warp", "fused", "reference", "vectorized"):
            with pytest.raises(TypeError, match="engine"):
                replay_dataset(program, small_dataset, engine=engine)
        assert program.verdicts == {}


class TestLastWindowSemantics:
    """Regression suite pinning `step_windows`' last-window mask logic.

    The advance/early-exit masks are explicit boolean arrays; at the last
    window a ``next``-subtree outcome must *not* advance (the flow gets the
    default label) and an exit outcome is not an early exit.
    """

    def _program_and_rows(self, splidt_model, splidt_rules, windowed3, kind):
        """A fresh program plus feature rows classifying as ``kind`` in some subtree.

        ``step_windows``' mask logic depends only on the outcome kinds and
        the window index, so any subtree with the wanted outcome serves.
        """
        from repro.core.range_marking import KIND_EXIT, KIND_NEXT

        program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=4096)
        matrix = np.vstack([windowed3.partition_matrix(p, "train") for p in range(3)])
        target = KIND_NEXT if kind == "next" else KIND_EXIT
        for sid in splidt_rules.subtree_rules:
            kinds, values = splidt_rules.classify_batch(sid, matrix)
            rows = np.flatnonzero(kinds == target)[:4]
            if rows.size:
                return program, matrix[rows], values[rows], sid
        raise AssertionError(f"model has no {kind} outcome in any subtree")

    def _step(self, program, features, sid, window_index):
        n = features.shape[0]
        return program.step_windows(
            flow_ids=np.arange(n, dtype=np.int64),
            sids=np.full(n, sid, dtype=np.int64),
            window_index=window_index,
            feature_matrix=features,
            boundary_ts=np.full(n, 2.0),
            first_packet_ts=np.zeros(n),
        )

    def test_next_outcome_does_not_advance_at_last_window(
        self, splidt_model, splidt_rules, windowed3
    ):
        program, features, values, root = self._program_and_rows(
            splidt_model, splidt_rules, windowed3, "next"
        )
        last = splidt_model.config.n_partitions - 1
        advance, _ = self._step(program, features, root, last)
        assert isinstance(advance, np.ndarray) and advance.dtype == np.bool_
        assert not advance.any()
        for verdict in program.verdicts.values():
            assert verdict.label == splidt_model.default_label
            assert verdict.early_exit is False
            assert verdict.n_recirculations == last

    def test_next_outcome_advances_before_last_window(
        self, splidt_model, splidt_rules, windowed3
    ):
        program, features, values, root = self._program_and_rows(
            splidt_model, splidt_rules, windowed3, "next"
        )
        advance, next_sids = self._step(program, features, root, 0)
        assert advance.dtype == np.bool_
        assert advance.all()
        assert np.array_equal(next_sids, values)
        assert not program.verdicts

    def test_exit_at_last_window_is_not_early(
        self, splidt_model, splidt_rules, windowed3
    ):
        program, features, values, root = self._program_and_rows(
            splidt_model, splidt_rules, windowed3, "exit"
        )
        last = splidt_model.config.n_partitions - 1
        advance, _ = self._step(program, features, root, last)
        assert not advance.any()
        verdicts = program.verdicts
        assert len(verdicts) == features.shape[0]
        for flow_id, verdict in verdicts.items():
            assert verdict.label == int(values[flow_id])
            assert verdict.early_exit is False

    def test_exit_before_last_window_is_early(
        self, splidt_model, splidt_rules, windowed3
    ):
        program, features, values, root = self._program_and_rows(
            splidt_model, splidt_rules, windowed3, "exit"
        )
        advance, _ = self._step(program, features, root, 0)
        assert not advance.any()
        for verdict in program.verdicts.values():
            assert verdict.early_exit is True


class TestLookupModes:
    """The LUT's over-cap fallback, the rule scan, must not change a single replayed bit."""

    def test_vectorized_replay_scan_vs_lut(self, small_dataset, splidt_model, splidt_rules):
        results = {}
        scanning = dataclasses.replace(splidt_rules, lut_max_cells=0)
        for mode, rules in (("scan", scanning), ("lut", splidt_rules)):
            program = SpliDTDataPlane(splidt_model, rules, flow_slots=8192)
            results[mode] = replay_dataset(program, small_dataset, max_flows=150)
        assert scanning.compiled_lookup().stats()["n_compiled"] == 0
        assert splidt_rules.compiled_lookup().stats()["n_compiled"] > 0
        _assert_identical(results["scan"], results["lut"])


def test_replay_arrays_matches_replay_dataset(small_dataset, splidt_model, splidt_rules):
    """`replay_arrays` (the documented public batch entry) works standalone.

    Regression: it used to crash with a NameError on its occupancy table
    because the serve engines bypassed it in normal runs.
    """
    from repro.dataplane.vectorized import replay_arrays

    flows = small_dataset.flows[:80]
    program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192)
    replay_arrays(program, flows)
    baseline = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192)
    expected = replay_dataset(baseline, small_dataset, max_flows=80)
    assert set(program.verdicts) == set(expected.verdicts)
    for flow_id, verdict in program.verdicts.items():
        other = expected.verdicts[flow_id]
        assert (verdict.label, verdict.decided_at, verdict.early_exit) == (
            other.label,
            other.decided_at,
            other.early_exit,
        )
