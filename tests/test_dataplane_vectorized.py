"""Engine-parity tests: the vectorized replay must match the reference loop.

The contract (see ``repro/dataplane/vectorized.py``): for any dataset,
``replay_dataset(..., engine="vectorized")`` produces bit-identical verdicts
(label, decision time, first-packet time, recirculation count, early-exit
flag), time-to-detection arrays and recirculation statistics to
``engine="reference"``.  The suite exercises several D-datasets, jittered
concurrent starts, ``max_flows`` truncation, and a deliberately tiny register
file that forces hash collisions (the slot-stream plane).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import core, datasets
from repro.core.range_marking import generate_rules
from repro.dataplane import SpliDTDataPlane, replay_dataset
from repro.datasets.flows import PacketArrays


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
    assert reference.labels == vectorized.labels
    assert reference.report.f1_score == vectorized.report.f1_score
    assert reference.report.accuracy == vectorized.report.accuracy
    assert reference.recirculation == vectorized.recirculation


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
        reference = replay_dataset(
            SpliDTDataPlane(model, rules, flow_slots=flow_slots),
            dataset,
            engine="reference",
            **kwargs,
        )
        vectorized = replay_dataset(
            SpliDTDataPlane(model, rules, flow_slots=flow_slots),
            dataset,
            engine="vectorized",
            **kwargs,
        )
        return reference, vectorized

    def test_plain_replay(self, artifacts):
        _assert_identical(*self._both(artifacts))

    def test_jittered_starts(self, artifacts):
        _assert_identical(*self._both(artifacts, jitter_starts=True, seed=5))

    def test_max_flows_truncation(self, artifacts):
        _assert_identical(*self._both(artifacts, max_flows=97))

    def test_forced_collisions_use_scalar_path(self, artifacts):
        # 64 slots for 360 flows: most flows share a slot and take the
        # slot-stream plane; the rest stay on the flow-lockstep plane.  The
        # mixture must still be exact.
        _assert_identical(*self._both(artifacts, flow_slots=64))

    def test_collisions_with_jitter(self, artifacts):
        _assert_identical(
            *self._both(artifacts, flow_slots=128, jitter_starts=True, seed=2)
        )

    def test_single_flow(self, artifacts):
        _assert_identical(*self._both(artifacts, max_flows=1))

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_max_flows_zero_replays_nothing(self, artifacts, engine):
        # Regression: ``max_flows=0`` used to be read as "no limit".
        dataset, model, rules = artifacts
        result = replay_dataset(
            SpliDTDataPlane(model, rules), dataset, max_flows=0, engine=engine
        )
        assert result.verdicts == {} and result.labels == {}


@pytest.mark.parametrize(
    "key,depth,k,partitions",
    [("D1", 8, 6, 4), ("D2", 10, 5, 5), ("D4", 8, 8, 2)],
)
def test_splidt_parity_across_datasets(key, depth, k, partitions):
    """Different datasets/configs activate different feature kernels."""
    dataset, model, rules = _splidt_artifacts(
        key, n_flows=120, depth=depth, k=k, partitions=partitions, seed=13
    )
    reference = replay_dataset(
        SpliDTDataPlane(model, rules, flow_slots=8192),
        dataset,
        engine="reference",
        jitter_starts=True,
    )
    vectorized = replay_dataset(
        SpliDTDataPlane(model, rules, flow_slots=8192),
        dataset,
        engine="vectorized",
        jitter_starts=True,
    )
    _assert_identical(reference, vectorized)


class TestTopKParity:
    """The NetBeacon program, as its registered system builds it, on both engines."""

    def _both(self, factory, dataset, *, flow_slots=8192, **kwargs):
        reference = replay_dataset(factory(flow_slots)(), dataset, engine="reference", **kwargs)
        vectorized = replay_dataset(factory(flow_slots)(), dataset, engine="vectorized", **kwargs)
        return reference, vectorized

    def test_plain_replay(self, netbeacon_factory, small_dataset):
        _assert_identical(*self._both(netbeacon_factory, small_dataset))

    def test_jittered_starts(self, netbeacon_factory, small_dataset):
        _assert_identical(
            *self._both(netbeacon_factory, small_dataset, jitter_starts=True, seed=9)
        )

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
            window = soa.flow_slice(index)
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
        # "fused" is a removed engine name: rejected like any unknown one.
        for engine in ("warp", "fused"):
            with pytest.raises(ValueError, match="unknown engine"):
                replay_dataset(program, small_dataset, engine=engine)


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
    """The lookup knob must not change a single replayed bit."""

    def test_vectorized_replay_scan_vs_lut(self, small_dataset, splidt_model, splidt_rules):
        results = {}
        try:
            for mode in ("scan", "lut"):
                splidt_rules.set_lookup(mode)
                program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=8192)
                results[mode] = replay_dataset(
                    program, small_dataset, max_flows=150, engine="vectorized"
                )
        finally:
            # splidt_rules is session-scoped: restore the default even when
            # the replay raises, so later tests never inherit scan mode.
            splidt_rules.set_lookup("lut")
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
    expected = replay_dataset(baseline, small_dataset, max_flows=80, engine="vectorized")
    assert set(program.verdicts) == set(expected.verdicts)
    for flow_id, verdict in program.verdicts.items():
        other = expected.verdicts[flow_id]
        assert (verdict.label, verdict.decided_at, verdict.early_exit) == (
            other.label,
            other.decided_at,
            other.early_exit,
        )
