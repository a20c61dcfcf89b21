"""Unit tests for the synthetic traffic generators (D1–D7)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets.flows import PacketArrays
from repro.datasets.generators import (
    ATTRIBUTE_GROUPS,
    N_LEVELS,
    N_PHASES,
    AttributeGroup,
    PhaseShiftGenerator,
    SyntheticTrafficGenerator,
    generate_dataset,
)
from repro.datasets.profiles import get_profile
from repro.datasets.registry import available_datasets, dataset_summary, load_dataset


class TestProfiles:
    def test_all_seven_datasets_available(self):
        assert available_datasets() == ("D1", "D2", "D3", "D4", "D5", "D6", "D7")

    def test_class_counts_match_paper_table2(self):
        expected = {"D1": 19, "D2": 4, "D3": 13, "D4": 11, "D5": 32, "D6": 10, "D7": 10}
        for key, classes in expected.items():
            assert get_profile(key).n_classes == classes

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            get_profile("D99")

    def test_summary_contains_source(self):
        summary = dataset_summary("D3")
        assert summary["classes"] == 13
        assert "VPN" in summary["source"]


class TestGenerator:
    def test_generates_requested_flow_count(self):
        dataset = generate_dataset("D2", n_flows=50, seed=0)
        assert dataset.n_flows == 50

    def test_every_class_present(self):
        # Every class is seeded at least once before label noise is applied,
        # so nearly all of the 19 classes must survive even in a small sample.
        dataset = generate_dataset("D1", n_flows=120, seed=0)
        assert len(set(dataset.labels())) >= 18

    def test_labels_within_range(self):
        dataset = generate_dataset("D5", n_flows=64, seed=1)
        assert dataset.labels().max() < 32
        assert dataset.labels().min() >= 0

    def test_deterministic_for_same_seed(self):
        a = generate_dataset("D3", n_flows=30, seed=5)
        b = generate_dataset("D3", n_flows=30, seed=5)
        assert a.labels().tolist() == b.labels().tolist()
        assert a.flows[0].n_packets == b.flows[0].n_packets
        assert a.flows[0].packets[0].size == b.flows[0].packets[0].size

    def test_different_seeds_differ(self):
        a = generate_dataset("D3", n_flows=30, seed=1)
        b = generate_dataset("D3", n_flows=30, seed=2)
        assert a.flows[0].packets[0].timestamp != b.flows[0].packets[0].timestamp

    def test_too_few_flows_raises(self):
        with pytest.raises(ValueError):
            generate_dataset("D5", n_flows=10, seed=0)

    def test_flows_have_monotone_timestamps(self):
        dataset = generate_dataset("D4", n_flows=20, seed=0)
        for flow in dataset.flows[:10]:
            times = [p.timestamp for p in flow.packets]
            assert all(b > a for a, b in zip(times, times[1:]))

    def test_packet_sizes_within_ethernet_bounds(self):
        dataset = generate_dataset("D6", n_flows=20, seed=0)
        for flow in dataset.flows:
            for packet in flow.packets:
                assert 40 <= packet.size <= 1514

    def test_class_names_aligned_with_labels(self):
        dataset = generate_dataset("D2", n_flows=20, seed=0)
        for flow in dataset.flows:
            assert dataset.class_names[flow.label] == flow.class_name

    def test_explicit_rng_matches_equivalent_seed(self):
        # Passing the generator's own derived rng explicitly must reproduce
        # the seed-only dataset bit for bit (the rng parameter changes where
        # the stream comes from, never how it is consumed).
        profile = get_profile("D3")
        seeded = SyntheticTrafficGenerator(profile, seed=5)
        explicit = SyntheticTrafficGenerator(
            profile, seed=5, rng=np.random.default_rng(seeded._dataset_seed())
        )
        a, b = seeded.generate(30), explicit.generate(30)
        assert a.labels().tolist() == b.labels().tolist()
        for fa, fb in zip(a.flows, b.flows):
            assert fa.five_tuple == fb.five_tuple
            assert [p.timestamp for p in fa.packets] == [p.timestamp for p in fb.packets]

    def test_shared_rng_decouples_flows_from_signatures(self):
        # Two generators drawing from one shared stream produce different
        # traffic but identical class signatures (signatures are a pure
        # function of profile+seed, untouched by the rng parameter).
        profile = get_profile("D2")
        shared = np.random.default_rng(99)
        first = SyntheticTrafficGenerator(profile, seed=5, rng=shared)
        second = SyntheticTrafficGenerator(profile, seed=5, rng=shared)
        a, b = first.generate(20), second.generate(20)
        assert a.flows[0].packets[0].timestamp != b.flows[0].packets[0].timestamp
        assert [s.levels for s in first.signatures] == [s.levels for s in second.signatures]

    def test_iter_flows_matches_generate(self):
        profile = get_profile("D4")
        streamed = list(SyntheticTrafficGenerator(profile, seed=3).iter_flows(25))
        materialised = SyntheticTrafficGenerator(profile, seed=3).generate(25).flows
        assert len(streamed) == len(materialised)
        for fa, fb in zip(streamed, materialised):
            assert fa.five_tuple == fb.five_tuple
            assert fa.label == fb.label
            assert [p.size for p in fa.packets] == [p.size for p in fb.packets]


def traffic_digest(flows) -> str:
    """SHA-256 over everything a generator decides about ``flows``."""
    soa = PacketArrays.from_flows(flows)
    digest = hashlib.sha256()
    for column in (
        soa.timestamps, soa.sizes, soa.flags, soa.directions, soa.payloads,
        soa.n_packets_per_flow, soa.labels,
    ):
        digest.update(np.ascontiguousarray(column).tobytes())
    tuples = [flow.five_tuple for flow in flows]
    identity = np.array(
        [[t.src_ip, t.dst_ip, t.src_port, t.dst_port, t.protocol] for t in tuples],
        dtype=np.int64,
    )
    digest.update(identity.tobytes())
    digest.update("\n".join(flow.class_name for flow in flows).encode())
    return digest.hexdigest()


#: Recorded from the generator as of PR 17 (per-packet ``_generate_packet``).
#: Every dataset, committed table and harness digest hangs off this rng draw
#: sequence: a change here is a re-bless-everything change, never a refactor.
GOLDEN = {
    ("D1", 40, 0): "4c7583ebc0dab7641829c09f01db7f86c211d83e8a443841a2cfdd63449fec92",
    ("D1", 64, 11): "d8b24a159ebba9742e8dfb1410a382aa688bb5170673c6718d36c0f027f81ca4",
    ("D2", 40, 0): "227e423f0d0424f791f99477099bf3f33ec00b0b62087e3688a993d4bfdf9177",
    ("D2", 64, 11): "eea8e6bb2dd5b7aa88aef5a24cc5d2b979fb1c6ae677a943363f804ffd907399",
    ("D3", 40, 0): "00ec147ef5f6ac2a613bcb9569f2b6fab68cbdda3ed047c660f5b7c91bc02968",
    ("D3", 64, 11): "53aa1ec8c74e48e9ba567c0a6f548d07e7ee4bf1fa24a3de6592c447a8f07072",
    ("D4", 40, 0): "ac3d64d3334caf2903ec6c00c2be2661843081f0d1087e7e847732e4b49600d0",
    ("D4", 64, 11): "524dc7a97d1e00bdaef57b93d2d20af155b960f7a2a0c4f58b1eff581689899f",
    ("D5", 40, 0): "a1febbde68145f78d6f3f746cbd2599d552d54f90c936faa5ef55d8ddc874948",
    ("D5", 64, 11): "e9307f289a6f3716e95f9003d09cc5084b7fad9b2cb1298611be7c91437b3195",
    ("D6", 40, 0): "1a5e4a8603a748e5a697de4fd8c8eff10afa45dfb7516583197b7dadc201b95c",
    ("D6", 64, 11): "7e5e3d7701eb318606164855521e8d4259f5bf3a1e35fc6cd5208be223f8d9d6",
    ("D7", 40, 0): "18b40e77285de0a0f7b6eccd2bbae8f0a105fc2aa33668565416f7bd017d337f",
    ("D7", 64, 11): "1b6f2f2d23d6532786bdbed1e94bc142461875f30ca0949cceb7591515380bcd",
}

#: ``PhaseShiftGenerator(D3, seed=4, horizon=30.0).generate(48)`` per (shift_at, rotation).
GOLDEN_SHIFT = {
    (0.5, 1): "b06c1262bc141c379948923ebe7a3dbb3fac8635d469477716d39779072f2320",
    (0.3, 2): "dd70598487dbb4530a3342bce0c16273a8ac9aa4c0b73ddbb86f780b3d21fb03",
}


class TestGoldenTraffic:
    @pytest.mark.parametrize("key,n_flows,seed", sorted(GOLDEN))
    def test_dataset_digest(self, key, n_flows, seed):
        generator = SyntheticTrafficGenerator(get_profile(key), seed=seed)
        assert traffic_digest(generator.generate(n_flows).flows) == GOLDEN[key, n_flows, seed]

    def test_iter_flows_draws_the_same_traffic(self):
        generator = SyntheticTrafficGenerator(get_profile("D3"), seed=11)
        assert traffic_digest(list(generator.iter_flows(64))) == GOLDEN["D3", 64, 11]

    @pytest.mark.parametrize("shift_at,rotation", sorted(GOLDEN_SHIFT))
    def test_phase_shift_digest(self, shift_at, rotation):
        generator = PhaseShiftGenerator(
            get_profile("D3"), seed=4, shift_at=shift_at, rotation=rotation, horizon=30.0
        )
        assert traffic_digest(generator.generate(48).flows) == GOLDEN_SHIFT[shift_at, rotation]

    def test_parameters_resolve_once_per_phase_not_per_packet(self, monkeypatch):
        calls = []
        resolve = AttributeGroup.value

        def counting(self, level, phase, separability):
            calls.append(self.name)
            return resolve(self, level, phase, separability)

        monkeypatch.setattr(AttributeGroup, "value", counting)
        generator = SyntheticTrafficGenerator(get_profile("D3"), seed=0)
        longest = 0
        for flow_id in range(40):
            calls.clear()
            flow = generator._generate_flow(flow_id, flow_id % 13, generator._rng)
            assert len(calls) <= N_PHASES * len(ATTRIBUTE_GROUPS)
            longest = max(longest, flow.n_packets)
        assert longest >= 200


class TestSignatures:
    def test_signature_levels_cover_all_groups(self):
        generator = SyntheticTrafficGenerator(get_profile("D3"), seed=0)
        for signature in generator.signatures:
            assert set(signature.levels) == {g.name for g in ATTRIBUTE_GROUPS}
            assert all(0 <= level < N_LEVELS for level in signature.levels.values())

    def test_signatures_differ_between_classes(self):
        generator = SyntheticTrafficGenerator(get_profile("D1"), seed=0)
        codes = {tuple(sorted(s.levels.items())) for s in generator.signatures}
        assert len(codes) > 1

    def test_minimum_informative_groups(self):
        generator = SyntheticTrafficGenerator(get_profile("D3"), seed=0)
        minimum = max(3, get_profile("D3").signature_features)
        for signature in generator.signatures:
            non_neutral = sum(1 for level in signature.levels.values() if level != 1)
            assert non_neutral >= minimum

    def test_group_phases_span_all_phases(self):
        phases = {g.phase for g in ATTRIBUTE_GROUPS if g.phase is not None}
        assert phases == set(range(N_PHASES))

    def test_attribute_group_value_interpolation(self):
        group = ATTRIBUTE_GROUPS[0]
        neutral = group.value(1, group.phase, 1.0)
        low = group.value(0, group.phase, 1.0)
        high = group.value(2, group.phase, 1.0)
        assert low < neutral < high
        # Outside the expressed phase the value collapses towards neutral.
        other_phase = (group.phase + 1) % N_PHASES
        assert abs(group.value(2, other_phase, 1.0) - neutral) < abs(high - neutral)


class TestDatasetLearnability:
    def test_windows_carry_class_signal(self):
        """A full-feature tree on window features must beat random guessing."""
        from repro.datasets.materialize import materialize
        from repro.ml import DecisionTreeClassifier
        from repro.ml.metrics import f1_score

        dataset = load_dataset("D2", n_flows=240, seed=3)
        windowed = materialize(dataset, 2, random_state=3)
        X_train = np.hstack([windowed.partition_matrix(p, "train") for p in range(2)])
        X_test = np.hstack([windowed.partition_matrix(p, "test") for p in range(2)])
        tree = DecisionTreeClassifier(max_depth=10, min_samples_leaf=3)
        tree.fit(X_train, windowed.split_labels("train"))
        score = f1_score(windowed.split_labels("test"), tree.predict(X_test), "weighted")
        assert score > 1.5 / windowed.n_classes
