"""Unit tests for the feature catalogue."""

from __future__ import annotations

from repro.features.definitions import (
    FEATURES,
    FEATURES_BY_NAME,
    N_FEATURES,
    STATEFUL_INDICES,
    STATELESS_INDICES,
    dependency_depth,
    feature_names,
)


class TestCatalogue:
    def test_catalogue_size_matches_paper_n(self):
        # The paper quotes N = 41 features for dataset D1.
        assert N_FEATURES == 41

    def test_indices_are_contiguous(self):
        assert [f.index for f in FEATURES] == list(range(N_FEATURES))

    def test_names_are_unique(self):
        names = feature_names()
        assert len(names) == len(set(names))

    def test_lookup_by_name(self):
        assert FEATURES_BY_NAME["pkt_count"].stateful is True
        assert FEATURES_BY_NAME["src_port"].stateful is False

    def test_stateful_and_stateless_partition_catalogue(self):
        assert set(STATEFUL_INDICES) | set(STATELESS_INDICES) == set(range(N_FEATURES))
        assert set(STATEFUL_INDICES).isdisjoint(STATELESS_INDICES)

    def test_most_features_are_stateful(self):
        assert len(STATEFUL_INDICES) > len(STATELESS_INDICES)

    def test_stateless_features_have_no_dependencies(self):
        for index in STATELESS_INDICES:
            assert FEATURES[index].dependency_depth == 0

    def test_dependency_depth_within_paper_bound(self):
        # The paper observed chains of at most 3 stages.
        assert dependency_depth(list(range(N_FEATURES))) <= 3

    def test_dependency_depth_of_subset(self):
        counts = [FEATURES_BY_NAME["pkt_count"].index, FEATURES_BY_NAME["syn_count"].index]
        assert dependency_depth(counts) == 0
        with_iat = counts + [FEATURES_BY_NAME["std_iat"].index]
        assert dependency_depth(with_iat) == 3

    def test_dependency_depth_empty(self):
        assert dependency_depth([]) == 0

    def test_operators_are_known(self):
        known = {"count", "sum", "max", "min", "mean", "last", "rate", "stateless"}
        assert all(f.operator in known for f in FEATURES)
