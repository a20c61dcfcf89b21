"""Materialisation of flow datasets into window-feature matrices.

The SpliDT training pipeline (Figure 5 in the paper) queries a *dataset
store* for window-based training/test data matching a proposed number of
partitions.  :class:`WindowedDataset` plays that role: it holds, for one
``FlowDataset`` and one partition count ``P``, the per-partition feature
matrices ``X[p]`` (statistics of window ``p`` of every flow), the whole-flow
matrix used by the one-shot baselines, the per-packet (stateless) matrix used
by the IIsy-style baseline, and the labels.

:class:`DatasetStore` caches materialisations so the Bayesian-optimisation
loop does not recompute features for every candidate configuration (the
paper's "Fetch" stage).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.flows import FlowDataset
from repro.features.flowmeter import FlowMeter, quantize_features
from repro.ml.model_selection import train_test_split


@dataclass
class WindowedDataset:
    """Feature-space view of a flow dataset for a fixed partition count.

    Attributes:
        name: Source dataset name.
        n_partitions: Number of windows each flow was split into.
        window_features: Array ``(n_partitions, n_flows, n_features)`` — the
            statistics of window ``p`` of flow ``i``.
        flow_features: Array ``(n_flows, n_features)`` — whole-flow statistics
            (one-shot baseline view).
        packet_features: Array ``(n_flows, n_features)`` — stateless features
            of the first packet (per-packet baseline view).
        labels: Class labels, aligned with the flow axis.
        class_names: Index-aligned class names.
        train_indices / test_indices: The stratified train/test split.
    """

    name: str
    n_partitions: int
    window_features: np.ndarray
    flow_features: np.ndarray
    packet_features: np.ndarray
    labels: np.ndarray
    class_names: list[str]
    train_indices: np.ndarray
    test_indices: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def n_flows(self) -> int:
        """Number of flows."""
        return int(self.labels.shape[0])

    @property
    def n_features(self) -> int:
        """Number of features per vector."""
        return int(self.flow_features.shape[1])

    @property
    def n_classes(self) -> int:
        """Number of classes."""
        return len(self.class_names)

    # ------------------------------------------------------------------
    # Convenience accessors used by training code
    # ------------------------------------------------------------------
    def partition_matrix(self, partition: int, split: str = "train") -> np.ndarray:
        """Feature matrix of window ``partition`` for the given split."""
        indices = self._split_indices(split)
        return self.window_features[partition][indices]

    def flow_matrix(self, split: str = "train") -> np.ndarray:
        """Whole-flow feature matrix for the given split."""
        return self.flow_features[self._split_indices(split)]

    def packet_matrix(self, split: str = "train") -> np.ndarray:
        """Stateless per-packet feature matrix for the given split."""
        return self.packet_features[self._split_indices(split)]

    def split_labels(self, split: str = "train") -> np.ndarray:
        """Labels for the given split."""
        return self.labels[self._split_indices(split)]

    def _split_indices(self, split: str) -> np.ndarray:
        if split == "train":
            return self.train_indices
        if split == "test":
            return self.test_indices
        if split == "all":
            return np.arange(self.n_flows)
        raise ValueError("split must be 'train', 'test' or 'all'")

    def with_precision(self, bit_width: int) -> "WindowedDataset":
        """Return a copy whose feature values are quantised to ``bit_width`` bits."""
        return WindowedDataset(
            name=self.name,
            n_partitions=self.n_partitions,
            window_features=np.stack(
                [quantize_features(m, bit_width) for m in self.window_features]
            ),
            flow_features=quantize_features(self.flow_features, bit_width),
            packet_features=quantize_features(self.packet_features, bit_width),
            labels=self.labels.copy(),
            class_names=list(self.class_names),
            train_indices=self.train_indices.copy(),
            test_indices=self.test_indices.copy(),
            metadata={**self.metadata, "bit_width": bit_width},
        )


def _flow_views(
    dataset: FlowDataset, test_size: float, random_state: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The parts of a materialisation that do not depend on the partition count.

    ``(flow_features, packet_features, labels, train_indices, test_indices)``,
    computed once per ``(test_size, random_state)`` and kept on the dataset's
    packet arrays, so a :class:`DatasetStore` pays for them at its first
    partition count only.  Every :class:`WindowedDataset` of the dataset
    holds these same arrays; they are read-only for that reason.
    """
    soa = dataset.packet_arrays()
    key = ("flow_views", test_size, random_state)
    views = soa.derived.get(key)
    if views is None:
        meter = FlowMeter()
        labels = soa.labels.astype(np.intp)
        train_idx, test_idx, _, _ = train_test_split(
            np.arange(soa.n_flows).reshape(-1, 1),
            labels,
            test_size=test_size,
            stratify=True,
            random_state=random_state,
        )
        views = (
            meter.extract_flow_matrix(soa),
            meter.extract_packet_matrix(soa),
            labels,
            train_idx[:, 0].astype(np.intp),
            test_idx[:, 0].astype(np.intp),
        )
        for array in views:
            array.flags.writeable = False
        soa.derived[key] = views
    return views


def materialize(
    dataset: FlowDataset,
    n_partitions: int,
    *,
    test_size: float = 0.3,
    random_state: int = 0,
) -> WindowedDataset:
    """Extract window / flow / packet feature matrices from a flow dataset."""
    if n_partitions < 1:
        raise ValueError("n_partitions must be >= 1")
    flow_features, packet_features, labels, train_indices, test_indices = _flow_views(
        dataset, test_size, random_state
    )
    return WindowedDataset(
        name=dataset.name,
        n_partitions=n_partitions,
        window_features=FlowMeter().extract_window_matrix(
            dataset.packet_arrays(), n_partitions
        ),
        flow_features=flow_features,
        packet_features=packet_features,
        labels=labels,
        class_names=list(dataset.class_names),
        train_indices=train_indices,
        test_indices=test_indices,
        metadata=dict(dataset.metadata),
    )


class DatasetStore:
    """Caches :class:`WindowedDataset` materialisations per partition count.

    The paper stores pre-processed window datasets in an external database
    (PostgreSQL / MongoDB); an in-memory cache keyed by partition count plays
    the same role for the design-search loop.
    """

    def __init__(self, dataset: FlowDataset, *, test_size: float = 0.3, random_state: int = 0):
        self.dataset = dataset
        self.test_size = test_size
        self.random_state = random_state
        self._cache: dict[int, WindowedDataset] = {}
        self.fetch_count = 0
        self.miss_count = 0

    def fetch(self, n_partitions: int) -> WindowedDataset:
        """Return (and cache) the materialisation for ``n_partitions`` windows."""
        self.fetch_count += 1
        if n_partitions not in self._cache:
            self.miss_count += 1
            self._cache[n_partitions] = materialize(
                self.dataset,
                n_partitions,
                test_size=self.test_size,
                random_state=self.random_state,
            )
        return self._cache[n_partitions]

    def __contains__(self, n_partitions: int) -> bool:
        return n_partitions in self._cache
