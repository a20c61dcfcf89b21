"""Window-aware flow feature engineering (CICFlowMeter equivalent).

* :mod:`repro.features.definitions` — the feature catalogue (41 features,
  stateful/stateless annotation, register dependency depth).
* :mod:`repro.features.window` — uniform window segmentation of flows.
* :mod:`repro.features.flowmeter` — offline extraction of per-window,
  whole-flow and per-packet feature vectors.
* :mod:`repro.features.stateful` — per-packet register-update operators used
  by the data-plane simulator.
"""

from repro.features.definitions import (
    FEATURES,
    FEATURES_BY_NAME,
    N_FEATURES,
    STATEFUL_INDICES,
    STATELESS_INDICES,
    FeatureDefinition,
    dependency_depth,
    feature_names,
    max_dependency_depth,
)
from repro.features.flowmeter import FlowMeter, quantize_features
from repro.features.stateful import StatefulOperator, make_operator, make_operator_bank
from repro.features.window import (
    split_packets,
    window_boundaries,
    window_bounds,
    window_of_packet,
)

__all__ = [
    "FEATURES",
    "FEATURES_BY_NAME",
    "N_FEATURES",
    "STATEFUL_INDICES",
    "STATELESS_INDICES",
    "FeatureDefinition",
    "FlowMeter",
    "StatefulOperator",
    "dependency_depth",
    "feature_names",
    "make_operator",
    "make_operator_bank",
    "max_dependency_depth",
    "quantize_features",
    "split_packets",
    "window_boundaries",
    "window_bounds",
    "window_of_packet",
]
