"""Window-aware flow feature engineering (CICFlowMeter equivalent).

* :mod:`repro.features.definitions` — the feature catalogue (41 features,
  stateful/stateless annotation, register dependency depth).
* :mod:`repro.features.window` — uniform window segmentation of flows.
* :mod:`repro.features.flowmeter` — offline extraction of per-window,
  whole-flow and per-packet feature vectors.
* :mod:`repro.features.stateful` — per-packet register-update operators, the
  operator bank of the per-packet oracle (:mod:`repro.dataplane.oracle`);
  not imported here.
"""

from repro.features.definitions import (
    FEATURES,
    FEATURES_BY_NAME,
    N_FEATURES,
    STATEFUL_INDICES,
    STATELESS_INDICES,
    FeatureDefinition,
    dependency_depth,
)
from repro.features.flowmeter import FlowMeter
from repro.features.window import (
    split_packets,
    window_boundaries,
    window_bounds,
)

__all__ = [
    "FEATURES",
    "FEATURES_BY_NAME",
    "N_FEATURES",
    "STATEFUL_INDICES",
    "STATELESS_INDICES",
    "FeatureDefinition",
    "FlowMeter",
    "dependency_depth",
    "split_packets",
    "window_boundaries",
    "window_bounds",
]
