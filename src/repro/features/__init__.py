"""Window-aware flow feature engineering (CICFlowMeter equivalent).

* :mod:`repro.features.definitions` — the feature catalogue (41 features,
  stateful/stateless annotation, register dependency depth).
* :mod:`repro.features.window` — uniform window boundaries of flows.
* :mod:`repro.features.stateful` — per-packet register-update operators, the
  operator bank of the per-packet oracle (:mod:`repro.dataplane.oracle`);
  not imported here.

The feature matrices a model trains on are computed by the window plane
that replay and serving run (:mod:`repro.datasets.materialize`), bit for
bit the values the operator bank holds at each window boundary.
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
from repro.features.window import window_boundaries, window_bounds

__all__ = [
    "FEATURES",
    "FEATURES_BY_NAME",
    "N_FEATURES",
    "STATEFUL_INDICES",
    "STATELESS_INDICES",
    "FeatureDefinition",
    "dependency_depth",
    "window_boundaries",
    "window_bounds",
]
