"""Online serving: drift detection, retraining, atomic hot swap.

The serve engines (:mod:`repro.serve`) execute a fixed model; this package
closes the loop around them.  An :class:`OnlineController` watches the
verdict stream for drift (:mod:`repro.online.drift`), retrains the
partitioned model on recently labelled flows with the offline trainer
(Algorithm 1, :func:`repro.core.train_partitioned_tree`), and swaps the
refreshed model into the live engine atomically via
:meth:`repro.serve.InferenceEngine.swap_model` — in-flight flows finish on
the old model bit-exactly.

``python -m repro serve --online`` wires this into a serving session;
``python -m repro online-demo`` runs the phase-change scenario
(:mod:`repro.online.demo`) end to end.
"""

from __future__ import annotations

from repro.online.config import OnlineConfig, OnlineConfigError
from repro.online.demo import (
    MAX_RECOVERY_GAP,
    MIN_STATIC_DROP,
    default_online_config,
    run_phase_change_demo,
)
from repro.online.drift import DriftMonitor, PageHinkley
from repro.online.loop import (
    COOLDOWN,
    MONITORING,
    RETRAINING,
    OnlineController,
    OnlineEvent,
)

__all__ = [
    "COOLDOWN",
    "DriftMonitor",
    "MAX_RECOVERY_GAP",
    "MIN_STATIC_DROP",
    "MONITORING",
    "OnlineConfig",
    "OnlineConfigError",
    "OnlineController",
    "OnlineEvent",
    "PageHinkley",
    "RETRAINING",
    "default_online_config",
    "run_phase_change_demo",
]
