"""Declarative configuration for the online serve-path loop.

This module is import-light on purpose: :class:`OnlineConfig` nests inside
:class:`repro.pipeline.spec.ServeConfig`, so it must not pull the serve or
dataplane machinery into the spec layer.  Everything heavier lives in
:mod:`repro.online.drift` and :mod:`repro.online.loop`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.spec_codec import Spec


class OnlineConfigError(ValueError):
    """Raised when an :class:`OnlineConfig` fails validation."""


@dataclass(frozen=True)
class OnlineConfig(Spec):
    """Knobs of the drift-detect / retrain / hot-swap loop.

    Attributes:
        enabled: Run the online loop at all (``serve --online`` sets this).
        window: Sliding-window length of the rolling error-rate monitor.
        ph_delta: Page–Hinkley magnitude tolerance (drift smaller than this
            per-sample shift is absorbed silently).
        ph_threshold: Page–Hinkley alarm threshold on the cumulative
            deviation statistic.
        warmup_flows: Verdicts to observe before the detector may alarm
            (and, after a swap, before it may alarm again).
        min_retrain_flows: Labelled flows that must be buffered after an
            alarm before the model is retrained and the swap fires.
        retrain_window: Most-recent labelled flows kept for retraining
            (older flows are evicted; the drifted regime dominates).
        cooldown_flows: Verdicts to ignore after a swap before monitoring
            resumes (in-flight flows pinned to the old model would otherwise
            re-trigger the alarm immediately).
    """

    enabled: bool = False
    window: int = 64
    ph_delta: float = 0.15
    ph_threshold: float = 5.0
    warmup_flows: int = 32
    min_retrain_flows: int = 96
    retrain_window: int = 512
    cooldown_flows: int = 32

    _error = OnlineConfigError
    _label = "serve online"

    def validate(self) -> "OnlineConfig":
        """Check value ranges; returns ``self`` so calls chain."""
        if self.window < 1:
            raise OnlineConfigError(f"window must be >= 1, got {self.window}")
        if self.ph_delta < 0:
            raise OnlineConfigError(f"ph_delta must be >= 0, got {self.ph_delta}")
        if self.ph_threshold <= 0:
            raise OnlineConfigError(
                f"ph_threshold must be > 0, got {self.ph_threshold}"
            )
        if self.warmup_flows < 0:
            raise OnlineConfigError(
                f"warmup_flows must be >= 0, got {self.warmup_flows}"
            )
        if self.min_retrain_flows < 1:
            raise OnlineConfigError(
                f"min_retrain_flows must be >= 1, got {self.min_retrain_flows}"
            )
        if self.retrain_window < self.min_retrain_flows:
            raise OnlineConfigError(
                "retrain_window must be >= min_retrain_flows "
                f"({self.retrain_window} < {self.min_retrain_flows})"
            )
        if self.cooldown_flows < 0:
            raise OnlineConfigError(
                f"cooldown_flows must be >= 0, got {self.cooldown_flows}"
            )
        return self
