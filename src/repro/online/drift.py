"""Drift detectors fed from the serve path.

Each served verdict is compared against its flow's ground-truth label; the
binary error indicator feeds a Page–Hinkley cumulative mean-shift test,
next to the rolling accumulators of :mod:`repro.analysis.streaming` that
report the windowed error rate and accuracy.  Every update is O(1), the
same contract as those accumulators.
"""

from __future__ import annotations

from repro.analysis.streaming import RollingReport, WindowedErrorRate
from repro.online.config import OnlineConfig


class PageHinkley:
    """Page–Hinkley test for an upward mean shift of a bounded signal.

    Tracks the cumulative deviation of the signal above its running mean
    (minus a tolerance ``delta``); an alarm fires when the cumulation rises
    more than ``threshold`` above its historical minimum.  For a Bernoulli
    error indicator this reacts within a handful of samples once the error
    rate jumps, while per-sample noise around a stationary rate is absorbed.

    Example::

        >>> detector = PageHinkley(threshold=1.0, min_samples=4)
        >>> any(detector.update(0.0) for _ in range(20))
        False
        >>> any(detector.update(1.0) for _ in range(20))
        True
    """

    def __init__(
        self,
        *,
        delta: float = 0.005,
        threshold: float = 4.0,
        min_samples: int = 30,
    ) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        self.delta = float(delta)
        self.threshold = float(threshold)
        self.min_samples = int(min_samples)
        self.reset()

    def update(self, value: float) -> bool:
        """Absorb one sample; returns ``True`` when drift is detected."""
        value = float(value)
        self.n += 1
        self.mean += (value - self.mean) / self.n
        self.cumulation += value - self.mean - self.delta
        if self.cumulation < self.minimum:
            self.minimum = self.cumulation
        return (
            self.n >= self.min_samples
            and self.cumulation - self.minimum > self.threshold
        )

    @property
    def statistic(self) -> float:
        """Current test statistic (cumulation above its minimum)."""
        return self.cumulation - self.minimum

    def reset(self) -> None:
        """Forget all history (used after a model swap)."""
        self.n = 0
        self.mean = 0.0
        self.cumulation = 0.0
        self.minimum = 0.0


class DriftMonitor:
    """Serve-path facade: verdict stream in, drift verdicts out.

    Combines a :class:`~repro.analysis.streaming.WindowedErrorRate`, a
    :class:`~repro.analysis.streaming.RollingReport` (rolling accuracy/F1
    since the last reset) and the :class:`PageHinkley` detector.  The
    controller calls :meth:`observe` once per served verdict.
    """

    def __init__(self, config: OnlineConfig) -> None:
        self.windowed = WindowedErrorRate(config.window)
        self.report = RollingReport()
        self._page_hinkley = PageHinkley(
            delta=config.ph_delta,
            threshold=config.ph_threshold,
            min_samples=config.warmup_flows,
        )
        self._n = 0

    @property
    def n_observed(self) -> int:
        """Verdicts observed since the last reset."""
        return self._n

    @property
    def error_rate(self) -> float:
        """Sliding-window error rate."""
        return self.windowed.rate

    def observe(self, y_true: int, y_pred: int) -> bool:
        """Absorb one verdict; returns ``True`` when drift is detected."""
        error = int(y_true) != int(y_pred)
        self.windowed.update(error)
        self.report.update(y_true, y_pred)
        self._n += 1
        return self._page_hinkley.update(1.0 if error else 0.0)

    def reset(self) -> None:
        """Re-arm after a model swap: forget errors, stats and alarms."""
        self.windowed.reset()
        self.report.reset()
        self._page_hinkley.reset()
        self._n = 0
