"""Drift detectors fed from the serve path.

Each served verdict is compared against its flow's ground-truth label; the
binary error indicator feeds a Page–Hinkley cumulative mean-shift test,
next to a sliding-window error rate and a correct/observed count.  Every
update is O(1).
"""

from __future__ import annotations

from collections import deque

from repro.online.config import OnlineConfig


class WindowedErrorRate:
    """Error rate over the most recent ``window`` binary outcomes.

    The drift monitor feeds one boolean per served verdict (``True`` =
    misclassified); :attr:`rate` is the fraction of errors inside the
    sliding window, maintained in O(1) per update.

    Example::

        >>> windowed = WindowedErrorRate(window=2)
        >>> windowed.update(True)
        >>> windowed.update(False)
        >>> windowed.rate
        0.5
    """

    def __init__(self, window: int = 64) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = int(window)
        self._outcomes: deque[bool] = deque(maxlen=self.window)
        self._errors = 0

    def update(self, error: bool) -> None:
        """Absorb one outcome (``True`` when the verdict was wrong)."""
        if len(self._outcomes) == self.window and self._outcomes[0]:
            self._errors -= 1
        error = bool(error)
        self._outcomes.append(error)
        if error:
            self._errors += 1

    @property
    def rate(self) -> float:
        """Error fraction over the window (0.0 while empty)."""
        return self._errors / len(self._outcomes) if self._outcomes else 0.0

    def reset(self) -> None:
        """Empty the window (e.g. after a model swap)."""
        self._outcomes.clear()
        self._errors = 0


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

    def reset(self) -> None:
        """Forget all history (used after a model swap)."""
        self.n = 0
        self.mean = 0.0
        self.cumulation = 0.0
        self.minimum = 0.0


class DriftMonitor:
    """Serve-path facade: verdict stream in, drift verdicts out.

    Combines a :class:`WindowedErrorRate`, a correct/observed count (the
    accuracy since the last reset) and the :class:`PageHinkley` detector.
    The controller calls :meth:`observe` once per served verdict.
    """

    def __init__(self, config: OnlineConfig) -> None:
        self.windowed = WindowedErrorRate(config.window)
        self._page_hinkley = PageHinkley(
            delta=config.ph_delta,
            threshold=config.ph_threshold,
            min_samples=config.warmup_flows,
        )
        self._n = 0
        self._correct = 0

    @property
    def accuracy(self) -> float:
        """Share of the verdicts observed since the last reset that were right (0.0 before any)."""
        return self._correct / self._n if self._n else 0.0

    @property
    def error_rate(self) -> float:
        """Sliding-window error rate."""
        return self.windowed.rate

    def observe(self, y_true: int, y_pred: int) -> bool:
        """Absorb one verdict; returns ``True`` when drift is detected."""
        error = int(y_true) != int(y_pred)
        self.windowed.update(error)
        self._n += 1
        self._correct += not error
        return self._page_hinkley.update(1.0 if error else 0.0)

    def reset(self) -> None:
        """Re-arm after a model swap: forget errors, stats and alarms."""
        self.windowed.reset()
        self._page_hinkley.reset()
        self._n = 0
        self._correct = 0
