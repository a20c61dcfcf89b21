"""Recirculation (resubmission) channel model.

SpliDT uses recirculation as an in-band control channel: one small control
packet per flow-window boundary carries the next subtree id back to the front
of the pipeline.  The channel model tracks queued control packets, accounts
for bandwidth, and exposes the overhead statistics reported in Tables 1 and 5.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.switch.phv import Phv


@dataclass
class RecirculationChannel:
    """FIFO recirculation path with bandwidth accounting.

    Attributes:
        capacity_bps: Path capacity in bits per second (100 Gbps on Tofino1).
        latency: Time (seconds) a recirculated packet takes to re-enter the
            pipeline; Tofino-class recirculation is sub-microsecond.
    """

    capacity_bps: float = 100e9
    latency: float = 1e-6
    _queue: deque = field(default_factory=deque, init=False)
    packets_recirculated: int = field(default=0, init=False)
    bytes_recirculated: int = field(default=0, init=False)
    first_timestamp: float | None = field(default=None, init=False)
    last_timestamp: float | None = field(default=None, init=False)

    def submit(self, phv: Phv, timestamp: float) -> None:
        """Queue a control packet for re-injection at ``timestamp + latency``."""
        self.packets_recirculated += 1
        self.bytes_recirculated += phv.packet.size
        self._observe_interval(timestamp, timestamp)
        self._queue.append((timestamp + self.latency, phv))

    def submit_span(
        self, count: int, packet_bytes: int, earliest: float, latest: float
    ) -> None:
        """Account for ``count`` control packets submitted within a time span.

        The batched planes apply subtree transitions synchronously, so their
        control packets never sit in the queue: they reduce each round's
        boundary timestamps to the two extremes and update the counters
        only.  Order-insensitive and bit-identical to ``count`` scalar
        :meth:`submit` calls.
        """
        if count <= 0:
            return
        self.packets_recirculated += count
        self.bytes_recirculated += packet_bytes * count
        self._observe_interval(earliest, latest)

    def _observe_interval(self, earliest: float, latest: float) -> None:
        """Widen the observed submission interval (order-insensitive)."""
        if self.first_timestamp is None or earliest < self.first_timestamp:
            self.first_timestamp = earliest
        if self.last_timestamp is None or latest > self.last_timestamp:
            self.last_timestamp = latest

    def ready(self, now: float) -> list[Phv]:
        """Pop every control packet whose re-injection time has arrived."""
        released = []
        while self._queue and self._queue[0][0] <= now:
            released.append(self._queue.popleft()[1])
        return released

    def drain(self) -> list[Phv]:
        """Pop all queued control packets regardless of time."""
        released = [phv for _, phv in self._queue]
        self._queue.clear()
        return released

    @property
    def pending(self) -> int:
        """Control packets still queued."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Overhead statistics
    # ------------------------------------------------------------------
    def mean_bandwidth_bps(self) -> float:
        """Mean recirculation bandwidth over the observed interval."""
        if self.first_timestamp is None or self.last_timestamp is None:
            return 0.0
        interval = self.last_timestamp - self.first_timestamp
        if interval <= 0:
            interval = 1e-6
        return self.bytes_recirculated * 8 / interval

    def utilisation(self) -> float:
        """Mean bandwidth as a fraction of the path capacity."""
        if self.capacity_bps <= 0:
            return 0.0
        return self.mean_bandwidth_bps() / self.capacity_bps

    def stats(self) -> dict[str, float]:
        """The channel's counters and derived overheads, as every report carries them."""
        return {
            "packets": float(self.packets_recirculated),
            "bytes": float(self.bytes_recirculated),
            "mean_bps": self.mean_bandwidth_bps(),
            "utilisation": self.utilisation(),
        }
