"""Recirculation (resubmission) channel model.

SpliDT uses recirculation as an in-band control channel: one small control
packet per flow-window boundary carries the next subtree id back to the front
of the pipeline.  The channel model tracks queued control packets, accounts
for bandwidth, and exposes the overhead statistics reported in Tables 1 and 5.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.obs import Counters
from repro.switch.phv import Phv

#: Seconds a recirculated packet takes to re-enter the pipeline;
#: Tofino-class recirculation is sub-microsecond.
RECIRCULATION_LATENCY_S = 1e-6


@dataclass
class RecirculationChannel:
    """FIFO recirculation path with bandwidth accounting.

    Counts into ``counters`` (a program passes its record): ``switch.recirc.``
    ``packets``, ``bytes`` and the submission interval ``first`` .. ``last``.

    Attributes:
        capacity_bps: Path capacity in bits per second (100 Gbps on Tofino1).
    """

    capacity_bps: float = 100e9
    counters: Counters = field(default_factory=Counters, repr=False)
    _queue: deque = field(default_factory=deque, init=False)

    def __post_init__(self) -> None:
        # Present from the start: a channel that recirculated nothing reads zeros.
        self.counters.add("switch.recirc.packets", 0)
        self.counters.add("switch.recirc.bytes", 0)

    def submit(self, phv: Phv, timestamp: float) -> None:
        """Queue a control packet for re-injection :data:`RECIRCULATION_LATENCY_S` later."""
        self.submit_span(1, phv.packet.size, timestamp, timestamp)
        self._queue.append((timestamp + RECIRCULATION_LATENCY_S, phv))

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
        self.counters.add("switch.recirc.packets", count)
        self.counters.add("switch.recirc.bytes", packet_bytes * count)
        self.counters.observe("switch.recirc", earliest, latest)

    def ready(self, now: float) -> list[Phv]:
        """Pop every control packet whose re-injection time has arrived."""
        released = []
        while self._queue and self._queue[0][0] <= now:
            released.append(self._queue.popleft()[1])
        return released

    # ------------------------------------------------------------------
    # Overhead statistics
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        """The channel's counters and derived overheads, as every report carries them."""
        return channel_stats(self.counters, self.capacity_bps)


def channel_stats(counters: Mapping[str, float], capacity_bps: float) -> dict[str, float]:
    """The recirculation report of a record: ``packets``, ``bytes``, ``mean_bps``, ``utilisation``.

    The mean bandwidth is taken over the submission interval (a zero-length
    one counts as a microsecond).  Empty when the record never held a
    channel — a merge of no records, say.
    """
    if "switch.recirc.packets" not in counters:
        return {}
    mean_bps = 0.0
    if "switch.recirc.first" in counters:
        interval = counters["switch.recirc.last"] - counters["switch.recirc.first"]
        mean_bps = counters["switch.recirc.bytes"] * 8 / (interval if interval > 0 else 1e-6)
    return {
        "packets": float(counters["switch.recirc.packets"]),
        "bytes": float(counters["switch.recirc.bytes"]),
        "mean_bps": mean_bps,
        "utilisation": mean_bps / capacity_bps if capacity_bps > 0 else 0.0,
    }
