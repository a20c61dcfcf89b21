"""Stateful feature operators as executed by the data-plane registers.

Each operator models the register update a switch performs per packet for one
stateful feature: a small amount of per-flow state (the register value plus,
for chained features, the dependency-chain registers) updated by an ALU
action.  The data-plane simulator instantiates one operator per active
feature slot and replays packets through it; the register clear that happens
when SpliDT moves to the next partition is a fresh operator bank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.datasets.flows import Packet
from repro.features.definitions import (
    BURST_GAP_SECONDS,
    FEATURES_BY_NAME,
    LARGE_PACKET_BYTES,
    SMALL_PACKET_BYTES,
    FeatureDefinition,
)


@dataclass
class OperatorState:
    """Register state of one stateful operator instance."""

    value: float = 0.0
    count: int = 0
    aux: dict[str, float] = field(default_factory=dict)


class StatefulOperator:
    """Base class: per-packet register update for one feature."""

    def __init__(self, definition: FeatureDefinition) -> None:
        self.definition = definition
        self.state = OperatorState()

    def update(self, packet: Packet) -> None:
        """Apply the per-packet register update."""
        raise NotImplementedError

    @property
    def value(self) -> float:
        """Current feature value as it would appear in the match key."""
        return self.state.value


class CountOperator(StatefulOperator):
    """Counts packets matching the feature's predicate (flags, size, bursts…)."""

    def update(self, packet: Packet) -> None:
        if self._matches(packet):
            self.state.value += 1
        # burst bookkeeping
        if self.definition.name == "burst_count":
            last = self.state.aux.get("last_ts")
            if last is None:
                self.state.value = 1
            elif packet.timestamp - last > BURST_GAP_SECONDS:
                self.state.value += 1
            self.state.aux["last_ts"] = packet.timestamp

    def _matches(self, packet: Packet) -> bool:
        name = self.definition.name
        if name == "pkt_count":
            return True
        if name == "syn_count":
            return packet.has_flag("SYN")
        if name == "ack_count":
            return packet.has_flag("ACK")
        if name == "fin_count":
            return packet.has_flag("FIN")
        if name == "psh_count":
            return packet.has_flag("PSH")
        if name == "rst_count":
            return packet.has_flag("RST")
        if name == "urg_count":
            return packet.has_flag("URG")
        if name == "fwd_pkt_count":
            return packet.direction > 0
        if name == "bwd_pkt_count":
            return packet.direction < 0
        if name == "small_pkt_count":
            return packet.size < SMALL_PACKET_BYTES
        if name == "large_pkt_count":
            return packet.size > LARGE_PACKET_BYTES
        if name == "burst_count":
            return False  # handled in update()
        return True


class SumOperator(StatefulOperator):
    """Accumulates byte/payload sums (optionally direction-filtered)."""

    def update(self, packet: Packet) -> None:
        name = self.definition.name
        if name == "byte_count":
            self.state.value += packet.size
        elif name == "payload_sum":
            self.state.value += packet.payload
        elif name == "fwd_byte_count" and packet.direction > 0:
            self.state.value += packet.size
        elif name == "bwd_byte_count" and packet.direction < 0:
            self.state.value += packet.size


class MaxOperator(StatefulOperator):
    """Tracks a running maximum (packet length, IAT, burst length, idle)."""

    def update(self, packet: Packet) -> None:
        name = self.definition.name
        if name in ("max_pkt_len",):
            self.state.value = max(self.state.value, packet.size)
        elif name == "max_fwd_pkt_len" and packet.direction > 0:
            self.state.value = max(self.state.value, packet.size)
        elif name == "max_bwd_pkt_len" and packet.direction < 0:
            self.state.value = max(self.state.value, packet.size)
        elif name in ("max_iat", "idle_max"):
            last = self.state.aux.get("last_ts")
            if last is not None:
                self.state.value = max(self.state.value, packet.timestamp - last)
            self.state.aux["last_ts"] = packet.timestamp
        elif name == "max_burst_len":
            last = self.state.aux.get("last_ts")
            current = self.state.aux.get("current", 0.0)
            if last is None or packet.timestamp - last <= BURST_GAP_SECONDS:
                current += 1
            else:
                current = 1
            self.state.aux["current"] = current
            self.state.aux["last_ts"] = packet.timestamp
            self.state.value = max(self.state.value, current)


class MinOperator(StatefulOperator):
    """Tracks a running minimum (packet length, IAT)."""

    def update(self, packet: Packet) -> None:
        name = self.definition.name
        if name == "min_pkt_len":
            if self.state.count == 0:
                self.state.value = packet.size
            else:
                self.state.value = min(self.state.value, packet.size)
            self.state.count += 1
        elif name == "min_iat":
            last = self.state.aux.get("last_ts")
            if last is not None:
                iat = packet.timestamp - last
                if self.state.count == 0:
                    self.state.value = iat
                else:
                    self.state.value = min(self.state.value, iat)
                self.state.count += 1
            self.state.aux["last_ts"] = packet.timestamp


class LastOperator(StatefulOperator):
    """Stores the most recent observation (last length, duration, first length)."""

    def update(self, packet: Packet) -> None:
        name = self.definition.name
        if name == "last_pkt_len":
            self.state.value = packet.size
        elif name == "first_pkt_len":
            if self.state.count == 0:
                self.state.value = packet.size
            self.state.count += 1
        elif name == "duration":
            first = self.state.aux.setdefault("first_ts", packet.timestamp)
            self.state.value = packet.timestamp - first


class MeanOperator(StatefulOperator):
    """Sum/count pair register giving running means and ratios.

    Hardware computes means with a sum register and a count register and a
    final shift/division at match-key generation time; the simulator performs
    the division directly when reading :attr:`value`.
    """

    def update(self, packet: Packet) -> None:
        name = self.definition.name
        if name in ("mean_pkt_len", "std_pkt_len"):
            self.state.aux["sum"] = self.state.aux.get("sum", 0.0) + packet.size
            self.state.aux["sumsq"] = self.state.aux.get("sumsq", 0.0) + packet.size * packet.size
            self.state.count += 1
        elif name == "mean_payload":
            self.state.aux["sum"] = self.state.aux.get("sum", 0.0) + packet.payload
            self.state.count += 1
        elif name == "mean_fwd_pkt_len" and packet.direction > 0:
            self.state.aux["sum"] = self.state.aux.get("sum", 0.0) + packet.size
            self.state.count += 1
        elif name == "mean_bwd_pkt_len" and packet.direction < 0:
            self.state.aux["sum"] = self.state.aux.get("sum", 0.0) + packet.size
            self.state.count += 1
        elif name == "fwd_bwd_pkt_ratio":
            if packet.direction > 0:
                self.state.aux["fwd"] = self.state.aux.get("fwd", 0.0) + 1
            else:
                self.state.aux["bwd"] = self.state.aux.get("bwd", 0.0) + 1
        elif name in ("mean_iat", "std_iat"):
            last = self.state.aux.get("last_ts")
            if last is not None:
                iat = packet.timestamp - last
                self.state.aux["sum"] = self.state.aux.get("sum", 0.0) + iat
                self.state.aux["sumsq"] = self.state.aux.get("sumsq", 0.0) + iat * iat
                self.state.count += 1
            self.state.aux["last_ts"] = packet.timestamp

    @property
    def value(self) -> float:
        name = self.definition.name
        count = max(self.state.count, 1)
        total = self.state.aux.get("sum", 0.0)
        if name in ("mean_pkt_len", "mean_payload", "mean_fwd_pkt_len",
                    "mean_bwd_pkt_len", "mean_iat"):
            return total / count if self.state.count else 0.0
        if name in ("std_pkt_len", "std_iat"):
            if self.state.count == 0:
                return 0.0
            mean = total / count
            # Products and math.sqrt are correctly rounded; ``**`` is C pow,
            # which is not, and the subtraction amplifies its last-bit error.
            variance = max(self.state.aux.get("sumsq", 0.0) / count - mean * mean, 0.0)
            return math.sqrt(variance)
        if name == "fwd_bwd_pkt_ratio":
            return self.state.aux.get("fwd", 0.0) / max(self.state.aux.get("bwd", 0.0), 1.0)
        return 0.0


class RateOperator(StatefulOperator):
    """Packets-per-second / bytes-per-second over the current window."""

    def update(self, packet: Packet) -> None:
        first = self.state.aux.setdefault("first_ts", packet.timestamp)
        self.state.aux["last_ts"] = packet.timestamp
        if self.definition.name == "pkt_rate":
            self.state.aux["total"] = self.state.aux.get("total", 0.0) + 1
        else:
            self.state.aux["total"] = self.state.aux.get("total", 0.0) + packet.size
        duration = self.state.aux["last_ts"] - first
        self.state.value = self.state.aux["total"] / duration if duration > 0 else 0.0


_OPERATOR_CLASSES: dict[str, type[StatefulOperator]] = {
    "count": CountOperator,
    "sum": SumOperator,
    "max": MaxOperator,
    "min": MinOperator,
    "last": LastOperator,
    "mean": MeanOperator,
    "rate": RateOperator,
}


def make_operator(feature_name: str) -> StatefulOperator:
    """Instantiate the register operator for a stateful feature by name."""
    definition = FEATURES_BY_NAME[feature_name]
    if not definition.stateful:
        raise ValueError(f"{feature_name!r} is a stateless feature")
    operator_cls = _OPERATOR_CLASSES[definition.operator]
    return operator_cls(definition)
