"""Packet header vector (PHV) and in-band metadata.

The PHV carries parsed header fields plus program metadata (subtree id, range
marks, window boundary flags) between pipeline stages.  The recirculated
control packet is simply a PHV whose ``is_control`` metadata bit is set and
whose ``next_sid`` field carries the subtree transition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datasets.flows import FiveTuple, Packet

#: Wire size (bytes) of a recirculated control packet.
CONTROL_PACKET_BYTES = 64


@dataclass
class Phv:
    """Parsed representation of one packet traversing the pipeline.

    Attributes:
        five_tuple: The packet's flow key.
        packet: The raw packet observation.
        metadata: Program metadata fields (ints), e.g. ``sid``, ``pkt_count``,
            ``mark_<i>``, ``next_sid``, ``class``, ``is_control``.
    """

    five_tuple: FiveTuple
    packet: Packet
    metadata: dict[str, int] = field(default_factory=dict)

    def get(self, field_name: str, default: int = 0) -> int:
        """Read a metadata field (0 when unset)."""
        return self.metadata.get(field_name, default)

    def set(self, field_name: str, value: int) -> None:
        """Write a metadata field."""
        self.metadata[field_name] = int(value)


def make_data_phv(five_tuple: FiveTuple, packet: Packet) -> Phv:
    """PHV for a regular data packet."""
    return Phv(five_tuple=five_tuple, packet=packet)


def make_control_phv(five_tuple: FiveTuple, next_sid: int, timestamp: float) -> Phv:
    """PHV for a recirculated control packet carrying the next subtree id."""
    control_packet = Packet(
        timestamp=timestamp, size=CONTROL_PACKET_BYTES, flags=0, direction=1, payload=0
    )
    phv = Phv(five_tuple=five_tuple, packet=control_packet)
    phv.set("is_control", 1)
    phv.set("next_sid", next_sid)
    return phv
