"""Packet- and flow-level data model.

These classes are the common currency between the synthetic traffic
generators, the flow-feature engine, and the data-plane simulator: a
:class:`Flow` is a labelled sequence of :class:`Packet` objects identified by
a :class:`FiveTuple`.

Two representations of the same traffic coexist:

* the object form (``Flow`` / ``Packet``), convenient for generation and for
  the per-packet oracle (``repro.dataplane.oracle``), and
* :class:`PacketArrays`, a structure-of-arrays (SoA) form — flat NumPy
  columns of timestamps, sizes, flags, directions and payloads laid out
  flow-major, with a precomputed global ``(timestamp, flow_id)`` interleave
  permutation.  The replay planes (``repro.dataplane.vectorized``) and the
  batched program APIs operate on this form, and the oracle reuses its
  interleave order instead of re-sorting packets on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: TCP flag bit positions used across the repository.
TCP_FLAGS = {"FIN": 0x01, "SYN": 0x02, "RST": 0x04, "PSH": 0x08, "ACK": 0x10, "URG": 0x20}

PROTO_TCP = 6
PROTO_UDP = 17


@dataclass(frozen=True)
class FiveTuple:
    """Flow identifier: source/destination address and port plus protocol."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int

    def as_bytes(self) -> bytes:
        """Canonical byte encoding used for CRC32 hashing in the data plane.

        Example::

            >>> len(FiveTuple(1, 2, 3, 4, 6).as_bytes())
            13
        """
        return (
            int(self.src_ip).to_bytes(4, "big")
            + int(self.dst_ip).to_bytes(4, "big")
            + int(self.src_port).to_bytes(2, "big")
            + int(self.dst_port).to_bytes(2, "big")
            + int(self.protocol).to_bytes(1, "big")
        )


@dataclass(slots=True)
class Packet:
    """A single packet observation.

    Attributes:
        timestamp: Arrival time in seconds since the start of the trace.
        size: Total packet length in bytes.
        flags: TCP flag bitmap (0 for UDP).
        direction: +1 for forward (client→server), -1 for backward.
        payload: Payload length in bytes.
    """

    timestamp: float
    size: int
    flags: int = 0
    direction: int = 1
    payload: int = 0

    def has_flag(self, name: str) -> bool:
        """Whether the TCP flag ``name`` (e.g. ``"SYN"``) is set.

        Example::

            >>> Packet(timestamp=0.0, size=60, flags=0x12).has_flag("SYN")
            True
        """
        return bool(self.flags & TCP_FLAGS[name])


@dataclass
class Flow:
    """A labelled flow: a five-tuple plus its time-ordered packets."""

    five_tuple: FiveTuple
    packets: list[Packet]
    label: int
    class_name: str = ""
    flow_id: int = 0

    @property
    def n_packets(self) -> int:
        """Number of packets in the flow."""
        return len(self.packets)

    @property
    def n_bytes(self) -> int:
        """Total bytes across all packets."""
        return sum(p.size for p in self.packets)

    @property
    def duration(self) -> float:
        """Time between the first and last packet (seconds)."""
        if len(self.packets) < 2:
            return 0.0
        return self.packets[-1].timestamp - self.packets[0].timestamp

    def sorted_by_time(self) -> "Flow":
        """Return a copy whose packets are sorted by timestamp."""
        ordered = sorted(self.packets, key=lambda p: p.timestamp)
        return Flow(
            five_tuple=self.five_tuple,
            packets=ordered,
            label=self.label,
            class_name=self.class_name,
            flow_id=self.flow_id,
        )


@dataclass
class FlowDataset:
    """A collection of labelled flows plus class metadata.

    Attributes:
        name: Dataset identifier (``"D1"`` … ``"D7"`` or custom).
        description: Human-readable summary.
        flows: The labelled flows.
        class_names: Index-aligned class names.
    """

    name: str
    description: str
    flows: list[Flow]
    class_names: list[str]
    metadata: dict = field(default_factory=dict)
    _soa_cache: "PacketArrays | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_flows(self) -> int:
        """Number of flows."""
        return len(self.flows)

    @property
    def n_classes(self) -> int:
        """Number of classes."""
        return len(self.class_names)

    def labels(self) -> np.ndarray:
        """Label vector aligned with :attr:`flows`.

        Example::

            >>> dataset.labels().shape == (dataset.n_flows,)
            True
        """
        return np.array([flow.label for flow in self.flows], dtype=np.intp)

    def class_counts(self) -> np.ndarray:
        """Per-class flow counts."""
        return np.bincount(self.labels(), minlength=self.n_classes)

    def subset(self, indices: np.ndarray) -> "FlowDataset":
        """Return a new dataset containing only the flows at ``indices``."""
        flows = [self.flows[int(i)] for i in indices]
        return FlowDataset(
            name=self.name,
            description=self.description,
            flows=flows,
            class_names=list(self.class_names),
            metadata=dict(self.metadata),
        )

    def packet_arrays(self) -> "PacketArrays":
        """Structure-of-arrays view of all packets (see :class:`PacketArrays`).

        Memoised: the columns are built once and shared by every replay of
        the same dataset (the construction pass costs more than a whole
        vectorized replay).  The cache assumes :attr:`flows` is not mutated
        afterwards; callers that reshape traffic (jitter, truncation) build
        their own arrays from the derived flow list instead.

        Example::

            >>> dataset = FlowDataset("demo", "", flows, ["benign", "attack"])
            >>> soa = dataset.packet_arrays()
            >>> soa.timestamps.shape == (soa.n_packets,)
            True
        """
        cached = self._soa_cache
        if cached is None or cached.n_flows != len(self.flows):
            cached = PacketArrays.from_flows(self.flows)
            self._soa_cache = cached
        return cached


@dataclass
class PacketArrays:
    """Structure-of-arrays (SoA) packet representation for batched replay.

    All per-packet columns are flat NumPy arrays laid out *flow-major*: the
    packets of flow ``i`` occupy the half-open slice
    ``[flow_starts[i], flow_starts[i + 1])``, in their original (time) order.
    Per-flow columns are index-aligned with the ``flows`` list the arrays
    were built from.  ``interleave_order`` is the permutation that sorts all
    packets by ``(timestamp, flow_id)`` — the order in which a switch would
    observe them — computed once at construction instead of on every replay.

    Example::

        >>> soa = PacketArrays.from_flows(dataset.flows)
        >>> first = soa.interleave_order[0]          # earliest packet overall
        >>> flow_of_first = soa.packet_flow[first]   # index into the flow list
        >>> window = soa.timestamps[soa.flow_starts[2]:soa.flow_starts[3]]

    Attributes:
        timestamps: Packet arrival times (seconds), ``float64``.
        sizes: Packet lengths in bytes, ``float64`` (integer-valued).
        flags: TCP flag bitmaps, ``int64``.
        directions: +1 forward / -1 backward, ``int64``.
        payloads: Payload lengths in bytes, ``float64`` (integer-valued).
        packet_flow: Per-packet index into the originating flow list.
        flow_starts: Offsets of each flow's first packet; length
            ``n_flows + 1`` with ``flow_starts[-1] == n_packets``.
        flow_ids: Per-flow ``Flow.flow_id`` values.
        labels: Per-flow ground-truth labels.
        n_packets_per_flow: Per-flow packet counts.
        src_ips / dst_ips / src_ports / dst_ports / protocols: Per-flow
            5-tuple columns: the flow's identity (register slots and tuple
            ids are hashed from them, see ``repro.switch.hashing.flow_slots``)
            and the stateless header features.
        first_sizes: Per-flow size of the first packet (``pkt_len_first``).
        first_timestamps: Per-flow timestamp of the first packet.
        interleave_order: Permutation of packet indices giving the global
            ``(timestamp, flow_id)`` replay order.
    """

    timestamps: np.ndarray
    sizes: np.ndarray
    flags: np.ndarray
    directions: np.ndarray
    payloads: np.ndarray
    packet_flow: np.ndarray
    flow_starts: np.ndarray
    flow_ids: np.ndarray
    labels: np.ndarray
    n_packets_per_flow: np.ndarray
    src_ips: np.ndarray
    dst_ips: np.ndarray
    src_ports: np.ndarray
    dst_ports: np.ndarray
    protocols: np.ndarray
    first_sizes: np.ndarray
    first_timestamps: np.ndarray
    interleave_order: np.ndarray
    #: Cache of columns *derived* from the SoA (padded feature columns,
    #: prefix sums, per-table-size register slots).  Owned by the arrays so
    #: every replay over the same traffic shares one set of derived columns;
    #: consumers key entries with tuples, e.g. ``("slots", table_size)``.
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_flows(cls, flows: list[Flow]) -> "PacketArrays":
        """Build the SoA columns from a list of :class:`Flow` objects."""
        counts = np.array([flow.n_packets for flow in flows], dtype=np.intp)
        flow_starts = np.zeros(len(flows) + 1, dtype=np.intp)
        np.cumsum(counts, out=flow_starts[1:])
        total = int(flow_starts[-1])

        all_packets = [packet for flow in flows for packet in flow.packets]
        timestamps = np.array([p.timestamp for p in all_packets], dtype=np.float64)
        sizes = np.array([p.size for p in all_packets], dtype=np.float64)
        flags = np.array([p.flags for p in all_packets], dtype=np.int64)
        directions = np.array([p.direction for p in all_packets], dtype=np.int64)
        payloads = np.array([p.payload for p in all_packets], dtype=np.float64)
        packet_flow = np.repeat(np.arange(len(flows), dtype=np.intp), counts)

        flow_ids = np.array([flow.flow_id for flow in flows], dtype=np.int64)
        labels = np.array([flow.label for flow in flows], dtype=np.int64)
        src_ips = np.array([flow.five_tuple.src_ip for flow in flows], dtype=np.int64)
        dst_ips = np.array([flow.five_tuple.dst_ip for flow in flows], dtype=np.int64)
        src_ports = np.array([flow.five_tuple.src_port for flow in flows], dtype=np.int64)
        dst_ports = np.array([flow.five_tuple.dst_port for flow in flows], dtype=np.int64)
        protocols = np.array([flow.five_tuple.protocol for flow in flows], dtype=np.int64)
        if total:
            safe_first = np.minimum(flow_starts[:-1], total - 1)
            first_sizes = np.where(counts > 0, sizes[safe_first], 0.0)
            first_timestamps = np.where(counts > 0, timestamps[safe_first], 0.0)
        else:
            first_sizes = np.zeros(len(flows), dtype=np.float64)
            first_timestamps = np.zeros(len(flows), dtype=np.float64)

        # Global (timestamp, flow_id) replay order; lexsort is stable, so ties
        # keep the flow-major construction order exactly as the per-packet
        # reference sort did.
        interleave_order = np.lexsort((flow_ids[packet_flow], timestamps))

        return cls(
            timestamps=timestamps,
            sizes=sizes,
            flags=flags,
            directions=directions,
            payloads=payloads,
            packet_flow=packet_flow,
            flow_starts=flow_starts,
            flow_ids=flow_ids,
            labels=labels,
            n_packets_per_flow=counts.astype(np.int64),
            src_ips=src_ips,
            dst_ips=dst_ips,
            src_ports=src_ports,
            dst_ports=dst_ports,
            protocols=protocols,
            first_sizes=first_sizes,
            first_timestamps=first_timestamps,
            interleave_order=interleave_order,
        )

    @property
    def n_flows(self) -> int:
        """Number of flows the arrays were built from."""
        return len(self.flow_ids)

    @property
    def n_packets(self) -> int:
        """Total number of packets across all flows."""
        return int(self.flow_starts[-1])

    def identity_columns(self) -> tuple[np.ndarray, ...]:
        """The five per-flow 5-tuple columns, in :class:`FiveTuple` field order."""
        return self.src_ips, self.dst_ips, self.src_ports, self.dst_ports, self.protocols

    def flow_slice(self, flow_index: int) -> slice:
        """Half-open slice of flow ``flow_index``'s packets in the columns."""
        return slice(int(self.flow_starts[flow_index]), int(self.flow_starts[flow_index + 1]))

    def iter_chunks(self, chunk_size: int | None = None):
        """Yield slices of :attr:`interleave_order` of at most ``chunk_size``.

        The chunks partition the global ``(timestamp, flow_id)`` replay order,
        so feeding them to a streaming engine in sequence reproduces exactly
        the packet sequence a switch would observe.  ``None`` yields the whole
        permutation at once; at least one (possibly empty) chunk is always
        yielded.

        Example::

            >>> total = sum(len(c) for c in soa.iter_chunks(256))
            >>> total == soa.n_packets
            True
        """
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        order = self.interleave_order
        if chunk_size is None or chunk_size >= order.size:
            yield order
            return
        for start in range(0, order.size, chunk_size):
            yield order[start:start + chunk_size]
