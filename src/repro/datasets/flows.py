"""Packet- and flow-level data model.

Traffic is columns.  :class:`PacketArrays` holds every packet of a source as
flat NumPy columns — timestamps, sizes, flags, directions, payloads — laid
out flow-major, beside per-flow columns (identity, label, packet count) and
the global ``(timestamp, flow_id)`` interleave permutation.  Every traffic
source ends in one: the generators and the scenario layers write their
flows through a :class:`PacketArraysWriter`, a streamed spill through its
on-disk subclass (``repro.datasets.streams.StreamedPacketWriter``, whose
columns are memmaps), and a ``sharded-mp`` worker attaches the parent's
columns from shared memory.  The replay planes, the serving engines and
feature extraction read the columns only.

:class:`Flow` and :class:`Packet` are views.  A source's ``flows`` is a
:class:`LazyFlowList`: indexing it builds a :class:`Flow` whose five-tuple
comes from the identity columns and whose ``packets`` is a lazy view of the
packet columns, which builds a :class:`Packet` only when one is read.  The
per-packet reference code (``repro.dataplane.oracle``, the per-flow feature
extractors) reads them, and tests build flows of their own from them.
:meth:`PacketArrays.from_flows` turns a flow list back into columns: a
:class:`LazyFlowList` hands over the arrays it views, a flow viewing columns
hands over its slices, and only a hand-built flow is read packet by packet.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import NamedTuple

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


class PacketColumns(NamedTuple):
    """Packets as five columns, in :class:`Packet` field order and :class:`PacketArrays` dtypes."""

    timestamps: np.ndarray
    sizes: np.ndarray
    flags: np.ndarray
    directions: np.ndarray
    payloads: np.ndarray

    @classmethod
    def of_packets(cls, packets: Sequence[Packet]) -> "PacketColumns":
        """The columns of ``packets``: a lazy view's own slices, else read field by field."""
        if isinstance(packets, _LazyPackets):
            return packets.columns()
        return cls(
            np.array([p.timestamp for p in packets], dtype=np.float64),
            np.array([p.size for p in packets], dtype=np.float64),
            np.array([p.flags for p in packets], dtype=np.int64),
            np.array([p.direction for p in packets], dtype=np.int64),
            np.array([p.payload for p in packets], dtype=np.float64),
        )


    def packets(self) -> Sequence[Packet]:
        """A :class:`Flow`'s ``packets``: a lazy view of all these packets."""
        return _LazyPackets(self, 0, len(self.timestamps))


#: Dtype of each packet column, by :class:`PacketColumns` field.
PACKET_DTYPES = PacketColumns(
    np.dtype(np.float64), np.dtype(np.float64), np.dtype(np.int64),
    np.dtype(np.int64), np.dtype(np.float64),
)


class _LazyPackets(Sequence):
    """List-like view of one flow's packets in packet columns.

    ``columns`` is a :class:`PacketArrays` or a :class:`PacketColumns`; the
    view covers its packets ``[start, stop)``.  Supports what
    :class:`Flow` asks of its ``packets`` — ``len``, iteration, (negative)
    indexing and slicing — building each :class:`Packet`, with the columns'
    values, only when it is read.
    """

    __slots__ = ("_columns", "_start", "_stop")

    def __init__(self, columns, start: int, stop: int) -> None:
        self._columns = columns
        self._start = start
        self._stop = stop

    def __len__(self) -> int:
        return self._stop - self._start

    def columns(self) -> PacketColumns:
        """The viewed packets' columns (slices, no copy)."""
        part = slice(self._start, self._stop)
        return PacketColumns(
            *(getattr(self._columns, name)[part] for name in PacketColumns._fields)
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(f"packet index {index} out of range for flow of {n} packets")
        pos = self._start + index
        columns = self._columns
        return Packet(
            float(columns.timestamps[pos]),
            float(columns.sizes[pos]),
            int(columns.flags[pos]),
            int(columns.directions[pos]),
            float(columns.payloads[pos]),
        )


@dataclass
class Flow:
    """A labelled flow: a five-tuple plus its time-ordered packets."""

    five_tuple: FiveTuple
    packets: Sequence[Packet]
    label: int
    class_name: str = ""
    flow_id: int = 0

    @property
    def n_packets(self) -> int:
        """Number of packets in the flow."""
        return len(self.packets)


class LazyFlowList(Sequence):
    """The flows of a :class:`PacketArrays`, each a :class:`Flow` view built per access.

    Indexing builds an ephemeral ``Flow``: its five-tuple from the SoA's
    identity columns, its ``packets`` a lazy view of the packet columns
    (possibly memmaps), its class name ``class_names[label]``.  Holding the
    list costs nothing beyond the columns.  A slice is a ``LazyFlowList``
    over the slice's flows, gathered (:meth:`PacketArrays.take`).

    Example::

        >>> flows = LazyFlowList(soa, class_names)
        >>> PacketArrays.from_flows(flows).timestamps is soa.timestamps
        True
    """

    def __init__(self, soa: "PacketArrays", class_names: Sequence[str] | None = None) -> None:
        self._soa = soa
        self._class_names = list(class_names) if class_names is not None else []

    @property
    def soa(self) -> "PacketArrays":
        """The columns the flows view."""
        return self._soa

    def __len__(self) -> int:
        return self._soa.n_flows

    def identity_columns(self) -> tuple[np.ndarray, ...]:
        """The SoA's 5-tuple columns: hashing the list builds no ``Flow``."""
        return self._soa.identity_columns()

    def __getitem__(self, index):
        if isinstance(index, slice):
            flows = np.arange(len(self))[index]
            return LazyFlowList(self._soa.take(flows), self._class_names)
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(f"flow index {index} out of range for {n} flows")
        soa = self._soa
        label = int(soa.labels[index])
        class_name = (
            self._class_names[label] if 0 <= label < len(self._class_names) else ""
        )
        return Flow(
            five_tuple=FiveTuple(*(int(column[index]) for column in soa.identity_columns())),
            packets=_LazyPackets(
                soa, int(soa.flow_starts[index]), int(soa.flow_starts[index + 1])
            ),
            label=label,
            class_name=class_name,
            flow_id=int(soa.flow_ids[index]),
        )


@dataclass
class FlowDataset:
    """A collection of labelled flows plus class metadata.

    Attributes:
        name: Dataset identifier (``"D1"`` … ``"D7"`` or custom).
        description: Human-readable summary.
        flows: The labelled flows: a :class:`LazyFlowList` over the
            dataset's columns, or a hand-built list of flows.
        class_names: Index-aligned class names.
    """

    name: str
    description: str
    flows: Sequence[Flow]
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
        """Label vector aligned with :attr:`flows` (the label column).

        Example::

            >>> dataset.labels().shape == (dataset.n_flows,)
            True
        """
        return self.packet_arrays().labels.astype(np.intp)

    def subset(self, indices: np.ndarray) -> "FlowDataset":
        """Return a new dataset containing only the flows at ``indices``."""
        return FlowDataset(
            name=self.name,
            description=self.description,
            flows=LazyFlowList(
                self.packet_arrays().take(np.asarray(indices, dtype=np.intp)),
                self.class_names,
            ),
            class_names=list(self.class_names),
            metadata=dict(self.metadata),
        )

    def packet_arrays(self) -> "PacketArrays":
        """Structure-of-arrays form of all packets (see :class:`PacketArrays`).

        The arrays a :class:`LazyFlowList` views, as they are; a hand-built
        flow list is converted once and memoised.  So every replay of the
        same dataset shares one set of columns and the derived columns
        cached on them.  The memo assumes :attr:`flows` is not mutated
        afterwards.

        Example::

            >>> dataset = FlowDataset("demo", "", flows, ["benign", "attack"])
            >>> soa = dataset.packet_arrays()
            >>> soa.timestamps.shape == (soa.n_packets,)
            True
        """
        if isinstance(self.flows, LazyFlowList):
            return self.flows.soa
        cached = self._soa_cache
        if cached is None or cached.n_flows != len(self.flows):
            cached = PacketArrays.from_flows(self.flows)
            self._soa_cache = cached
        return cached


@dataclass
class PacketArrays:
    """Structure-of-arrays (SoA) packet representation: the traffic itself.

    All per-packet columns are flat NumPy arrays laid out *flow-major*: the
    packets of flow ``i`` occupy the half-open slice
    ``[flow_starts[i], flow_starts[i + 1])``, in their original (time) order.
    Per-flow columns are index-aligned with the source's flows.
    ``interleave_order`` is the permutation that sorts all packets by
    ``(timestamp, flow_id)`` — the order in which a switch would observe
    them — computed once at construction instead of on every replay.

    Example::

        >>> soa = dataset.packet_arrays()
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
    def from_columns(
        cls,
        *,
        timestamps: np.ndarray,
        sizes: np.ndarray,
        flags: np.ndarray,
        directions: np.ndarray,
        payloads: np.ndarray,
        counts: np.ndarray,
        flow_ids: np.ndarray,
        labels: np.ndarray,
        src_ips: np.ndarray,
        dst_ips: np.ndarray,
        src_ports: np.ndarray,
        dst_ports: np.ndarray,
        protocols: np.ndarray,
        packet_flow: np.ndarray | None = None,
    ) -> "PacketArrays":
        """Assemble the SoA from flow-major packet columns and per-flow columns.

        Derives the flow offsets, the packet-to-flow column (unless given),
        each flow's first size and timestamp and the interleave order.
        """
        counts = np.asarray(counts, dtype=np.int64)
        n_flows = counts.size
        flow_starts = np.zeros(n_flows + 1, dtype=np.intp)
        np.cumsum(counts, out=flow_starts[1:])
        total = int(flow_starts[-1])
        if packet_flow is None:
            packet_flow = np.repeat(np.arange(n_flows, dtype=np.intp), counts)
        flow_ids = np.asarray(flow_ids, dtype=np.int64)
        if total:
            safe_first = np.minimum(flow_starts[:-1], total - 1)
            first_sizes = np.where(counts > 0, sizes[safe_first], 0.0)
            first_timestamps = np.where(counts > 0, timestamps[safe_first], 0.0)
        else:
            first_sizes = np.zeros(n_flows, dtype=np.float64)
            first_timestamps = np.zeros(n_flows, dtype=np.float64)
        # Global (timestamp, flow_id) replay order, ties in flow-major order.
        # When flow ids do not fall along the flow axis — every source in
        # this repository numbers them in order — a stable timestamp sort
        # breaks ties in flow-major order, which is flow-id order, without
        # gathering a per-packet flow-id column.
        if np.all(flow_ids[1:] >= flow_ids[:-1]):
            interleave_order = np.argsort(timestamps, kind="stable")
        else:
            interleave_order = np.lexsort((flow_ids[packet_flow], timestamps))

        def column(values, dtype) -> np.ndarray:
            return np.asarray(values).astype(dtype, copy=False)

        return cls(
            timestamps=timestamps,
            sizes=sizes,
            flags=flags,
            directions=directions,
            payloads=payloads,
            packet_flow=packet_flow,
            flow_starts=flow_starts,
            flow_ids=flow_ids,
            labels=column(labels, np.int64),
            n_packets_per_flow=counts,
            src_ips=column(src_ips, np.int64),
            dst_ips=column(dst_ips, np.int64),
            src_ports=column(src_ports, np.int64),
            dst_ports=column(dst_ports, np.int64),
            protocols=column(protocols, np.int64),
            first_sizes=first_sizes,
            first_timestamps=first_timestamps,
            interleave_order=interleave_order,
        )

    @classmethod
    def from_flows(cls, flows: Sequence[Flow]) -> "PacketArrays":
        """The SoA columns of ``flows``.

        A :class:`LazyFlowList` hands over the arrays it views: a new
        ``PacketArrays`` (with a derived-column cache of its own) over the
        same column objects, no copy.  Any other list is written flow by
        flow: a flow viewing columns contributes its slices, a hand-built
        one its packets' fields.  No :class:`Packet` is built either way.
        """
        if isinstance(flows, LazyFlowList):
            return replace(flows.soa)
        writer = PacketArraysWriter()
        for flow in flows:
            writer.add_flow(
                flow.five_tuple,
                flow.label,
                flow_id=flow.flow_id,
                **PacketColumns.of_packets(flow.packets)._asdict(),
            )
        return writer.finish()

    def _columns(self) -> dict:
        """:meth:`from_columns` arguments rebuilding these arrays."""
        return {
            **{name: getattr(self, name) for name in PacketColumns._fields},
            "counts": self.n_packets_per_flow,
            "flow_ids": self.flow_ids,
            "labels": self.labels,
            "src_ips": self.src_ips,
            "dst_ips": self.dst_ips,
            "src_ports": self.src_ports,
            "dst_ports": self.dst_ports,
            "protocols": self.protocols,
            "packet_flow": self.packet_flow,
        }

    def take(self, flows: np.ndarray) -> "PacketArrays":
        """The SoA of the flows at indices ``flows``, in that order (gathered)."""
        flows = np.asarray(flows, dtype=np.intp)
        counts = self.n_packets_per_flow[flows]
        offsets = np.cumsum(counts) - counts
        positions = np.arange(int(counts.sum()), dtype=np.intp) + np.repeat(
            self.flow_starts[flows] - offsets, counts
        )
        columns = self._columns()
        del columns["packet_flow"]
        return PacketArrays.from_columns(**{
            name: np.asarray(values)[positions if name in PacketColumns._fields else flows]
            for name, values in columns.items()
        })

    def with_timestamps(self, timestamps: np.ndarray) -> "PacketArrays":
        """The same traffic with the packet timestamps ``timestamps`` (a new interleave)."""
        return PacketArrays.from_columns(**{**self._columns(), "timestamps": timestamps})

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


#: Per-flow identity and label columns a writer collects, in its row order.
_FLOW_FIELDS = (
    "flow_ids", "labels", "counts", "src_ips", "dst_ips", "src_ports", "dst_ports", "protocols",
)


class PacketArraysWriter:
    """Appends flows as columns; :meth:`finish` joins them into one :class:`PacketArrays`.

    The one way traffic becomes columns: the generators, the scenario layers
    and :meth:`PacketArrays.from_flows` write through it.  Packet columns
    are kept per appended flow (or flow block) and joined once; per-flow
    scalars are kept as rows until a block or :meth:`finish` needs them as
    columns.  :class:`~repro.datasets.streams.StreamedPacketWriter` spills
    the packet columns to disk instead.

    Example::

        >>> writer = PacketArraysWriter()
        >>> writer.add_flow(FiveTuple(1, 2, 3, 4, 6), 0, timestamps=[0.0], sizes=[60])
        0
        >>> writer.finish().n_packets
        1
    """

    def __init__(self) -> None:
        self._parts: dict[str, list[np.ndarray]] = {name: [] for name in PacketColumns._fields}
        self._flow_chunks: dict[str, list[np.ndarray]] = {name: [] for name in _FLOW_FIELDS}
        self._rows: list[tuple[int, ...]] = []
        self._n_flows = 0
        self._n_packets = 0
        self._finished = False

    @property
    def n_flows(self) -> int:
        """Flows appended so far."""
        return self._n_flows

    @property
    def n_packets(self) -> int:
        """Packets appended so far."""
        return self._n_packets

    def _check_open(self) -> None:
        if self._finished:
            raise RuntimeError(f"{type(self).__name__} already finished")

    def _write_packets(self, columns: PacketColumns, first_flow: int, counts) -> None:
        """Keep one flow-major run of packet columns (flows from ``first_flow``)."""
        for parts, values in zip(self._parts.values(), columns):
            parts.append(values)

    def _packet_columns(self) -> tuple[PacketColumns, np.ndarray | None]:
        """The joined packet columns and, if kept, the packet-to-flow column."""
        joined = []
        for name, dtype in zip(PacketColumns._fields, PACKET_DTYPES):
            parts = self._parts[name]
            # A copy even of one part: a column never aliases what was appended.
            joined.append(np.concatenate(parts) if parts else np.zeros(0, dtype=dtype))
            parts.clear()  # a column's parts go as soon as it is joined
        return PacketColumns(*joined), None

    @staticmethod
    def _packets(n: int, timestamps, sizes, flags, directions, payloads) -> PacketColumns:
        """Packet columns in their dtypes, defaults filled (no flags, forward, no payload)."""
        columns = PacketColumns(
            timestamps,
            sizes,
            np.zeros(n, dtype=np.int64) if flags is None else flags,
            np.ones(n, dtype=np.int64) if directions is None else directions,
            np.zeros(n, dtype=np.float64) if payloads is None else payloads,
        )
        return PacketColumns(*(
            np.ascontiguousarray(values, dtype=dtype)
            for values, dtype in zip(columns, PACKET_DTYPES)
        ))

    def add_flow(
        self,
        five_tuple: FiveTuple,
        label: int,
        *,
        timestamps: Sequence[float] | np.ndarray,
        sizes: Sequence[float] | np.ndarray,
        flags: Sequence[int] | np.ndarray | None = None,
        directions: Sequence[int] | np.ndarray | None = None,
        payloads: Sequence[float] | np.ndarray | None = None,
        flow_id: int | None = None,
    ) -> int:
        """Append one flow; returns its index on the flow axis."""
        self._check_open()
        timestamps = np.asarray(timestamps, dtype=np.float64)
        n = timestamps.size
        columns = self._packets(n, timestamps, sizes, flags, directions, payloads)
        for name, values in zip(PacketColumns._fields, columns):
            if values.size != n:
                raise ValueError(f"{name} has {values.size} entries, expected {n}")
        index = self._n_flows
        self._write_packets(columns, index, None)
        self._rows.append((
            index if flow_id is None else flow_id, label, n,
            five_tuple.src_ip, five_tuple.dst_ip, five_tuple.src_port,
            five_tuple.dst_port, five_tuple.protocol,
        ))
        self._n_flows += 1
        self._n_packets += n
        return index

    def _flush_rows(self) -> None:
        """Move the rows of :meth:`add_flow` into the per-flow column chunks."""
        if self._rows:
            rows = np.array(self._rows, dtype=np.int64)
            for chunks, values in zip(self._flow_chunks.values(), rows.T):
                chunks.append(values)
            self._rows.clear()

    def add_flow_block(
        self,
        *,
        src_ips: np.ndarray,
        dst_ips: np.ndarray,
        src_ports: np.ndarray,
        dst_ports: np.ndarray,
        protocols: np.ndarray,
        labels: np.ndarray,
        counts: np.ndarray,
        timestamps: np.ndarray,
        sizes: np.ndarray,
        flags: np.ndarray | None = None,
        directions: np.ndarray | None = None,
        payloads: np.ndarray | None = None,
        flow_ids: np.ndarray | None = None,
    ) -> int:
        """Append many flows at once; per-packet columns are flow-major.

        The fast path for flood generation: per-flow columns are index
        aligned with each other, per-packet columns concatenate the flows'
        packets in order (flow ``i``'s packets occupy the ``counts[:i]``-th
        through ``counts[:i+1]``-th entries).  Returns the index of the first
        appended flow.
        """
        self._check_open()
        counts = np.asarray(counts, dtype=np.int64)
        if counts.size and counts.min() < 0:
            raise ValueError("counts must be >= 0")
        n_flows = counts.size
        total = int(counts.sum())
        columns = self._packets(total, timestamps, sizes, flags, directions, payloads)
        if columns.timestamps.size != total or columns.sizes.size != total:
            raise ValueError(
                f"per-packet columns must carry sum(counts)={total} entries, "
                f"got {columns.timestamps.size} timestamps / {columns.sizes.size} sizes"
            )
        start = self._n_flows
        if flow_ids is None:
            flow_ids = np.arange(start, start + n_flows, dtype=np.int64)
        self._write_packets(columns, start, counts)
        self._flush_rows()
        block = {
            "flow_ids": flow_ids, "labels": labels, "counts": counts,
            "src_ips": src_ips, "dst_ips": dst_ips, "src_ports": src_ports,
            "dst_ports": dst_ports, "protocols": protocols,
        }
        for name, chunks in self._flow_chunks.items():
            chunks.append(np.asarray(block[name], dtype=np.int64))
        self._n_flows += int(n_flows)
        self._n_packets += total
        return start

    def _seal(self) -> PacketArrays:
        """Close the writer and assemble its :class:`PacketArrays`."""
        self._check_open()
        self._finished = True
        self._flush_rows()
        flow_columns = {
            name: np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
            for name, chunks in self._flow_chunks.items()
        }
        packets, packet_flow = self._packet_columns()
        return PacketArrays.from_columns(
            **packets._asdict(), **flow_columns, packet_flow=packet_flow
        )

    def finish(self) -> PacketArrays:
        """Seal the writer and return the joined columns."""
        return self._seal()

    def abort(self) -> None:
        """Discard what was appended without building a source."""
        self._finished = True
        for parts in self._parts.values():
            parts.clear()
