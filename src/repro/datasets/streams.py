"""Chunked packet iteration over :class:`~repro.datasets.flows.PacketArrays`.

A :class:`PacketChunk` is the unit of ingestion of the streaming inference
engines (:mod:`repro.serve`): a slice of the global ``(timestamp, flow_id)``
packet interleave, carried as *positions into a shared structure-of-arrays
source* rather than materialised packet objects — so chunking adds no
per-packet cost on top of the SoA construction.

Stream contract (what the serving engines assume and check):

* every chunk of one engine session references the **same** source
  (``soa`` / ``flows`` pair), and
* concatenating the chunks' ``positions`` yields the packets in
  ``(timestamp, flow_id)`` order — the order a switch observes, with ties in
  the order every batched plane replays them — and each flow's packets in
  order, from its first.

:func:`iter_packet_chunks` produces chunks satisfying both by slicing the
precomputed interleave permutation.

For workloads larger than RAM, :class:`StreamedPacketWriter` materialises the
per-packet columns *on disk* as they are generated and
:meth:`~StreamedPacketWriter.finish` hands back a
:class:`StreamedPacketSource` whose :class:`PacketArrays` columns are
``numpy.memmap`` views — every downstream consumer (``iter_packet_chunks``,
the serve engines, the fused replay) works unchanged, paging packet data in
from disk instead of holding it resident.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.datasets.flows import FiveTuple, Flow, FlowDataset, Packet, PacketArrays


@dataclass(eq=False)
class PacketChunk:
    """One ingestion unit of a packet stream.

    Attributes:
        soa: The shared structure-of-arrays source the positions index into.
        flows: Flow objects aligned with ``soa``'s flow axis (needed by the
            per-packet scalar paths and for ground-truth labels).
        positions: Packet positions (indices into ``soa``'s packet columns)
            in stream order.
    """

    soa: PacketArrays
    flows: list[Flow]
    positions: np.ndarray
    _flow_counts: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False
    )
    _by_position: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def n_packets(self) -> int:
        """Packets carried by this chunk."""
        return int(self.positions.size)

    def by_position(self) -> np.ndarray:
        """The chunk's positions sorted: flow by flow, each flow's in packet order."""
        if self._by_position is None:
            self._by_position = np.sort(self.positions)
        return self._by_position

    def flow_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Flow indices with packets in this chunk (ascending) and their packet counts.

        Computed once per chunk: the serving engines update their per-flow
        bookkeeping on these flows only, whatever the size of the source.
        """
        if self._flow_counts is None:
            # Positions are flow-major, so sorted positions group the flows.
            flows = self.soa.packet_flow[self.by_position()]
            starts = np.flatnonzero(np.diff(flows, prepend=-1))
            self._flow_counts = (flows[starts], np.diff(starts, append=flows.size))
        return self._flow_counts

    def timestamps(self) -> np.ndarray:
        """Arrival timestamps of the chunk's packets, in stream order."""
        return self.soa.timestamps[self.positions]


def iter_packet_chunks(
    flows: FlowDataset | Iterable[Flow],
    chunk_size: int | None = None,
    *,
    soa: PacketArrays | None = None,
) -> Iterator[PacketChunk]:
    """Yield :class:`PacketChunk` slices of ``flows`` in global arrival order.

    Args:
        flows: A :class:`~repro.datasets.flows.FlowDataset` or list of flows.
        chunk_size: Packets per chunk; ``None`` yields the whole stream as a
            single chunk (the ingest-everything-then-drain shape batch replay
            uses).
        soa: Reuse an existing :class:`PacketArrays` built from the same
            flows instead of constructing one.

    At least one chunk is always yielded (possibly empty), so downstream
    consumers observe the flow table — and its labels — even for packet-less
    datasets.

    Example::

        >>> for chunk in iter_packet_chunks(dataset, chunk_size=256):
        ...     engine.ingest(chunk)
    """
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if isinstance(flows, FlowDataset):
        flows = flows.flows
    if not isinstance(flows, Sequence):
        # Lists (and LazyFlowList) pass through untouched: materialising a
        # lazy flow sequence here would defeat out-of-core replay.
        flows = list(flows)
    if soa is None:
        soa = PacketArrays.from_flows(flows)
    for positions in soa.iter_chunks(chunk_size):
        yield PacketChunk(soa=soa, flows=flows, positions=positions)


# ----------------------------------------------------------------------
# Streamed (out-of-core) packet source
# ----------------------------------------------------------------------

#: Per-packet columns spilled to disk by :class:`StreamedPacketWriter`, in
#: the dtype :meth:`PacketArrays.from_flows` would give them.
_PACKET_COLUMNS = (
    ("timestamps", np.dtype(np.float64)),
    ("sizes", np.dtype(np.float64)),
    ("flags", np.dtype(np.int64)),
    ("directions", np.dtype(np.int64)),
    ("payloads", np.dtype(np.float64)),
    ("packet_flow", np.dtype(np.intp)),
)


class _LazyPackets(Sequence):
    """List-like view of one flow's packets, built on demand from the SoA.

    Supports everything :class:`~repro.datasets.flows.Flow` asks of its
    ``packets`` list — ``len``, iteration, and (negative) indexing (e.g.
    ``packets[-1]`` in ``Flow.duration``) — constructing each
    :class:`Packet` only when touched, so holding a million lazy flows costs
    no packet-object memory.
    """

    __slots__ = ("_soa", "_start", "_stop")

    def __init__(self, soa: PacketArrays, start: int, stop: int) -> None:
        self._soa = soa
        self._start = start
        self._stop = stop

    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(f"packet index {index} out of range for flow of {n} packets")
        pos = self._start + index
        soa = self._soa
        return Packet(
            timestamp=float(soa.timestamps[pos]),
            size=int(soa.sizes[pos]),
            flags=int(soa.flags[pos]),
            direction=int(soa.directions[pos]),
            payload=int(soa.payloads[pos]),
        )


class LazyFlowList(Sequence):
    """Sequence of :class:`Flow` objects materialised per access.

    Indexing builds an ephemeral ``Flow`` whose ``packets`` is a
    :class:`_LazyPackets` view into the (possibly memmap-backed) SoA — the
    per-flow five-tuple components are the SoA's identity columns, so the
    resident cost is a few per-flow columns regardless of packet count.
    Satisfies the ``flows`` contract of :func:`iter_packet_chunks` and the
    scalar paths of the replay engines without ever holding the object-form
    dataset.
    """

    def __init__(self, soa: PacketArrays, class_names: Sequence[str] | None = None) -> None:
        self._soa = soa
        self._class_names = list(class_names) if class_names is not None else []

    def __len__(self) -> int:
        return self._soa.n_flows

    def identity_columns(self) -> tuple[np.ndarray, ...]:
        """The SoA's 5-tuple columns: hashing the list builds no ``Flow``."""
        return self._soa.identity_columns()

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
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
            five_tuple=FiveTuple(
                src_ip=int(soa.src_ips[index]),
                dst_ip=int(soa.dst_ips[index]),
                src_port=int(soa.src_ports[index]),
                dst_port=int(soa.dst_ports[index]),
                protocol=int(soa.protocols[index]),
            ),
            packets=_LazyPackets(
                soa, int(soa.flow_starts[index]), int(soa.flow_starts[index + 1])
            ),
            label=label,
            class_name=class_name,
            flow_id=int(soa.flow_ids[index]),
        )


class StreamedPacketWriter:
    """Incrementally spill a packet workload to disk, column by column.

    Generators append flows (or whole flow blocks) as they are produced; the
    per-packet columns go straight to flat binary files while only the small
    per-flow columns stay resident.  :meth:`finish` memory-maps the spilled
    columns into a genuine :class:`PacketArrays` — so chunked iteration, the
    serve engines and the fused replay all work unchanged — wrapped in a
    :class:`StreamedPacketSource` that owns the backing directory.

    Example::

        >>> writer = StreamedPacketWriter()
        >>> writer.add_flow(five_tuple, label=0, timestamps=[0.0], sizes=[60])
        >>> with writer.finish(class_names=["benign", "attack"]) as source:
        ...     for chunk in iter_packet_chunks(source.flows, 4096, soa=source.soa):
        ...         engine.ingest(chunk)
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        if directory is None:
            self._dir = Path(tempfile.mkdtemp(prefix="splidt-stream-"))
        else:
            self._dir = Path(directory)
            self._dir.mkdir(parents=True, exist_ok=True)
        self._files = {
            name: open(self._dir / f"{name}.bin", "wb") for name, _ in _PACKET_COLUMNS
        }
        # Per-flow columns accumulate as chunk lists (one append per add_flow
        # call, one per block) and concatenate once in finish().
        self._flow_chunks: dict[str, list[np.ndarray]] = {
            name: []
            for name in (
                "flow_ids", "labels", "counts", "src_ips", "dst_ips",
                "src_ports", "dst_ports", "protocols",
                "first_sizes", "first_timestamps",
            )
        }
        self._n_flows = 0
        self._n_packets = 0
        self._last_flow_id: int | None = None
        self._monotonic_ids = True
        self._finished = False

    @property
    def n_flows(self) -> int:
        """Flows appended so far."""
        return self._n_flows

    @property
    def n_packets(self) -> int:
        """Packets spilled so far."""
        return self._n_packets

    def _check_open(self) -> None:
        if self._finished:
            raise RuntimeError("StreamedPacketWriter already finished")

    def _write_packets(self, **columns: np.ndarray) -> None:
        for name, dtype in _PACKET_COLUMNS:
            self._files[name].write(
                np.ascontiguousarray(columns[name], dtype=dtype).tobytes()
            )

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
        sizes = np.asarray(sizes, dtype=np.float64)
        n = timestamps.size
        if sizes.size != n:
            raise ValueError(f"sizes has {sizes.size} entries, expected {n}")
        if flow_id is None:
            flow_id = self._n_flows
        index = self._n_flows
        self._write_packets(
            timestamps=timestamps,
            sizes=sizes,
            flags=np.zeros(n, dtype=np.int64) if flags is None else np.asarray(flags),
            directions=(
                np.ones(n, dtype=np.int64) if directions is None else np.asarray(directions)
            ),
            payloads=(
                np.zeros(n, dtype=np.float64) if payloads is None else np.asarray(payloads)
            ),
            packet_flow=np.full(n, index, dtype=np.intp),
        )
        chunks = self._flow_chunks
        chunks["flow_ids"].append(np.array([flow_id], dtype=np.int64))
        chunks["labels"].append(np.array([label], dtype=np.int64))
        chunks["counts"].append(np.array([n], dtype=np.int64))
        chunks["src_ips"].append(np.array([five_tuple.src_ip], dtype=np.int64))
        chunks["dst_ips"].append(np.array([five_tuple.dst_ip], dtype=np.int64))
        chunks["src_ports"].append(np.array([five_tuple.src_port], dtype=np.int64))
        chunks["dst_ports"].append(np.array([five_tuple.dst_port], dtype=np.int64))
        chunks["protocols"].append(np.array([five_tuple.protocol], dtype=np.int64))
        chunks["first_sizes"].append(
            np.array([float(sizes[0]) if n else 0.0], dtype=np.float64)
        )
        chunks["first_timestamps"].append(
            np.array([float(timestamps[0]) if n else 0.0], dtype=np.float64)
        )
        if self._last_flow_id is not None and flow_id < self._last_flow_id:
            self._monotonic_ids = False
        self._last_flow_id = flow_id
        self._n_flows += 1
        self._n_packets += int(n)
        return index

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
        n_flows = counts.size
        timestamps = np.asarray(timestamps, dtype=np.float64)
        sizes = np.asarray(sizes, dtype=np.float64)
        total = int(counts.sum())
        if timestamps.size != total or sizes.size != total:
            raise ValueError(
                f"per-packet columns must carry sum(counts)={total} entries, "
                f"got {timestamps.size} timestamps / {sizes.size} sizes"
            )
        if counts.size and counts.min() < 0:
            raise ValueError("counts must be >= 0")
        start = self._n_flows
        if flow_ids is None:
            flow_ids = np.arange(start, start + n_flows, dtype=np.int64)
        else:
            flow_ids = np.asarray(flow_ids, dtype=np.int64)
        self._write_packets(
            timestamps=timestamps,
            sizes=sizes,
            flags=np.zeros(total, dtype=np.int64) if flags is None else np.asarray(flags),
            directions=(
                np.ones(total, dtype=np.int64) if directions is None else np.asarray(directions)
            ),
            payloads=(
                np.zeros(total, dtype=np.float64) if payloads is None else np.asarray(payloads)
            ),
            packet_flow=np.repeat(np.arange(start, start + n_flows, dtype=np.intp), counts),
        )
        starts = np.zeros(n_flows + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        if total:
            safe_first = np.minimum(starts[:-1], total - 1)
            first_sizes = np.where(counts > 0, sizes[safe_first], 0.0)
            first_timestamps = np.where(counts > 0, timestamps[safe_first], 0.0)
        else:
            first_sizes = np.zeros(n_flows, dtype=np.float64)
            first_timestamps = np.zeros(n_flows, dtype=np.float64)
        chunks = self._flow_chunks
        chunks["flow_ids"].append(flow_ids)
        chunks["labels"].append(np.asarray(labels, dtype=np.int64))
        chunks["counts"].append(counts)
        chunks["src_ips"].append(np.asarray(src_ips, dtype=np.int64))
        chunks["dst_ips"].append(np.asarray(dst_ips, dtype=np.int64))
        chunks["src_ports"].append(np.asarray(src_ports, dtype=np.int64))
        chunks["dst_ports"].append(np.asarray(dst_ports, dtype=np.int64))
        chunks["protocols"].append(np.asarray(protocols, dtype=np.int64))
        chunks["first_sizes"].append(first_sizes.astype(np.float64))
        chunks["first_timestamps"].append(first_timestamps.astype(np.float64))
        if n_flows:
            if self._last_flow_id is not None and int(flow_ids[0]) < self._last_flow_id:
                self._monotonic_ids = False
            if np.any(np.diff(flow_ids) < 0):
                self._monotonic_ids = False
            self._last_flow_id = int(flow_ids[-1])
        self._n_flows += int(n_flows)
        self._n_packets += total
        return start

    def _flow_column(self, name: str, dtype) -> np.ndarray:
        chunks = self._flow_chunks[name]
        if not chunks:
            return np.zeros(0, dtype=dtype)
        if len(chunks) == 1:
            return chunks[0].astype(dtype, copy=False)
        return np.concatenate(chunks).astype(dtype, copy=False)

    def finish(
        self,
        *,
        name: str = "streamed",
        description: str = "",
        class_names: Sequence[str] | None = None,
    ) -> "StreamedPacketSource":
        """Seal the writer and return the memmap-backed source."""
        self._check_open()
        self._finished = True
        for handle in self._files.values():
            handle.close()

        total = self._n_packets
        packet_cols: dict[str, np.ndarray] = {}
        for col_name, dtype in _PACKET_COLUMNS:
            if total:
                packet_cols[col_name] = np.memmap(
                    self._dir / f"{col_name}.bin", dtype=dtype, mode="r", shape=(total,)
                )
            else:
                # np.memmap rejects zero-length maps; an empty workload fits
                # in RAM by definition.
                packet_cols[col_name] = np.zeros(0, dtype=dtype)

        counts = self._flow_column("counts", np.int64)
        flow_starts = np.zeros(self._n_flows + 1, dtype=np.intp)
        np.cumsum(counts, out=flow_starts[1:])
        flow_ids = self._flow_column("flow_ids", np.int64)

        # Global (timestamp, flow_id) interleave.  When flow ids were
        # appended in non-decreasing order — every generator in this repo —
        # a stable timestamp sort breaks ties in append order, which *is*
        # flow-id order, so it matches ``lexsort((flow_ids[packet_flow],
        # timestamps))`` exactly without materialising the per-packet flow-id
        # gather in RAM.
        if self._monotonic_ids:
            interleave_order = np.argsort(packet_cols["timestamps"], kind="stable")
        else:
            interleave_order = np.lexsort(
                (flow_ids[packet_cols["packet_flow"]], packet_cols["timestamps"])
            )

        soa = PacketArrays(
            timestamps=packet_cols["timestamps"],
            sizes=packet_cols["sizes"],
            flags=packet_cols["flags"],
            directions=packet_cols["directions"],
            payloads=packet_cols["payloads"],
            packet_flow=packet_cols["packet_flow"],
            flow_starts=flow_starts,
            flow_ids=flow_ids,
            labels=self._flow_column("labels", np.int64),
            n_packets_per_flow=counts,
            src_ips=self._flow_column("src_ips", np.int64),
            dst_ips=self._flow_column("dst_ips", np.int64),
            src_ports=self._flow_column("src_ports", np.int64),
            dst_ports=self._flow_column("dst_ports", np.int64),
            protocols=self._flow_column("protocols", np.int64),
            first_sizes=self._flow_column("first_sizes", np.float64),
            first_timestamps=self._flow_column("first_timestamps", np.float64),
            interleave_order=interleave_order,
        )
        return StreamedPacketSource(
            soa=soa,
            flows=LazyFlowList(soa, class_names),
            directory=self._dir,
            name=name,
            description=description,
            class_names=list(class_names) if class_names is not None else [],
        )

    def abort(self) -> None:
        """Discard the spilled columns without building a source."""
        if not self._finished:
            self._finished = True
            for handle in self._files.values():
                handle.close()
        shutil.rmtree(self._dir, ignore_errors=True)


class StreamedPacketSource:
    """A memmap-backed packet workload plus the directory that owns it.

    ``soa`` is a real :class:`PacketArrays` (its per-packet columns are
    ``numpy.memmap`` views) and ``flows`` a :class:`LazyFlowList`, so the
    pair drops into every ``(flows, soa)`` consumer in the repository.  The
    backing directory is removed on :meth:`close`, on context-manager exit,
    or — as a safety net — when the source is garbage collected.
    """

    def __init__(
        self,
        *,
        soa: PacketArrays,
        flows: LazyFlowList,
        directory: Path,
        name: str = "streamed",
        description: str = "",
        class_names: list[str] | None = None,
    ) -> None:
        self.soa = soa
        self.flows = flows
        self.directory = Path(directory)
        self.name = name
        self.description = description
        self.class_names = class_names if class_names is not None else []
        self._finalizer = weakref.finalize(
            self, shutil.rmtree, str(self.directory), True
        )

    @property
    def n_flows(self) -> int:
        """Flows in the workload."""
        return self.soa.n_flows

    @property
    def n_packets(self) -> int:
        """Packets in the workload."""
        return self.soa.n_packets

    def iter_chunks(self, chunk_size: int | None = None) -> Iterator[PacketChunk]:
        """Stream the workload as :class:`PacketChunk`\\ s (see module docs)."""
        return iter_packet_chunks(self.flows, chunk_size, soa=self.soa)

    def spilled_bytes(self) -> int:
        """Bytes currently spilled to the backing directory."""
        return sum(f.stat().st_size for f in self.directory.glob("*.bin"))

    def materialised_bytes_estimate(self) -> int:
        """Estimated resident bytes of the equivalent in-RAM dataset.

        Counts (a) the SoA columns ``PacketArrays.from_flows`` would allocate
        and (b) the object-form ``Flow``/``Packet``/``FiveTuple`` graph that
        construction path requires as input — measured from live sample
        objects, so the estimate tracks the interpreter's real per-object
        overhead rather than a hard-coded constant.
        """
        soa = self.soa
        n_packets, n_flows = soa.n_packets, soa.n_flows
        per_packet = sum(dtype.itemsize for _, dtype in _PACKET_COLUMNS)
        per_packet += soa.interleave_order.dtype.itemsize  # the permutation
        column_bytes = n_packets * per_packet
        for arr in (
            soa.flow_starts, soa.flow_ids, soa.labels, soa.n_packets_per_flow,
            *soa.identity_columns(),
            soa.first_sizes, soa.first_timestamps,
        ):
            column_bytes += arr.dtype.itemsize * max(len(arr), 1)

        sample_packet = Packet(timestamp=0.0, size=64, flags=0, direction=1, payload=0)
        sample_tuple = FiveTuple(1, 2, 3, 4, 6)
        sample_flow = Flow(
            five_tuple=sample_tuple, packets=[], label=0, class_name="", flow_id=0
        )
        pointer = 8  # one list slot per object held
        # Each packet's timestamp is a unique float object; sizes/flags/
        # directions mostly hit the small-int cache and are not counted.
        packet_bytes = (
            sys.getsizeof(sample_packet)
            + sys.getsizeof(sample_packet.__dict__)
            + sys.getsizeof(0.1)
            + pointer
        )
        # Each flow additionally holds two IP ints past the small-int cache
        # and a non-empty packets list (allocation header vs the bare []).
        tuple_bytes = sys.getsizeof(sample_tuple)
        if hasattr(sample_tuple, "__dict__"):
            tuple_bytes += sys.getsizeof(sample_tuple.__dict__)
        flow_bytes = (
            sys.getsizeof(sample_flow)
            + sys.getsizeof(sample_flow.__dict__)
            + tuple_bytes
            + 2 * sys.getsizeof(1 << 30)
            + sys.getsizeof([None])
            + pointer
        )
        object_bytes = n_packets * packet_bytes + n_flows * flow_bytes
        return column_bytes + object_bytes

    def close(self) -> None:
        """Release the memmaps' directory (idempotent)."""
        if self._finalizer.alive:
            self._finalizer()

    def __enter__(self) -> "StreamedPacketSource":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
