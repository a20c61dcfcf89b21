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

from repro.datasets.flows import (
    PACKET_DTYPES,
    FiveTuple,
    Flow,
    FlowDataset,
    LazyFlowList,
    Packet,
    PacketArrays,
    PacketArraysWriter,
    PacketColumns,
)


@dataclass(eq=False)
class PacketChunk:
    """One ingestion unit of a packet stream.

    Attributes:
        soa: The shared structure-of-arrays source the positions index into.
        flows: The source's flows (views, usually a ``LazyFlowList``),
            aligned with ``soa``'s flow axis; no engine reads them, an
            online retraining buffer keeps some.
        positions: Packet positions (indices into ``soa``'s packet columns)
            in stream order.
    """

    soa: PacketArrays
    flows: Sequence[Flow]
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
            # Positions are flow-major, so sorted positions group the flows:
            # a run of one flow is cut where the flow index changes.
            flows = self.soa.packet_flow[self.by_position()]
            cut = np.empty(flows.size + 1, dtype=bool)
            cut[0] = cut[-1] = True
            np.not_equal(flows[1:], flows[:-1], out=cut[1:-1])
            bounds = cut.nonzero()[0]
            self._flow_counts = (flows[bounds[:-1]], bounds[1:] - bounds[:-1])
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
#: their :class:`PacketArrays` dtypes.
_PACKET_COLUMNS = (
    *zip(PacketColumns._fields, PACKET_DTYPES),
    ("packet_flow", np.dtype(np.intp)),
)


class StreamedPacketWriter(PacketArraysWriter):
    """Incrementally spill a packet workload to disk, column by column.

    A :class:`~repro.datasets.flows.PacketArraysWriter` whose packet columns
    go straight to flat binary files as flows (or whole flow blocks) are
    appended, while only the small per-flow columns stay resident.
    :meth:`finish` memory-maps the spilled columns into a genuine
    :class:`PacketArrays` — so chunked iteration, the serve engines and the
    fused replay all work unchanged — wrapped in a
    :class:`StreamedPacketSource` that owns the backing directory.

    Example::

        >>> writer = StreamedPacketWriter()
        >>> writer.add_flow(five_tuple, label=0, timestamps=[0.0], sizes=[60])
        >>> with writer.finish(class_names=["benign", "attack"]) as source:
        ...     for chunk in iter_packet_chunks(source.flows, 4096, soa=source.soa):
        ...         engine.ingest(chunk)
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        super().__init__()
        if directory is None:
            self._dir = Path(tempfile.mkdtemp(prefix="splidt-stream-"))
        else:
            self._dir = Path(directory)
            self._dir.mkdir(parents=True, exist_ok=True)
        self._files = {
            name: open(self._dir / f"{name}.bin", "wb") for name, _ in _PACKET_COLUMNS
        }

    def _write_packets(self, columns: PacketColumns, first_flow: int, counts) -> None:
        n = columns.timestamps.size
        packet_flow = (
            np.full(n, first_flow, dtype=np.intp) if counts is None
            else np.repeat(np.arange(first_flow, first_flow + counts.size, dtype=np.intp), counts)
        )
        for (name, _), values in zip(_PACKET_COLUMNS, (*columns, packet_flow)):
            self._files[name].write(values.tobytes())

    def _close_files(self) -> None:
        for handle in self._files.values():
            handle.close()

    def _packet_columns(self) -> tuple[PacketColumns, np.ndarray]:
        total = self._n_packets
        columns = [
            # np.memmap rejects zero-length maps; an empty workload fits in
            # RAM by definition.
            np.memmap(self._dir / f"{name}.bin", dtype=dtype, mode="r", shape=(total,))
            if total else np.zeros(0, dtype=dtype)
            for name, dtype in _PACKET_COLUMNS
        ]
        return PacketColumns(*columns[:-1]), columns[-1]

    def finish(
        self,
        *,
        name: str = "streamed",
        description: str = "",
        class_names: Sequence[str] | None = None,
    ) -> "StreamedPacketSource":
        """Seal the writer and return the memmap-backed source."""
        self._check_open()
        self._close_files()
        soa = self._seal()
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
            self._close_files()
        super().abort()
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
        """Estimated resident bytes of the workload held in RAM as objects.

        Counts (a) the SoA columns an in-RAM source holds and (b) the same
        traffic as a ``Flow``/``Packet``/``FiveTuple`` object graph
        (:meth:`_object_bytes`) — the form every in-RAM dataset took before
        generation wrote columns directly, kept as the out-of-core
        benchmark's reference point.
        """
        soa = self.soa
        per_packet = sum(dtype.itemsize for _, dtype in _PACKET_COLUMNS)
        per_packet += soa.interleave_order.dtype.itemsize  # the permutation
        column_bytes = soa.n_packets * per_packet
        for arr in (
            soa.flow_starts, soa.flow_ids, soa.labels, soa.n_packets_per_flow,
            *soa.identity_columns(),
            soa.first_sizes, soa.first_timestamps,
        ):
            column_bytes += arr.dtype.itemsize * max(len(arr), 1)
        return column_bytes + self._object_bytes()

    def _object_bytes(self) -> int:
        """Estimated bytes of the source's traffic as ``Flow``/``Packet`` objects.

        Measured from live sample objects, so the estimate tracks the
        interpreter's real per-object overhead (a slotted ``Packet`` has no
        ``__dict__``) rather than a hard-coded constant.
        """
        soa = self.soa
        sample_packet = Packet(timestamp=0.0, size=64, flags=0, direction=1, payload=0)
        sample_five_tuple = FiveTuple(1, 2, 3, 4, 6)
        sample_flow = Flow(
            five_tuple=sample_five_tuple, packets=[], label=0, class_name="", flow_id=0
        )
        pointer = 8  # one list slot per object held
        large_int = sys.getsizeof(1 << 30)
        # Each packet's timestamp is a unique float object, and so is each
        # size or payload past the small-int cache (-5..256); flags and
        # directions always hit the cache.
        packet_bytes = sys.getsizeof(sample_packet) + sys.getsizeof(0.1) + pointer
        if hasattr(sample_packet, "__dict__"):
            packet_bytes += sys.getsizeof(sample_packet.__dict__)
        n_large = int(np.count_nonzero(soa.sizes > 256) + np.count_nonzero(soa.payloads > 256))
        # Each flow additionally holds two IP ints past the small-int cache
        # and a non-empty packets list (allocation header vs the bare []).
        tuple_bytes = sys.getsizeof(sample_five_tuple)
        if hasattr(sample_five_tuple, "__dict__"):
            tuple_bytes += sys.getsizeof(sample_five_tuple.__dict__)
        flow_bytes = (
            sys.getsizeof(sample_flow)
            + sys.getsizeof(sample_flow.__dict__)
            + tuple_bytes
            + 2 * large_int
            + sys.getsizeof([None])
            + pointer
        )
        return (
            soa.n_packets * packet_bytes
            + n_large * large_int
            + soa.n_flows * flow_bytes
        )

    def close(self) -> None:
        """Release the memmaps' directory (idempotent)."""
        if self._finalizer.alive:
            self._finalizer()

    def __enter__(self) -> "StreamedPacketSource":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
