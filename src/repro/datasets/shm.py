"""Shared-memory construction and lifetime for :class:`PacketArrays`.

The process-sharded serving engine (:mod:`repro.serve.process_sharded`)
ships packets to worker *processes*.  Pickling per-chunk packet payloads
through a queue would copy every column on every chunk; instead the whole
structure-of-arrays source is placed once into a single
:class:`multiprocessing.shared_memory.SharedMemory` segment, and workers
attach **zero-copy NumPy views** over the same pages.  Per-chunk messages
then carry only packet *positions* (a few bytes per packet), exactly like
the in-process :class:`~repro.datasets.streams.PacketChunk` contract.

Lifetime discipline (who may do what):

* the **owner** (the process that called :meth:`SharedPacketArrays.create`)
  is the only one allowed to :meth:`unlink` the segment — doing so removes
  the backing file under ``/dev/shm`` once every attached process has also
  closed its mapping;
* **attachers** (:meth:`SharedPacketArrays.attach`) only ever
  :meth:`close` their mapping — never unlink; the shared
  :mod:`multiprocessing.resource_tracker` keeps exactly one registration
  per name, released by the owner's unlink (and reclaimed by the tracker
  itself if the owner is killed before it can clean up);
* both operations are idempotent, so crash-path cleanup can call them
  unconditionally.

Segments are named ``splidt-soa-<pid>-<nonce>`` so an operator can spot an
orphaned segment in ``/dev/shm`` at a glance (see ``docs/performance.md``
for the operations notes).
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass, fields
from multiprocessing import shared_memory

import numpy as np

from repro.datasets.flows import PacketArrays

#: Byte alignment of every column inside the segment (cache-line friendly).
_ALIGN = 64

#: Prefix of every segment created by :meth:`SharedPacketArrays.create`.
SEGMENT_PREFIX = "splidt-soa"

#: Mount point backing POSIX shared memory on Linux.
SHM_MOUNT = "/dev/shm"


class SharedMemoryCapacityError(MemoryError):
    """Raised when a segment would not fit the shared-memory mount.

    Subclasses :class:`MemoryError` so generic out-of-memory handling still
    catches it, while carrying the sizes a caller needs to act (shrink the
    workload, switch to the streamed source, or mount a bigger tmpfs).
    """

    def __init__(self, requested: int, available: int) -> None:
        self.requested = requested
        self.available = available
        super().__init__(
            f"shared-memory segment of {requested:,} bytes exceeds the "
            f"{available:,} bytes available under {SHM_MOUNT}; shrink the "
            f"workload, free segments (ls {SHM_MOUNT}), or replay out-of-core "
            f"via repro.datasets.streams.StreamedPacketWriter instead"
        )


def _shm_bytes_available() -> int | None:
    """Free bytes on the shared-memory mount, or ``None`` when unknowable."""
    try:
        stats = os.statvfs(SHM_MOUNT)
    except OSError:  # non-Linux or exotic container: skip the preflight
        return None
    return stats.f_bavail * stats.f_frsize


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def create_segment(size: int, *, prefix: str = SEGMENT_PREFIX) -> shared_memory.SharedMemory:
    """Allocate a fresh named segment with capacity preflight and a nonce name.

    Shared by :meth:`SharedPacketArrays.create` and the serve-path ring
    buffers (:mod:`repro.serve.ring`): the requested size is checked against
    the free space under ``/dev/shm`` first (raising
    :class:`SharedMemoryCapacityError` with both sizes), and the
    ``<prefix>-<pid>-<nonce>`` name is retried on the astronomically rare
    nonce collision.
    """
    size = max(int(size), 1)
    available = _shm_bytes_available()
    if available is not None and size > available:
        raise SharedMemoryCapacityError(size, available)
    for _ in range(16):
        name = f"{prefix}-{os.getpid()}-{secrets.token_hex(4)}"
        try:
            return shared_memory.SharedMemory(name=name, create=True, size=size)
        except FileExistsError:  # pragma: no cover - nonce collision
            continue
    raise RuntimeError("could not allocate a shared-memory segment name")


@dataclass(frozen=True)
class ColumnSpec:
    """Location of one :class:`PacketArrays` column inside the segment."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class SharedArraysLayout:
    """Picklable description of a shared segment: its name plus column map.

    This is the only thing that crosses the process boundary — a worker
    rebuilds the full :class:`PacketArrays` from it with
    :meth:`SharedPacketArrays.attach` without copying any packet data.
    """

    segment: str
    size: int
    columns: tuple[ColumnSpec, ...]


class SharedPacketArrays:
    """A :class:`PacketArrays` whose columns live in one shared-memory segment.

    Example::

        >>> shared = SharedPacketArrays.create(dataset.packet_arrays())
        >>> layout = shared.layout            # picklable; send to workers
        >>> view = SharedPacketArrays.attach(layout)   # in another process
        >>> view.arrays.n_packets == shared.arrays.n_packets
        True
        >>> view.close(); shared.unlink(); shared.close()
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        arrays: PacketArrays,
        layout: SharedArraysLayout,
        *,
        owner: bool,
    ) -> None:
        self._shm: shared_memory.SharedMemory | None = shm
        self._arrays: PacketArrays | None = arrays
        self.layout = layout
        self.owner = owner
        self._unlinked = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, soa: PacketArrays) -> "SharedPacketArrays":
        """Copy ``soa``'s columns into a fresh segment (caller becomes owner).

        The copy happens exactly once per serving session; afterwards any
        number of processes can attach views without further copies.

        The requested size is validated against the free space under
        ``/dev/shm`` first: an oversized workload raises
        :class:`SharedMemoryCapacityError` up front (naming the two sizes)
        instead of surfacing as a raw ``OSError`` mid-copy.
        """
        columns: list[ColumnSpec] = []
        offset = 0
        source = {}
        for field_ in fields(PacketArrays):
            if not field_.init:
                # Process-local caches (e.g. the derived-column dict) are not
                # columns; each process rebuilds its own.
                continue
            column = np.ascontiguousarray(getattr(soa, field_.name))
            offset = _align(offset)
            columns.append(
                ColumnSpec(
                    name=field_.name,
                    dtype=column.dtype.str,
                    shape=tuple(column.shape),
                    offset=offset,
                )
            )
            source[field_.name] = column
            offset += column.nbytes
        size = max(offset, 1)
        shm = create_segment(size)
        for spec in columns:
            view = np.ndarray(
                spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf, offset=spec.offset
            )
            view[...] = source[spec.name]
            del view  # keep no exported buffer views: close() must not fail
        layout = SharedArraysLayout(segment=shm.name, size=size, columns=tuple(columns))
        arrays = cls._views(shm, layout)
        return cls(shm, arrays, layout, owner=True)

    @classmethod
    def attach(cls, layout: SharedArraysLayout) -> "SharedPacketArrays":
        """Map an existing segment and rebuild zero-copy column views.

        Registration bookkeeping: worker processes share the parent's
        ``multiprocessing.resource_tracker``, whose per-name cache is a set —
        attaching re-registers the same name at no cost, and the owner's
        :meth:`unlink` unregisters it exactly once.  A hard-crashed session
        (parent SIGKILLed before ``unlink``) is therefore still reclaimed by
        the tracker at shutdown.
        """
        shm = shared_memory.SharedMemory(name=layout.segment)
        return cls(shm, cls._views(shm, layout), layout, owner=False)

    @staticmethod
    def _views(shm: shared_memory.SharedMemory, layout: SharedArraysLayout) -> PacketArrays:
        kwargs = {
            spec.name: np.ndarray(
                spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf, offset=spec.offset
            )
            for spec in layout.columns
        }
        return PacketArrays(**kwargs)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def arrays(self) -> PacketArrays:
        """The shared-memory-backed :class:`PacketArrays` view.

        Raises :class:`RuntimeError` after :meth:`close` — the views would
        reference unmapped pages.
        """
        if self._arrays is None:
            raise RuntimeError("shared packet arrays are closed")
        return self._arrays

    @property
    def closed(self) -> bool:
        """Whether this process's mapping has been released."""
        return self._shm is None

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release this process's mapping (idempotent, never raises).

        Drops the column views first — NumPy holds exported pointers into
        the mapping, and ``SharedMemory.close`` refuses to unmap while any
        exist.  If some *other* object still holds a view (e.g. an engine
        that buffered a chunk), the unmap is skipped silently; the pages are
        reclaimed when that reference dies or the process exits.
        """
        self._arrays = None
        if self._shm is None:
            return
        try:
            self._shm.close()
        except BufferError:  # a foreign view still pins the mapping
            return
        self._shm = None

    def unlink(self) -> None:
        """Remove the segment's backing file (owner only; idempotent).

        Safe to call while workers are still attached: POSIX keeps the pages
        alive until the last mapping closes, but the name disappears from
        ``/dev/shm`` immediately, so a crashed session never leaks a visible
        segment.
        """
        if not self.owner or self._unlinked:
            return
        self._unlinked = True
        try:
            if self._shm is not None:
                self._shm.unlink()
            else:  # mapping already closed: reattach just to remove the name
                handle = shared_memory.SharedMemory(name=self.layout.segment)
                handle.unlink()
                handle.close()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedPacketArrays":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.owner:
            self.unlink()
        self.close()


__all__ = [
    "ColumnSpec",
    "SEGMENT_PREFIX",
    "SharedArraysLayout",
    "SharedMemoryCapacityError",
    "SharedPacketArrays",
    "create_segment",
]
