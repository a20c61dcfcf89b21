"""Single-producer/single-consumer shared-memory rings for sharded-mp serving.

Shipping chunks to the workers of
:class:`~repro.serve.process_sharded.ProcessShardedEngine` over a
``multiprocessing.Queue`` pays for every chunk twice: the positions array is
pickled onto a feeder thread in the parent and unpickled in the worker, with
a pipe write/read (plus two thread hops) in between.  At benchmark chunk
sizes that orchestration dwarfs the actual window machinery — the first
sharded-mp implementation did exactly that and served 23K pkt/s against
1.7M for batch replay.

This module carries chunks over one **SPSC ring buffer per worker**
instead, layered on the same shared-memory lifetime discipline as
:mod:`repro.datasets.shm`:

* the ring is a fixed number of *slots*; each slot owns a fixed-size span of
  a shared ``int64`` position arena, so a message is published by copying
  positions into the slot's span and writing one descriptor
  ``(kind, count, seq)`` — nothing is ever pickled per chunk;
* the producer (parent) and consumer (worker) synchronise through two
  monotone cursors in the segment header.  Cursors are aligned 8-byte stores,
  written only after the slot payload, and read-checked on the other side —
  the classic SPSC publication protocol (CPython's memory-model guarantees
  plus x86/ARM64 total-store ordering of aligned word writes make the
  descriptor visible before the cursor bump);
* waiting is **busy-wait-then-backoff**: a short spin phase for the common
  case where the peer is actively producing/consuming, then escalating
  sleeps (futex-style parking without a futex), with a caller-supplied
  ``poll`` callback invoked periodically so crash detection is folded into
  the wait loop itself — the parent polls worker liveness while blocked on a
  full ring, the worker polls for parent death (re-parenting) while blocked
  on an empty one;
* per-ring counters (occupancy, producer/consumer stall episodes) live in
  the header so the serving engine can surface transport health through
  :meth:`~repro.serve.engine.InferenceEngine.stats`.

Messages bigger than one span (a chunk whose per-shard positions exceed
``span``) are simply split across consecutive slots by the caller; the
engines' parity contract holds for any chunking, so the split is
semantically invisible.

Lifetime follows :mod:`repro.datasets.shm`: the creating process owns the
segment and is the only one that may :meth:`~SpscRing.unlink` it; attachers
only :meth:`~SpscRing.close`.  Segments are named ``splidt-ring-<pid>-<nonce>``
so leaked rings are as greppable in ``/dev/shm`` as leaked packet segments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.datasets.shm import create_segment

#: Prefix of every ring segment (``/dev/shm`` residue must be greppable).
RING_PREFIX = "splidt-ring"

#: Message kinds carried by a ring slot.
KIND_CHUNK = 1      #: positions span: ingest as one PacketChunk
KIND_DRAIN = 2      #: end of stream: drain the child engine, reply "drained"
KIND_SNAPSHOT = 3   #: observation request: reply "snapshot"
KIND_STOP = 4       #: tear the worker down

#: Header word indices (all int64).
_HEAD = 0           #: consumer cursor: slots popped so far (monotone)
_TAIL = 1           #: producer cursor: slots pushed so far (monotone)
_PROD_STALLS = 2    #: producer stall episodes (blocked on a full ring)
_CONS_STALLS = 3    #: consumer stall episodes (blocked on an empty ring)
_HEADER_WORDS = 8

#: Spin iterations before the wait loop starts sleeping.
_SPIN_LIMIT = 64
#: First / maximum parked-sleep duration (seconds).
_SLEEP_MIN = 10e-6
_SLEEP_MAX = 2e-3
#: Invoke the poll callback every this many waits once parked.
_POLL_EVERY = 64


class _Backoff:
    """Busy-wait-then-park wait strategy shared by push and pop.

    ``wait()`` returns ``False`` once ``timeout`` (seconds, ``None`` = wait
    forever) has elapsed; it calls ``poll`` every :data:`_POLL_EVERY` parked
    iterations so liveness checks run even during long stalls without being
    paid on the fast path.
    """

    def __init__(self, timeout: float | None, poll=None) -> None:
        self._deadline = None if timeout is None else time.monotonic() + timeout
        self._poll = poll
        self._spins = 0
        self._sleep = _SLEEP_MIN
        self._parked = 0

    def wait(self) -> bool:
        if self._deadline is not None and time.monotonic() >= self._deadline:
            return False
        if self._spins < _SPIN_LIMIT:
            self._spins += 1
            return True
        self._parked += 1
        if self._poll is not None and self._parked % _POLL_EVERY == 0:
            self._poll()
        time.sleep(self._sleep)
        self._sleep = min(self._sleep * 2, _SLEEP_MAX)
        return True


@dataclass(frozen=True)
class RingLayout:
    """Picklable description of one ring segment (ships through the task queue)."""

    segment: str
    slots: int
    span: int


class RingFullError(RuntimeError):
    """Raised by :meth:`SpscRing.push` when a bounded wait expires."""


class SpscRing:
    """One single-producer/single-consumer shared-memory message ring.

    Exactly one process may push and exactly one may pop; the serving engine
    enforces this by creating one ring per worker.  See the module docstring
    for the slot layout and memory-ordering argument.

    Example::

        >>> ring = SpscRing.create(slots=4, span=16)
        >>> ring.push(KIND_CHUNK, np.arange(5, dtype=np.int64))
        >>> view = SpscRing.attach(ring.layout)     # in the worker process
        >>> kind, positions, seq = view.pop()
        >>> int(positions.sum())
        10
        >>> view.close(); ring.unlink(); ring.close()
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        layout: RingLayout,
        *,
        owner: bool,
    ) -> None:
        self._shm: shared_memory.SharedMemory | None = shm
        self.layout = layout
        self.owner = owner
        self._unlinked = False
        self._pushed = 0
        header_bytes = _HEADER_WORDS * 8
        desc_bytes = layout.slots * 3 * 8
        self._header = np.ndarray((_HEADER_WORDS,), dtype=np.int64, buffer=shm.buf)
        self._descs = np.ndarray(
            (layout.slots, 3), dtype=np.int64, buffer=shm.buf, offset=header_bytes
        )
        self._arena = np.ndarray(
            (layout.slots * layout.span,),
            dtype=np.int64,
            buffer=shm.buf,
            offset=header_bytes + desc_bytes,
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, *, slots: int, span: int) -> "SpscRing":
        """Allocate a fresh zeroed ring (caller becomes the owner)."""
        if slots < 1:
            raise ValueError(f"ring slots must be >= 1, got {slots}")
        if span < 1:
            raise ValueError(f"ring span must be >= 1, got {span}")
        size = (_HEADER_WORDS + slots * 3 + slots * span) * 8
        shm = create_segment(size, prefix=RING_PREFIX)
        layout = RingLayout(segment=shm.name, slots=slots, span=span)
        ring = cls(shm, layout, owner=True)
        ring._header[:] = 0
        return ring

    @classmethod
    def attach(cls, layout: RingLayout) -> "SpscRing":
        """Map an existing ring segment (consumer side; never unlinks)."""
        shm = shared_memory.SharedMemory(name=layout.segment)
        return cls(shm, layout, owner=False)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    @property
    def slots(self) -> int:
        return self.layout.slots

    @property
    def span(self) -> int:
        """Maximum positions one slot can carry (larger payloads are split)."""
        return self.layout.span

    def push(
        self,
        kind: int,
        positions: np.ndarray | None = None,
        *,
        timeout: float | None = None,
        poll=None,
    ) -> None:
        """Publish one message, blocking (with backoff) while the ring is full.

        ``poll`` runs periodically during the wait — raise from it to abort
        (the engine's liveness check raises :class:`ServeError` on a dead
        worker).  A bounded ``timeout`` raises :class:`RingFullError` on
        expiry, which the teardown path treats as "worker already gone".
        """
        n = 0 if positions is None else int(len(positions))
        if n > self.layout.span:
            raise ValueError(
                f"payload of {n} positions exceeds the ring span "
                f"({self.layout.span}); split it across slots"
            )
        backoff = _Backoff(timeout, poll)
        stalled = False
        while int(self._header[_TAIL]) - int(self._header[_HEAD]) >= self.layout.slots:
            if not stalled:
                stalled = True
                self._header[_PROD_STALLS] += 1
            if not backoff.wait():
                raise RingFullError(
                    f"ring full for {timeout:.2f}s ({self.layout.slots} slots)"
                )
        tail = int(self._header[_TAIL])
        index = tail % self.layout.slots
        if n:
            start = index * self.layout.span
            self._arena[start:start + n] = positions
        self._descs[index, 0] = kind
        self._descs[index, 1] = n
        self._descs[index, 2] = self._pushed
        self._pushed += 1
        # Publication point: the cursor store makes the slot visible.
        self._header[_TAIL] = tail + 1

    def pop(
        self,
        *,
        timeout: float | None = None,
        poll=None,
    ) -> tuple[int, np.ndarray, int] | None:
        """Consume one message ``(kind, positions, seq)``; ``None`` on timeout.

        The positions are copied out of the slot before the head cursor
        advances, so the producer can immediately reuse the span.
        """
        backoff = _Backoff(timeout, poll)
        stalled = False
        while int(self._header[_HEAD]) >= int(self._header[_TAIL]):
            if not stalled:
                stalled = True
                self._header[_CONS_STALLS] += 1
            if not backoff.wait():
                return None
        head = int(self._header[_HEAD])
        index = head % self.layout.slots
        kind = int(self._descs[index, 0])
        n = int(self._descs[index, 1])
        seq = int(self._descs[index, 2])
        start = index * self.layout.span
        positions = self._arena[start:start + n].astype(np.intp)
        # Release point: the producer may overwrite the slot after this store.
        self._header[_HEAD] = head + 1
        return kind, positions, seq

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Messages currently buffered (pushed, not yet popped)."""
        return int(self._header[_TAIL]) - int(self._header[_HEAD])

    def producer_stalls(self) -> int:
        """Push calls that had to wait on a full ring."""
        return int(self._header[_PROD_STALLS])

    def consumer_stalls(self) -> int:
        """Pop calls that had to wait on an empty ring."""
        return int(self._header[_CONS_STALLS])

    # ------------------------------------------------------------------
    # Lifetime (same discipline as SharedPacketArrays)
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._shm is None

    def close(self) -> None:
        """Release this process's mapping (idempotent, never raises)."""
        self._header = self._descs = self._arena = None
        if self._shm is None:
            return
        try:
            self._shm.close()
        except BufferError:  # a foreign view still pins the mapping
            return
        self._shm = None

    def unlink(self) -> None:
        """Remove the backing file (owner only; idempotent)."""
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

    def __enter__(self) -> "SpscRing":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.owner:
            self.unlink()
        self.close()


__all__ = [
    "KIND_CHUNK",
    "KIND_DRAIN",
    "KIND_SNAPSHOT",
    "KIND_STOP",
    "RING_PREFIX",
    "RingFullError",
    "RingLayout",
    "SpscRing",
]
