"""CRC32 flow hashing.

SpliDT indexes every per-flow register array with a CRC32 hash of the packet's
5-tuple.  The implementation below is the standard reflected CRC-32
(polynomial 0xEDB88320, the same algorithm Tofino's hash engine provides), with
a helper that reduces the digest to a register index and reports collisions.
"""

from __future__ import annotations

import binascii
from functools import lru_cache

import numpy as np

from repro.datasets.flows import FiveTuple


def crc32(data: bytes) -> int:
    """CRC-32 (IEEE, reflected) of ``data`` as an unsigned 32-bit integer."""
    return binascii.crc32(data) & 0xFFFFFFFF


def crc32_reference(data: bytes) -> int:
    """Bit-by-bit CRC-32 used to cross-check the table-driven implementation."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ 0xEDB88320
            else:
                crc >>= 1
    return crc ^ 0xFFFFFFFF


@lru_cache(maxsize=65536)
def hash_five_tuple(five_tuple: FiveTuple) -> int:
    """CRC-32 digest of a flow's 5-tuple.

    Memoised on the (frozen, hashable) tuple: the per-packet reference path
    re-hashes the same flow on every packet, so the byte encoding and CRC run
    once per flow instead of once per packet.  The size covers every normal
    dataset while keeping the cache's retained tuples (~500 B each with the
    lru bookkeeping) off the RSS bill of million-flow scenario floods, which
    churn straight through any bounded cache anyway.
    """
    return crc32(five_tuple.as_bytes())


def register_index(five_tuple: FiveTuple, table_size: int) -> int:
    """Register-array index for a flow: CRC-32 digest modulo the array size."""
    if table_size < 1:
        raise ValueError("table_size must be >= 1")
    return hash_five_tuple(five_tuple) % table_size


def flow_slots(flows, table_size: int, *, return_tuple_ids: bool = False):
    """Register slot of every flow in ``flows`` (batch :func:`register_index`).

    Shared by the vectorized replay engine and the serving layer, which also
    hands the array from a sharded parent down to its shard engines so the
    per-flow CRC32 hashing runs once per session.

    With ``return_tuple_ids`` the same pass also yields a dense integer id
    per distinct five-tuple (equal ids iff equal tuples) and the result is
    ``(slots, tuple_ids)``: the slot-stream plane compares residents by id,
    and for lazily materialised flow lists a second pass over the flows
    would cost as much as the hashing itself.
    """
    if not return_tuple_ids:
        return np.array(
            [register_index(flow.five_tuple, table_size) for flow in flows], dtype=np.intp
        )
    n_flows = len(flows)
    slots = np.empty(n_flows, dtype=np.intp)
    # The five-tuple packed into two words (the 13 bytes ``as_bytes`` hashes),
    # filled in place: a dict keyed by tuple objects would keep a million
    # ephemeral tuples alive on streamed sources.
    addresses = np.empty(n_flows, dtype=np.uint64)
    ports = np.empty(n_flows, dtype=np.uint64)
    for index, flow in enumerate(flows):
        five_tuple = flow.five_tuple
        slots[index] = register_index(five_tuple, table_size)
        addresses[index] = (five_tuple.src_ip << 32) | five_tuple.dst_ip
        ports[index] = (
            (five_tuple.src_port << 24) | (five_tuple.dst_port << 8) | five_tuple.protocol
        )
    order = np.lexsort((ports, addresses))
    distinct = np.ones(n_flows, dtype=bool)
    distinct[1:] = (addresses[order][1:] != addresses[order][:-1]) | (
        ports[order][1:] != ports[order][:-1]
    )
    tuple_ids = np.empty(n_flows, dtype=np.int64)
    tuple_ids[order] = np.cumsum(distinct) - 1
    return slots, tuple_ids


class FlowIndexer:
    """Maps flows to register slots and tracks hash collisions.

    The data-plane simulator uses this to detect when two concurrent flows
    land in the same register slot (which corrupts each other's features, as
    it would on real hardware).
    """

    def __init__(self, table_size: int) -> None:
        if table_size < 1:
            raise ValueError("table_size must be >= 1")
        self.table_size = table_size
        self._owners: dict[int, FiveTuple] = {}
        self.collisions = 0
        self.lookups = 0

    def index_for(self, five_tuple: FiveTuple) -> int:
        """Slot index for a flow, recording collisions with other live flows."""
        self.lookups += 1
        slot = register_index(five_tuple, self.table_size)
        owner = self._owners.get(slot)
        if owner is None:
            self._owners[slot] = five_tuple
        elif owner != five_tuple:
            self.collisions += 1
        return slot

    def release(self, five_tuple: FiveTuple) -> None:
        """Mark a flow's slot as free (flow completed / evicted)."""
        slot = register_index(five_tuple, self.table_size)
        if self._owners.get(slot) == five_tuple:
            del self._owners[slot]

    @property
    def occupancy(self) -> float:
        """Fraction of register slots currently owned by a live flow."""
        return len(self._owners) / self.table_size
