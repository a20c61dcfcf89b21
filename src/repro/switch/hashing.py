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
    once per flow instead of once per packet.  Batch callers hash columns
    (:func:`flow_slots`) and never come here.
    """
    return crc32(five_tuple.as_bytes())


def register_index(five_tuple: FiveTuple, table_size: int) -> int:
    """Register-array index for a flow: CRC-32 digest modulo the array size."""
    if table_size < 1:
        raise ValueError("table_size must be >= 1")
    return hash_five_tuple(five_tuple) % table_size


def _crc_table() -> np.ndarray:
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        table = np.where(table & 1, (table >> 1) ^ np.uint32(0xEDB88320), table >> 1)
    return table


#: CRC of every byte value: one gather per input byte advances a whole column.
_CRC_TABLE = _crc_table()

#: Byte width of each 5-tuple field in ``FiveTuple.as_bytes`` order.
_FIELD_BYTES = (("src_ip", 4), ("dst_ip", 4), ("src_port", 2), ("dst_port", 2), ("protocol", 1))


def crc32_columns(src_ips, dst_ips, src_ports, dst_ports, protocols) -> np.ndarray:
    """CRC-32 of every flow's 13-byte 5-tuple encoding, from its five columns.

    Element ``i`` equals ``crc32(FiveTuple(...).as_bytes())`` of row ``i``:
    the reflected table-driven algorithm, run as 13 gathers from the
    256-entry table over all flows at once.  Raises :class:`ValueError` for
    a value outside its field's width: ``as_bytes`` raises on one, and taking
    its low bytes here would silently hash a different flow.
    """
    columns = []
    for (name, width), column in zip(
        _FIELD_BYTES, (src_ips, dst_ips, src_ports, dst_ports, protocols)
    ):
        column = np.asarray(column)
        if column.size and (column.min() < 0 or column.max() >= 1 << 8 * width):
            raise ValueError(f"{name} column has values outside [0, 2**{8 * width})")
        columns.append(column.astype(np.uint32))
    if len({column.shape for column in columns}) != 1 or columns[0].ndim != 1:
        raise ValueError("identity columns must be one-dimensional and index-aligned")
    crc = np.full(columns[0].shape, 0xFFFFFFFF, dtype=np.uint32)
    for (_, width), column in zip(_FIELD_BYTES, columns):
        for shift in range(8 * (width - 1), -1, -8):
            crc = _CRC_TABLE[(crc ^ (column >> shift)) & 0xFF] ^ (crc >> 8)
    return crc ^ np.uint32(0xFFFFFFFF)


def _identity_columns(flows) -> tuple:
    """The five 5-tuple columns of ``flows``, without building objects to read them."""
    columns = getattr(flows, "identity_columns", None)
    if columns is not None:  # PacketArrays, LazyFlowList
        return columns()
    tuples = [flow.five_tuple for flow in flows]
    try:
        return tuple(
            np.array([getattr(five_tuple, name) for five_tuple in tuples], dtype=np.int64)
            for name, _ in _FIELD_BYTES
        )
    except OverflowError as error:
        raise ValueError(f"five-tuple field outside its width: {error}") from error


def flow_slots(flows, table_size: int, *, return_tuple_ids: bool = False):
    """Register slot of every flow in ``flows`` (batch :func:`register_index`).

    ``flows`` is a :class:`~repro.datasets.flows.PacketArrays`, a
    :class:`~repro.datasets.flows.LazyFlowList` (both hand over their
    identity columns as they are) or any sequence of flow objects (whose
    five-tuple fields are read into columns); the CRC runs over columns
    either way (:func:`crc32_columns`).  Shared by the vectorized replay engine and the
    serving layer, which also hands the array from a sharded parent down to
    its shard engines so the hashing runs once per session.

    With ``return_tuple_ids`` the result is ``(slots, tuple_ids)``:
    ``tuple_ids`` is a dense integer id per distinct five-tuple (equal ids
    iff equal tuples, numbered in lexicographic tuple order), by which the
    slot-stream plane compares residents.
    """
    if table_size < 1:
        raise ValueError("table_size must be >= 1")
    columns = _identity_columns(flows)
    slots = (crc32_columns(*columns).astype(np.int64) % table_size).astype(np.intp, copy=False)
    if not return_tuple_ids:
        return slots
    # The five-tuple packed into two words (the 13 bytes ``as_bytes`` hashes;
    # ``crc32_columns`` has checked that every field fits its width).
    src_ips, dst_ips, src_ports, dst_ports, protocols = (
        np.asarray(column).astype(np.uint64) for column in columns
    )
    addresses = (src_ips << np.uint64(32)) | dst_ips
    ports = (src_ports << np.uint64(24)) | (dst_ports << np.uint64(8)) | protocols
    order = np.lexsort((ports, addresses))
    addresses, ports = addresses[order], ports[order]
    distinct = np.ones(slots.size, dtype=bool)
    distinct[1:] = (addresses[1:] != addresses[:-1]) | (ports[1:] != ports[:-1])
    tuple_ids = np.empty(slots.size, dtype=np.int64)
    tuple_ids[order] = np.cumsum(distinct) - 1
    return slots, tuple_ids


class FlowIndexer:
    """Maps flows to the slots of a ``table_size``-entry register file.

    Two flows that hash to one slot share it, as they would on real
    hardware; who owns a slot is the program's state, not the indexer's.
    """

    def __init__(self, table_size: int) -> None:
        if table_size < 1:
            raise ValueError("table_size must be >= 1")
        self.table_size = table_size

    def index_for(self, five_tuple: FiveTuple) -> int:
        """Slot index for a flow (:func:`register_index` at this table size)."""
        return register_index(five_tuple, self.table_size)
