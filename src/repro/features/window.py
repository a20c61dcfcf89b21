"""Window segmentation of flows.

SpliDT processes each flow in uniform windows of packets — one window per DT
partition.  The helpers here compute the window boundaries the data plane
uses (packet-count boundaries derived from the flow size carried in packet
headers, per the paper's use of Homa/NDP-style flow-size fields).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def window_boundaries(n_packets: int, n_windows: int) -> list[int]:
    """Packet-count boundaries of ``n_windows`` uniform windows.

    Returns a list of length ``n_windows`` whose entry ``i`` is the index of
    the first packet *after* window ``i`` (i.e. exclusive end).  The last
    boundary always equals ``n_packets``.  Windows are as uniform as possible;
    when ``n_packets < n_windows`` the early windows get one packet each and
    the remaining windows are empty.
    """
    if n_windows < 1:
        raise ValueError("n_windows must be >= 1")
    if n_packets < 0:
        raise ValueError("n_packets must be >= 0")
    base = n_packets // n_windows
    remainder = n_packets % n_windows
    boundaries = []
    cursor = 0
    for i in range(n_windows):
        size = base + (1 if i < remainder else 0)
        cursor += size
        boundaries.append(cursor)
    return boundaries


def window_bounds(counts: np.ndarray, n_windows: int) -> np.ndarray:
    """Array form of :func:`window_boundaries`, one row per packet count.

    Returns an ``(len(counts), n_windows)`` integer matrix whose row ``i``
    equals ``window_boundaries(counts[i], n_windows)``: window ``w`` of a flow
    of ``n`` packets ends (exclusively) at ``(w + 1) * (n // P) + min(w + 1,
    n % P)``.
    """
    if n_windows < 1:
        raise ValueError("n_windows must be >= 1")
    counts = np.asarray(counts, dtype=np.intp)
    if counts.size and counts.min() < 0:
        raise ValueError("n_packets must be >= 0")
    return window_end(np.arange(n_windows, dtype=np.intp), counts[:, None], n_windows)


def window_end(window, n_packets, n_windows: int):
    """Elementwise :func:`window_boundaries`: where window ``window`` of ``n_packets`` ends.

    ``(w + 1) * (n // P) + min(w + 1, n % P)``, broadcast over array
    arguments — no table sized by the largest ``n``.
    """
    base, remainder = np.divmod(n_packets, n_windows)
    return (window + 1) * base + np.minimum(window + 1, remainder)


@lru_cache(maxsize=65536)
def cached_window_boundaries(n_packets: int, n_windows: int) -> tuple[int, ...]:
    """Memoised :func:`window_boundaries`, as an immutable tuple.

    The per-packet reference interpreter derives the boundary of the current
    window on *every* packet from the flow-size header field; the distinct
    ``(flow_size, n_partitions)`` pairs of a replay number a few hundred, so
    the division loop runs once per pair instead of once per packet.
    """
    return tuple(window_boundaries(n_packets, n_windows))

