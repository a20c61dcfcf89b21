"""The one window-plane sweep that resists ufunc form: sequential IAT sums.

The vectorized replay engine is NumPy end to end; the inter-arrival-time
accumulation must reproduce the scalar operators' left-to-right addition
order bit for bit (pairwise ``reduceat`` sums round differently), so rows are
bucketed by length into a few dense blocks, each summed with one sequential
``np.add.accumulate`` along its rows.  ``tests/test_window_kernels.py`` holds
the sweep to a literal per-segment loop.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel backend, recorded with benchmark results."""
    return "numpy"


#: Cells of a block small enough to sum densely whatever its padding.
_DENSE_CELLS = 1 << 14


def _iat_sums(
    diffs: np.ndarray,
    s: np.ndarray,
    e: np.ndarray,
    acc: np.ndarray,
    acc_sq: np.ndarray,
) -> None:
    """Left-to-right IAT sums per segment — length-bucketed dense accumulation.

    Rows are visited longest first in blocks whose shortest row is more than
    half the block's longest — or, past that, as many rows as fit in
    :data:`_DENSE_CELLS` cells, which cost less than another block; each
    block is one dense gather and one ``np.add.accumulate`` along the rows
    (strictly sequential, exactly the scalar MeanOperator's order), read at
    each row's own last gap.  That is at most ``log2(longest) + 1`` blocks,
    each less than half padding or small, however skewed the row lengths
    are.
    """
    counts = e - s - 1
    acc[:] = 0.0
    acc_sq[:] = 0.0
    order = (-counts).argsort(kind="stable")
    descending = -counts[order]
    n_rows = int(descending.searchsorted(0))  # rows with a gap
    start = 0
    while start < n_rows:
        longest = -int(descending[start])
        stop = max(
            int(descending[:n_rows].searchsorted(-(longest // 2))),
            min(start + _DENSE_CELLS // longest, n_rows),
        )
        rows = order[start:stop]
        # Positions past a row's end (clipped at the column's end) are summed
        # too, but never read.
        gaps = diffs.take((s[rows] + 1)[:, None] + np.arange(longest), mode="clip")
        squares = gaps * gaps
        last = (np.arange(rows.size), counts[rows] - 1)
        # ``+ 0.0``: the operators start from +0.0, so a sum of -0.0 gaps reads +0.0.
        acc[rows] = np.add.accumulate(gaps, axis=1, out=gaps)[last] + 0.0
        acc_sq[rows] = np.add.accumulate(squares, axis=1, out=squares)[last] + 0.0
        start = stop


def iat_sequential_sums(
    diffs: np.ndarray, s: np.ndarray, e: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment left-to-right sum and sum of squares of ``diffs[s+1:e]``.

    Example::

        >>> acc, acc_sq = iat_sequential_sums(diffs, starts, ends)
        >>> mean_iat = acc / np.maximum(ends - starts - 1, 1)
    """
    acc = np.empty(s.size, dtype=np.float64)
    acc_sq = np.empty(s.size, dtype=np.float64)
    _iat_sums(diffs, s, e, acc, acc_sq)
    return acc, acc_sq
