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


def _dense_sums(
    diffs: np.ndarray, starts: np.ndarray, counts: np.ndarray, longest: int, squares: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Left-to-right sums of the ``counts[i]`` gaps after ``starts[i]``, as one dense block.

    Column 0 of the block is the operators' starting total, +0.0, so a row
    reads its sums at column ``counts[i]`` — 0.0 for a one-packet window, and
    never a -0.0 total — and the additions run in exactly the scalar
    MeanOperator's order (``np.add.accumulate`` along the rows is strictly
    sequential).  Positions past a row's end (clipped at the column's end)
    are summed too, but never read.  The sums of squares are ``None``
    unless ``squares``.
    """
    gaps = diffs.take(starts[:, None] + np.arange(longest + 1), mode="clip")
    gaps[:, 0] = 0.0
    last = (np.arange(starts.size), counts)
    sums_sq = None
    if squares:
        block = gaps * gaps
        sums_sq = np.add.accumulate(block, axis=1, out=block)[last]
    return np.add.accumulate(gaps, axis=1, out=gaps)[last], sums_sq


def _iat_sums(
    diffs: np.ndarray,
    s: np.ndarray,
    e: np.ndarray,
    acc: np.ndarray,
    acc_sq: np.ndarray | None,
) -> None:
    """Left-to-right IAT sums per segment — length-bucketed dense accumulation.

    Rows that fit :data:`_DENSE_CELLS` cells together (a small round's,
    most often) are one block as they come.  Otherwise rows are visited
    longest first in blocks whose shortest row is more than half the block's
    longest — or, past that, as many rows as fit in :data:`_DENSE_CELLS`
    cells, which cost less than another block; each block is one dense
    gather and one ``np.add.accumulate`` along the rows
    (:func:`_dense_sums`).  That is at most ``log2(longest) + 1`` blocks,
    each less than half padding or small, however skewed the row lengths
    are.  ``acc_sq`` is ``None`` when no sum of squares is wanted.
    """
    squares = acc_sq is not None
    counts = e - s - 1
    longest = int(counts.max()) if counts.size else 0
    if counts.size * longest <= _DENSE_CELLS:
        acc[:], sums_sq = _dense_sums(diffs, s, counts, longest, squares)
        if squares:
            acc_sq[:] = sums_sq
        return
    acc[:] = 0.0
    if squares:
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
        acc[rows], sums_sq = _dense_sums(diffs, s[rows], counts[rows], longest, squares)
        if squares:
            acc_sq[rows] = sums_sq
        start = stop


def iat_sequential_sums(
    diffs: np.ndarray, s: np.ndarray, e: np.ndarray, *, squares: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-segment left-to-right sum and sum of squares of ``diffs[s+1:e]``.

    The sums of squares are ``None`` unless ``squares``: only the IAT
    deviation reads them, and they are half the sweep.

    Example::

        >>> acc, acc_sq = iat_sequential_sums(diffs, starts, ends)
        >>> mean_iat = acc / np.maximum(ends - starts - 1, 1)
    """
    acc = np.empty(s.size, dtype=np.float64)
    acc_sq = np.empty(s.size, dtype=np.float64) if squares else None
    _iat_sums(diffs, s, e, acc, acc_sq)
    return acc, acc_sq
