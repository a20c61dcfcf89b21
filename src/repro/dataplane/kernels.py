"""Compiled kernels for the fused window plane (optional Numba backend).

The vectorized replay engine is NumPy end to end except for one inner sweep
that resists ufunc form: the *sequential* inter-arrival-time accumulation,
which must reproduce the scalar operators' left-to-right addition order bit
for bit (pairwise ``reduceat`` sums round differently).  This module provides
that sweep twice:

* a **NumPy fallback** — rows bucketed by length into a few dense blocks,
  each summed with one sequential ``np.add.accumulate`` along its rows, and
* a **Numba kernel** — a literal per-segment ``for`` loop, compiled when
  Numba is importable.

Both produce bit-identical results: each accumulates ``diffs[s+1:e]`` left to
right in float64.  Backend selection happens once at import:

* Numba importable and JIT enabled → ``backend() == "numba"``;
* otherwise (Numba absent, or ``NUMBA_DISABLE_JIT=1`` /
  ``REPRO_DISABLE_NUMBA=1`` set) → ``backend() == "numpy"``.

The repository never *requires* Numba — the container image may not ship it —
so the fallback is a first-class, CI-covered path, not an afterthought.
"""

from __future__ import annotations

import os

import numpy as np


def _jit_disabled() -> bool:
    """Whether the environment asks for the pure-NumPy path."""
    for variable in ("NUMBA_DISABLE_JIT", "REPRO_DISABLE_NUMBA"):
        value = os.environ.get(variable, "").strip()
        if value and value != "0":
            return True
    return False


HAVE_NUMBA = False
if not _jit_disabled():
    try:  # pragma: no cover - exercised only where numba is installed
        import numba

        HAVE_NUMBA = True
    except ImportError:
        HAVE_NUMBA = False


def backend() -> str:
    """Name of the active kernel backend (``"numba"`` or ``"numpy"``)."""
    return "numba" if HAVE_NUMBA else "numpy"


def _iat_sums_numpy(
    diffs: np.ndarray,
    s: np.ndarray,
    e: np.ndarray,
    acc: np.ndarray,
    acc_sq: np.ndarray,
) -> None:
    """Left-to-right IAT sums per segment — length-bucketed dense accumulation.

    Rows are visited longest first in blocks whose shortest row is more than
    half the block's longest; each block is one dense gather and one
    ``np.add.accumulate`` along the rows (strictly sequential, exactly the
    scalar MeanOperator's order), read at each row's own last gap.  That is
    at most ``log2(longest) + 1`` blocks, each less than half padding,
    however skewed the row lengths are.
    """
    counts = e - s - 1
    acc[:] = 0.0
    acc_sq[:] = 0.0
    order = np.argsort(-counts, kind="stable")
    descending = -counts[order]
    n_rows = int(np.searchsorted(descending, 0, side="left"))  # rows with a gap
    start = 0
    while start < n_rows:
        longest = -int(descending[start])
        stop = int(np.searchsorted(descending[:n_rows], -(longest // 2), side="left"))
        rows = order[start:stop]
        # Positions past a row's end (clipped at the column's end) are summed
        # too, but never read.
        gaps = np.take(diffs, (s[rows] + 1)[:, None] + np.arange(longest), mode="clip")
        squares = gaps * gaps
        last = (np.arange(rows.size), counts[rows] - 1)
        # ``+ 0.0``: the operators start from +0.0, so a sum of -0.0 gaps reads +0.0.
        acc[rows] = np.add.accumulate(gaps, axis=1, out=gaps)[last] + 0.0
        acc_sq[rows] = np.add.accumulate(squares, axis=1, out=squares)[last] + 0.0
        start = stop


if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed

    @numba.njit(cache=True)
    def _iat_sums_numba(diffs, s, e, acc, acc_sq):  # pragma: no cover
        for i in range(s.size):
            total = 0.0
            total_sq = 0.0
            for position in range(s[i] + 1, e[i]):
                gap = diffs[position]
                total += gap
                total_sq += gap * gap
            acc[i] = total
            acc_sq[i] = total_sq

    _iat_sums = _iat_sums_numba
else:
    _iat_sums = _iat_sums_numpy


def iat_sequential_sums(
    diffs: np.ndarray,
    s: np.ndarray,
    e: np.ndarray,
    acc: np.ndarray | None = None,
    acc_sq: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment left-to-right sum and sum of squares of ``diffs[s+1:e]``.

    ``acc`` / ``acc_sq`` are optional preallocated outputs (at least ``s.size``
    entries); the workspace passes its reusable buffers here so the sweep
    allocates nothing in steady state.

    Example::

        >>> acc, acc_sq = iat_sequential_sums(diffs, starts, ends)
        >>> mean_iat = acc / np.maximum(ends - starts - 1, 1)
    """
    if acc is None:
        acc = np.empty(s.size, dtype=np.float64)
    if acc_sq is None:
        acc_sq = np.empty(s.size, dtype=np.float64)
    view_acc = acc[: s.size]
    view_sq = acc_sq[: s.size]
    _iat_sums(diffs, s, e, view_acc, view_sq)
    return view_acc, view_sq
