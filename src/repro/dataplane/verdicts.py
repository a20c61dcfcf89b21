"""Decided rows of a data-plane program, kept as columns.

Every decision a program records — a block of rows from the batched planes,
or one row from the per-packet oracle — is one row of its
:class:`VerdictStore`: flow id, label, ``decided_at``, ``first_packet_at``,
recirculations, ``early_exit`` and the deciding subtree's ``sid``.  Readers
get a :class:`Verdicts` snapshot, a read-only ``Mapping[int, FlowVerdict]``
that also exposes those columns; a :class:`FlowVerdict` object is built only
when a verdict is read by key or item.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np


@dataclass(slots=True)
class FlowVerdict:
    """Final classification of one flow as observed by the data plane.

    Built on demand, by a :class:`Verdicts` read, for the reader that asks
    for it: a program keeps its decided rows as columns.  ``slots=True``
    keeps a reader that builds many of them (``dict(verdicts.items())`` over
    a flood) to a few dozen bytes per verdict.
    """

    flow_id: int
    label: int
    decided_at: float
    first_packet_at: float
    n_recirculations: int
    early_exit: bool

    @property
    def time_to_detection(self) -> float:
        """Seconds from the start of tree traversal to the final decision."""
        return max(self.decided_at - self.first_packet_at, 0.0)


class ColumnBlocks:
    """Append-only rows, kept as the column blocks they arrive in.

    A block's arrays are kept as given: the caller hands them over and does
    not write them again.  Single rows wait as tuples and join the blocks as
    one block when the rows are next read, so a per-row writer pays a tuple
    per row, not an array per column.
    """

    def __init__(self, dtypes) -> None:
        self._dtypes = tuple(dtypes)
        self._blocks: list[tuple[np.ndarray, ...]] = []
        self._pending: list[tuple] = []
        self._n_rows = 0

    def __len__(self) -> int:
        """Rows recorded so far."""
        return self._n_rows

    def append(self, *columns) -> None:
        """Record a block of rows, given as aligned columns."""
        self._join_pending()
        block = tuple(
            np.asarray(column, dtype=dtype) for column, dtype in zip(columns, self._dtypes)
        )
        self._blocks.append(block)
        self._n_rows += block[0].size

    def append_row(self, *row) -> None:
        """Record one row."""
        self._pending.append(row)
        self._n_rows += 1

    def columns(self, start: int = 0) -> tuple[np.ndarray, ...]:
        """Rows ``start`` onwards in the order recorded, one array per column.

        The arrays may be the stored blocks themselves: read them, do not
        write them.
        """
        self._join_pending()
        parts, offset = [], 0
        for block in self._blocks:
            size = block[0].size
            if offset + size > start:
                skip = max(start - offset, 0)
                parts.append(tuple(column[skip:] for column in block) if skip else block)
            offset += size
        if not parts:
            return tuple(np.empty(0, dtype=dtype) for dtype in self._dtypes)
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate(column) for column in zip(*parts))

    def _join_pending(self) -> None:
        if self._pending:
            self._blocks.append(tuple(
                np.array(column, dtype=dtype)
                for column, dtype in zip(zip(*self._pending), self._dtypes)
            ))
            self._pending = []


#: The columns of a decided row, in store order, with their dtypes.
VERDICT_COLUMNS = (
    ("flow_ids", np.int64),
    ("labels", np.int64),
    ("decided_at", np.float64),
    ("first_packet_at", np.float64),
    ("n_recirculations", np.int64),
    ("early_exit", np.bool_),
    ("sids", np.int64),
)


class Verdicts(Mapping):
    """An immutable snapshot of decided flows: a read-only ``Mapping[int, FlowVerdict]``.

    One row per flow id — a flow decided twice keeps its later row — in
    ascending flow-id order, which is also the iteration order.  The rows are
    public read-only columns named as in :data:`VERDICT_COLUMNS`; a
    :class:`FlowVerdict` is built only by a keyed or item read.  A snapshot
    compares equal to the ``dict`` of the same verdicts.

    Example::

        >>> verdicts = program.verdicts
        >>> verdicts.labels[verdicts.flow_ids < 100]        # columns, no objects
        >>> verdicts[7].label                               # one FlowVerdict
    """

    def __init__(
        self,
        flow_ids: np.ndarray,
        labels: np.ndarray,
        decided_at: np.ndarray,
        first_packet_at: np.ndarray,
        n_recirculations: np.ndarray,
        early_exit: np.ndarray,
        sids: np.ndarray,
    ) -> None:
        """Columns already one row per flow id, in ascending order (see :meth:`of_rows`)."""
        self.flow_ids = flow_ids
        self.labels = labels
        self.decided_at = decided_at
        self.first_packet_at = first_packet_at
        self.n_recirculations = n_recirculations
        self.early_exit = early_exit
        self.sids = sids
        for column in self.columns:
            column.flags.writeable = False
        self._index: dict[int, int] | None = None

    @classmethod
    def of_rows(cls, columns: tuple[np.ndarray, ...]) -> "Verdicts":
        """The verdicts of rows given in decision order (a flow id's later row wins)."""
        order = np.argsort(columns[0])
        flow_ids = columns[0][order]
        first = np.ones(flow_ids.size, dtype=bool)
        first[1:] = flow_ids[1:] != flow_ids[:-1]
        # The sort is not stable: of a flow id's rows, keep the latest one.
        keep = np.maximum.reduceat(order, np.flatnonzero(first)) if order.size else order
        return cls(*(column[keep] for column in columns))

    @classmethod
    def merged(cls, parts) -> "Verdicts":
        """One snapshot of several (a later part's verdict of a flow id wins)."""
        columns = zip(*(part.columns for part in parts))
        return cls.of_rows(tuple(np.concatenate(column) for column in columns))

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """All columns, in :data:`VERDICT_COLUMNS` order."""
        return (
            self.flow_ids,
            self.labels,
            self.decided_at,
            self.first_packet_at,
            self.n_recirculations,
            self.early_exit,
            self.sids,
        )

    def time_to_detection(self) -> np.ndarray:
        """Per-flow :attr:`FlowVerdict.time_to_detection`, as one column."""
        return np.maximum(self.decided_at - self.first_packet_at, 0.0)

    def _row(self, flow_id) -> int | None:
        if self._index is None:
            self._index = dict(zip(self.flow_ids.tolist(), range(self.flow_ids.size)))
        return self._index.get(flow_id)

    def __getitem__(self, flow_id) -> FlowVerdict:
        row = self._row(flow_id)
        if row is None:
            raise KeyError(flow_id)
        return FlowVerdict(*(column[row].item() for column in self.columns[:-1]))

    def __contains__(self, flow_id) -> bool:
        return self._row(flow_id) is not None

    def __iter__(self):
        return iter(self.flow_ids.tolist())

    def __len__(self) -> int:
        return self.flow_ids.size

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} flows)"

    def __reduce__(self):
        return type(self), self.columns


class VerdictStore(ColumnBlocks):
    """A program's decided rows (:data:`VERDICT_COLUMNS`), one per decision, in decision order.

    The batched planes append their decided rows as blocks, the per-packet
    oracle one row at a time; :meth:`snapshot` is what readers get.
    """

    def __init__(self) -> None:
        super().__init__(dtype for _, dtype in VERDICT_COLUMNS)
        self._snapshot: tuple[int, Verdicts] | None = None

    def snapshot(self) -> Verdicts:
        """The verdicts recorded so far (one snapshot object until the next row)."""
        if self._snapshot is None or self._snapshot[0] != len(self):
            self._snapshot = (len(self), Verdicts.of_rows(self.columns()))
        return self._snapshot[1]
