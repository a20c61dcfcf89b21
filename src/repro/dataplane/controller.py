"""Control-plane side of the deployment: the digest sink.

The controller collects the classification digests the data plane emits when
a flow reaches its final verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataplane.verdicts import ColumnBlocks


@dataclass(slots=True)
class Digest:
    """A classification digest sent from the data plane to the controller.

    Built on demand, when :attr:`Controller.digests` is read: the controller
    retains digests as columns.
    """

    flow_id: int
    label: int
    timestamp: float
    sid: int


#: Dtypes of a digest's columns, in :class:`Digest` field order.
_DIGEST_DTYPES = (np.int64, np.int64, np.float64, np.int64)


class Controller:
    """Receives a program's classification digests.

    Example::

        >>> controller = Controller()
        >>> controller.receive_digest(0, 2, 0.5, 3)
        >>> controller.labels_by_flow()
        {0: 2}
    """

    def __init__(self, retain_digests: bool = True) -> None:
        #: Retain received digests for :attr:`digests` (the default — artifact
        #: replay and parity checks read them back).  Scenario replays switch
        #: this off: nothing reads the digests there.  :attr:`n_digests`
        #: counts received digests either way.
        self.retain_digests = retain_digests
        self.n_digests = 0
        self._retained = ColumnBlocks(_DIGEST_DTYPES)

    def receive_digest(self, flow_id: int, label: int, timestamp: float, sid: int) -> None:
        """Record one classification digest, given as its fields."""
        self.n_digests += 1
        if self.retain_digests:
            self._retained.append_row(flow_id, label, timestamp, sid)

    def receive_digests(self, flow_ids, labels, timestamps, sids) -> None:
        """Record many digests at once, given as aligned columns.

        The batched finalisation path: the columns are retained as they are
        (the program hands over the arrays its verdict store holds), and a
        :class:`Digest` is built per row only when :attr:`digests` is read.
        """
        self.n_digests += len(flow_ids)
        if self.retain_digests:
            self._retained.append(flow_ids, labels, timestamps, sids)

    @property
    def digests(self) -> list[Digest]:
        """The retained digests in the order received (empty when not retained)."""
        return list(map(Digest, *(column.tolist() for column in self._retained.columns())))

    def labels_by_flow(self) -> dict[int, int]:
        """Final label reported for each flow (last digest wins)."""
        flow_ids, labels, _, _ = self._retained.columns()
        return dict(zip(flow_ids.tolist(), labels.tolist()))
