"""Control-plane side of the deployment: the digest sink.

The controller receives the classification digest the data plane emits when
a flow reaches its final verdict.  A digest carries the decided row's flow
id, label, decision time and SID, which the program's verdict store already
holds (``program.verdict_rows()``), so the controller counts digests and
keeps none.
"""

from __future__ import annotations


class Controller:
    """Receives a program's classification digests.

    Example::

        >>> controller = Controller()
        >>> controller.receive_digest(0, 2, 0.5, 3)
        >>> controller.n_digests
        1
    """

    def __init__(self) -> None:
        self.n_digests = 0

    def receive_digest(self, flow_id: int, label: int, timestamp: float, sid: int) -> None:
        """Receive one classification digest, given as its fields."""
        self.n_digests += 1

    def receive_digests(self, flow_ids, labels, timestamps, sids) -> None:
        """Receive many digests at once, given as aligned columns (the batched planes)."""
        self.n_digests += len(flow_ids)
