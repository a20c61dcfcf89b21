"""Control-plane side of the deployment: the digest sink.

The controller collects the classification digests the data plane emits when
a flow reaches its final verdict.  The entries it would install through the
bfrt-style API the paper mentions are
:func:`repro.dataplane.codegen.generate_table_entries`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class Digest:
    """A classification digest sent from the data plane to the controller.

    ``slots=True``: the controller retains every digest for the replay's
    lifetime, and million-flow workloads make the per-instance dict the
    dominant cost of that retention.
    """

    flow_id: int
    label: int
    timestamp: float
    sid: int


@dataclass
class Controller:
    """Receives a program's classification digests.

    Example::

        >>> controller = Controller()
        >>> controller.receive_digest(Digest(flow_id=0, label=2, timestamp=0.5, sid=3))
        >>> controller.labels_by_flow()
        {0: 2}
    """

    digests: list[Digest] = field(default_factory=list)
    #: Retain received digests in :attr:`digests` (the default — artifact
    #: replay and parity checks read them back).  Million-flow scenario
    #: replays switch this off: nothing consumes the digests there, and one
    #: object per decided flow would dominate the process footprint.
    #: :attr:`n_digests` counts received digests either way.
    retain_digests: bool = True
    n_digests: int = 0

    def receive_digest(self, digest: Digest) -> None:
        """Record a classification digest."""
        self.n_digests += 1
        if self.retain_digests:
            self.digests.append(digest)

    def receive_digests(
        self, flow_ids: list[int], labels: list[int], timestamps: list[float], sids
    ) -> None:
        """Record many digests at once, given as aligned columns.

        The batched finalisation path: ``sids`` is still an array, and a
        :class:`Digest` is built per row only when digests are retained.
        """
        self.n_digests += len(flow_ids)
        if self.retain_digests:
            self.digests.extend(map(Digest, flow_ids, labels, timestamps, sids.tolist()))

    def labels_by_flow(self) -> dict[int, int]:
        """Final label reported for each flow (last digest wins)."""
        return {digest.flow_id: digest.label for digest in self.digests}
