"""A serving session over the per-packet oracle.

Every ingested packet traverses :mod:`repro.dataplane.oracle`'s interpreter
immediately, so verdicts are observable the moment their boundary packet
arrives.  It is not a serving engine (:data:`~repro.serve.engine.SERVE_ENGINES`
does not name it): it is the reference the served engines are held to over
the same stream — chunking, hot swaps and stream-order checks included.
"""

from __future__ import annotations

from repro.dataplane.oracle import PacketInterpreter
from repro.dataplane.verdicts import Verdicts
from repro.datasets.streams import PacketChunk
from repro.serve.engine import InferenceEngine, ServeError


class StreamingEngine(InferenceEngine):
    """Streams packets through the per-packet oracle.

    The program's slot state is held as objects from the first ``ingest``
    until ``drain``, which hands it back to the program as columns.

    Example::

        >>> from repro.serve import StreamingEngine
        >>> with StreamingEngine(program) as engine:
        ...     for chunk in iter_packet_chunks(dataset, 64):
        ...         engine.ingest(chunk)
        >>> engine.result().report.f1_score  # doctest: +SKIP
        0.87
    """

    name = "streaming"

    def __init__(self, program) -> None:
        super().__init__()
        if program is None:
            raise ServeError("StreamingEngine requires a data-plane program")
        self.program = program
        self._capacity_bps = program.recirculation.capacity_bps
        self._interpreter: PacketInterpreter | None = None

    def _engine_verdicts(self) -> Verdicts:
        """The program's verdict snapshot (non-blocking).

        Per-packet execution means a verdict is visible immediately after
        the ``ingest`` call that carried its boundary packet returns.
        """
        return self.program.verdicts

    def _successor_engine(self, program_factory) -> "StreamingEngine":
        return StreamingEngine(program_factory())

    def _swap_table_size(self) -> int:
        return self.program.indexer.table_size

    def _ingest(self, chunk: PacketChunk) -> None:
        if self._interpreter is None:
            self._interpreter = PacketInterpreter(self.program)
        self._interpreter.replay_positions(chunk.flows, chunk.soa, chunk.positions)

    def _drain(self) -> None:
        if self._interpreter is not None:
            self._interpreter.close()
            self._interpreter = None
