"""Per-packet streaming engine (the reference runtime behind ``ingest``).

The lowest-latency, lowest-throughput engine: every ingested packet becomes
a PHV and traverses ``program.process_packet`` immediately, so verdicts are
observable the moment their boundary packet arrives.  This is byte-for-byte
the ``engine="reference"`` interpreter loop of
:func:`repro.dataplane.replay_dataset`, re-expressed as a stream consumer —
``replay_dataset``'s reference engine is literally this engine fed one
whole-stream chunk.
"""

from __future__ import annotations

from repro.dataplane import vectorized as vz
from repro.dataplane.verdicts import Verdicts
from repro.datasets.streams import PacketChunk
from repro.serve.engine import InferenceEngine, ServeError


class StreamingEngine(InferenceEngine):
    """Streams packets through the per-packet reference runtime.

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

    def _engine_verdicts(self) -> Verdicts:
        """The program's verdict snapshot (non-blocking).

        Per-packet execution means a verdict is visible immediately after
        the ``ingest`` call that carried its boundary packet returns.
        """
        return self.program.verdicts

    def _engine_recirculation_stats(self) -> dict[str, float]:
        """The program's recirculation counters."""
        return self.program.recirculation_stats()

    def _engine_channel_aggregates(self) -> list:
        from repro.serve.engine import channel_aggregate

        return [channel_aggregate(self.program)]

    def _successor_engine(self, program_factory) -> "StreamingEngine":
        return StreamingEngine(program_factory())

    def _swap_table_size(self) -> int:
        return self.program.indexer.table_size

    def _ingest(self, chunk: PacketChunk) -> None:
        vz._replay_positions(self.program, chunk.flows, chunk.soa, chunk.positions)
