"""Data-plane execution of compiled models on the switch substrate.

Replay a dataset with :func:`replay_dataset`, choosing between the
per-packet ``"reference"`` engine (the semantics oracle) and the batched
``"vectorized"`` engine (:mod:`repro.dataplane.vectorized`); both produce
bit-identical results.
"""

from repro.dataplane.codegen import generate_p4_program, generate_table_entries
from repro.dataplane.controller import Controller, Digest
from repro.dataplane.runtime import (
    REPLAY_ENGINES,
    ReplayResult,
    build_replay_result,
    prepare_replay_flows,
    replay_dataset,
    ttd_ecdf,
)
from repro.dataplane.splidt_program import SpliDTDataPlane
from repro.dataplane.vectorized import replay_arrays
from repro.dataplane.verdicts import FlowVerdict, Verdicts

__all__ = [
    "Controller",
    "Digest",
    "FlowVerdict",
    "REPLAY_ENGINES",
    "ReplayResult",
    "SpliDTDataPlane",
    "Verdicts",
    "build_replay_result",
    "generate_p4_program",
    "generate_table_entries",
    "prepare_replay_flows",
    "replay_arrays",
    "replay_dataset",
    "ttd_ecdf",
]
