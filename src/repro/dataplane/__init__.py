"""Data-plane execution of compiled models on the switch substrate.

Replay a dataset with :func:`replay_dataset` (the batched planes of
:mod:`repro.dataplane.vectorized`).  The per-packet interpreter they are
bit-identical to is :mod:`repro.dataplane.oracle`, a test oracle that
production code does not import.
"""

from repro.dataplane.controller import Controller, Digest
from repro.dataplane.runtime import (
    ReplayResult,
    build_replay_result,
    prepare_replay_flows,
    replay_dataset,
)
from repro.dataplane.splidt_program import SpliDTDataPlane
from repro.dataplane.vectorized import replay_arrays
from repro.dataplane.verdicts import FlowVerdict, Verdicts

__all__ = [
    "Controller",
    "Digest",
    "FlowVerdict",
    "ReplayResult",
    "SpliDTDataPlane",
    "Verdicts",
    "build_replay_result",
    "prepare_replay_flows",
    "replay_arrays",
    "replay_dataset",
]
