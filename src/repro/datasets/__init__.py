"""Synthetic dataset substrate: flows, D1–D7 generators, datacenter workloads.

The real captures the paper evaluates on (CIC-IoMT, CIC-IoT-2023, ISCX-VPN,
CampusTraffic, CIC-IDS) are not redistributable, so this package provides
parameterised synthetic equivalents that exercise the same code paths; see
DESIGN.md for the substitution rationale.
"""

from repro.datasets.flows import (
    PROTO_TCP,
    PROTO_UDP,
    TCP_FLAGS,
    FiveTuple,
    Flow,
    FlowDataset,
    Packet,
    PacketArrays,
)
from repro.datasets.generators import (
    ClassSignature,
    PhaseShiftGenerator,
    SyntheticTrafficGenerator,
    generate_dataset,
)
from repro.datasets.materialize import DatasetStore, WindowedDataset, materialize
from repro.datasets.profiles import DATASET_KEYS, PROFILES, DatasetProfile, get_profile
from repro.datasets.registry import (
    DEFAULT_TRAINING_FLOWS,
    dataset_summary,
    load_dataset,
)
from repro.datasets.streams import PacketChunk, iter_packet_chunks
from repro.datasets.workloads import (
    CONTROL_PACKET_BYTES,
    RECIRCULATION_CAPACITY_BPS,
    WORKLOADS,
    RecirculationEstimate,
    WorkloadProfile,
    estimate_recirculation,
    sample_flow_durations,
)

__all__ = [
    "CONTROL_PACKET_BYTES",
    "DATASET_KEYS",
    "DEFAULT_TRAINING_FLOWS",
    "DatasetProfile",
    "DatasetStore",
    "ClassSignature",
    "FiveTuple",
    "Flow",
    "FlowDataset",
    "PROFILES",
    "PROTO_TCP",
    "PROTO_UDP",
    "Packet",
    "PacketArrays",
    "PacketChunk",
    "PhaseShiftGenerator",
    "RECIRCULATION_CAPACITY_BPS",
    "RecirculationEstimate",
    "SyntheticTrafficGenerator",
    "TCP_FLAGS",
    "WORKLOADS",
    "WindowedDataset",
    "WorkloadProfile",
    "dataset_summary",
    "estimate_recirculation",
    "generate_dataset",
    "get_profile",
    "iter_packet_chunks",
    "load_dataset",
    "materialize",
    "sample_flow_durations",
]
