"""RMT switch substrate: targets, flow hashing, PHV, ternary matching, recirculation.

This package holds what a deployed program runs on (Tofino-class RMT
switches): the per-target budgets, the CRC32 flow-to-slot hash, the packet
header vector, the recirculation path, ternary range expansion and the
collision-slot eviction policies (:mod:`repro.switch.eviction`).  Whether a
deployment *fits* a target is answered in one place,
:mod:`repro.core.resources`; nothing here instantiates registers or tables.
"""

from repro.switch.hashing import FlowIndexer, crc32, crc32_reference, hash_five_tuple, register_index
from repro.switch.phv import Phv, make_control_phv, make_data_phv
from repro.switch.recirculation import RecirculationChannel
from repro.switch.targets import BLUEFIELD3, TARGETS, TOFINO1, TOFINO2, TRIDENT4, TargetSpec, get_target
from repro.switch.tcam import TernaryMatch

__all__ = [
    "BLUEFIELD3",
    "FlowIndexer",
    "Phv",
    "RecirculationChannel",
    "TARGETS",
    "TOFINO1",
    "TOFINO2",
    "TRIDENT4",
    "TargetSpec",
    "TernaryMatch",
    "crc32",
    "crc32_reference",
    "get_target",
    "hash_five_tuple",
    "make_control_phv",
    "make_data_phv",
    "register_index",
]
