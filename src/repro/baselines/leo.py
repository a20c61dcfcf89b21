"""Leo baseline (Jafri et al., NSDI 2024).

Leo scales decision trees by optimising their match-action table layout so
that deeper trees fit within the TCAM budget; like NetBeacon it relies on a
global top-k stateful feature set, so its per-flow register footprint also
grows with k.  Leo's table layout allocates power-of-two rule blocks per tree
level, which is why its entry counts in the paper are powers of two; the cost
model below reproduces that behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.topk import TopKModel
from repro.core.resources import TableCost
from repro.datasets.materialize import WindowedDataset
from repro.switch.targets import TargetSpec

#: Leo pre-allocates rule blocks in powers of two, bounded by this exponent.
LEO_MAX_ENTRY_EXPONENT = 14


def leo_tcam_entries(depth: int, k: int) -> int:
    """Leo's pre-allocated TCAM entries for a tree of ``depth`` with ``k`` keys.

    Leo reserves a power-of-two block large enough for the densest level of
    the mapped tree; shallow trees still pay a minimum block of 2**11 entries,
    matching the entry counts reported in the paper's Table 3.
    """
    exponent = min(max(depth + int(np.ceil(np.log2(max(k, 1)))), 11), LEO_MAX_ENTRY_EXPONENT)
    return 1 << exponent


def leo_tcam_bits(depth: int, k: int, *, bit_width: int = 32, overhead_bits: int = 16) -> float:
    """TCAM bits of Leo's pre-allocated blocks (k feature keys per entry)."""
    entries = leo_tcam_entries(depth, k)
    key_bits = k * bit_width
    return entries * (2 * key_bits + overhead_bits)


def leo_table_cost(model: TopKModel, windowed: WindowedDataset, target: TargetSpec) -> TableCost:
    """Leo's cost model: pre-allocated blocks, plus TCAM stages for its depth-wise layout.

    The blocks are sized from the configured (depth, k), not from the fitted
    tree, so ``windowed`` is unused.
    """
    config = model.config
    return TableCost(
        entries=leo_tcam_entries(config.depth, config.top_k),
        bits=leo_tcam_bits(
            config.depth,
            config.top_k,
            bit_width=config.bit_width,
            overhead_bits=target.tcam_entry_overhead_bits,
        ),
        match_key_bits=config.top_k * config.bit_width,
        extra_stages=max(int(np.ceil(config.depth / 4)) - 1, 0),
    )
