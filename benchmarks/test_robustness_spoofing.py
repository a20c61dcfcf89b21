"""Flow-size spoofing robustness (paper §6, Limitations & Future Work).

SpliDT derives window boundaries from the flow-size field in packet headers.
This bench quantifies what an attacker gains by spoofing that field: the same
D3 traffic is replayed in arrival order with the advertised size scaled by
0.25×–4×, and the resulting F1, decided-flow fraction and recirculation
behaviour are reported.  Expected shape: the honest (1.0×) row classifies
nearly every flow (flows sharing a register slot can cost a verdict, as on
the switch); mis-advertised sizes shift window boundaries and degrade F1,
the decided fraction, or both.
"""

from __future__ import annotations

import numpy as np

from bench_common import evaluate_splidt_config, get_store, write_result
from repro.analysis import evaluate_flow_size_spoofing, render_table

REPLAY_FLOWS = 120
SCALES = (1.0, 0.5, 0.25, 2.0, 4.0)


def _run() -> str:
    store = get_store("D3")
    candidate = evaluate_splidt_config(store, depth=9, k=4, partitions=3)
    subset = store.dataset.subset(np.arange(REPLAY_FLOWS))
    results = evaluate_flow_size_spoofing(
        candidate.model, candidate.rules, subset, scales=SCALES
    )
    rows = [
        [
            f"{result.scale:.2f}x",
            f"{result.f1_score:.3f}",
            f"{result.decided_fraction * 100:.1f}%",
            f"{result.mean_recirculations:.2f}",
        ]
        for result in results
    ]
    return render_table(
        ["Advertised flow size", "F1", "Flows classified", "Recirculations/flow"], rows
    )


def test_robustness_flow_size_spoofing(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    write_result("robustness_spoofing", table)
    assert "1.00x" in table
