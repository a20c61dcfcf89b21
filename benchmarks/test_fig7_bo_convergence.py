"""Figure 7 — Bayesian-optimisation convergence of the design search.

The paper shows every dataset reaching its peak F1 within 150 BO iterations.
At benchmark scale we run a shorter search and report the cumulative-best F1
trace; expected shape: the trace is monotone and most of the improvement
happens in the first third of the iterations.
"""

from __future__ import annotations

from bench_common import get_store, write_result
from repro.analysis import render_table
from repro.core.dse import DesignSearch
from repro.switch.targets import TOFINO1

DATASETS = ("D1", "D2", "D3", "D4", "D5", "D6", "D7")
N_ITERATIONS = 12
#: Proposals per BO iteration.
BATCH_SIZE = 4


def _run() -> str:
    rows = []
    for key in DATASETS:
        store = get_store(key)
        search = DesignSearch(
            store,
            target=TOFINO1,
            depth_range=(2, 14),
            k_range=(1, 5),
            partitions_range=(1, 5),
            seed=13,
        )
        result = search.run(
            n_iterations=N_ITERATIONS, batch_size=BATCH_SIZE, method="bayesian"
        )
        trace = result.convergence_trace()
        peak = max(trace)
        iterations_to_95_percent = next(
            (i + 1 for i, value in enumerate(trace) if value >= 0.95 * peak), len(trace)
        )
        rows.append(
            [
                key,
                f"{peak:.3f}",
                str(iterations_to_95_percent),
                "  ".join(f"{value:.2f}" for value in trace),
            ]
        )
    return render_table(["Dataset", "Peak F1", "Iter@95%", "Cumulative-best trace"], rows)


def test_fig7_bo_convergence(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    write_result("fig7_bo_convergence", table)
    assert "Peak F1" in table
