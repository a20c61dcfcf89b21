"""Table 4 — average time per design-search iteration, broken down by stage.

The paper reports that training dominates each iteration (~88%), followed by
the optimiser, with rule generation and the backend costing comparatively
little.  Expected shape: training is the largest component for every dataset.

All five stages are measured: every dataset's search starts from a cold
store over a cold copy of the dataset, so Fetch is what building the packet
arrays and materialising each partition count really costs, and the search
runs past the optimiser's random initial design, so Optimizer includes
surrogate fits.
"""

from __future__ import annotations

import numpy as np

from bench_common import BENCH_SEED, get_store, write_result
from repro.analysis import format_timings_table
from repro.core.dse import DesignSearch
from repro.datasets import DatasetStore
from repro.switch.targets import TOFINO1

DATASETS = ("D1", "D2", "D3", "D4", "D5", "D6", "D7")

#: Evaluations per dataset: the optimiser's 6 random initial points, then 6
#: suggestions that each fit a surrogate.
ITERATIONS = 12


def _run():
    timings = {}
    for key in DATASETS:
        # subset() copies the dataset without its cached packet arrays, and
        # the store caches nothing yet: no earlier benchmark's fetches count.
        dataset = get_store(key).dataset
        store = DatasetStore(
            dataset.subset(np.arange(dataset.n_flows)), random_state=BENCH_SEED
        )
        search = DesignSearch(
            store,
            target=TOFINO1,
            depth_range=(3, 12),
            k_range=(2, 4),
            partitions_range=(1, 4),
            seed=17,
        )
        result = search.run(n_iterations=ITERATIONS, method="bayesian")
        timings[key] = result.mean_timings()
    return format_timings_table(timings)


def test_table4_iteration_time(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    write_result("table4_iteration_time", table)
    assert "Training" in table
