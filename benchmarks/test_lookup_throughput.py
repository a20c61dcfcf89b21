"""Compiled lookup plane — dense mark-space LUTs vs the first-match scan.

The paper's core claim is that the per-window subtree decision is a table
*lookup*, not a rule interpretation.  This benchmark measures both
implementations of `RuleSet.classify_batch` on the same host in the same
run — the compiled LUT plane (`repro.core.rule_lut`) and the first-match
scan, which a rule set capped at ``lut_max_cells=0`` falls back to for every
subtree — at two paper-scale SpliDT configurations, then replays the same
traffic end to end under both.

Both ratios — LUT over scan on ``classify_batch``, and on the end-to-end
vectorized replay — are printed and recorded, not gated: a ratio of two
wall-clock timings is decidable only on an idle host.  What is asserted is
parity: both paths must agree bit for bit (kinds/values in the micro
benchmark, verdicts/recirculation in the replay) — the speedup is
meaningless otherwise.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from bench_common import get_store, splidt_experiment, write_result
from repro.analysis import render_table
from repro.core.rule_lut import compile_lookup
from repro.dataplane import replay_dataset

#: Flows generated for the benchmark models (bigger than the default store:
#: paper-scale subtrees need enough data to grow their leaves).
LOOKUP_FLOWS = 1500

#: Rows of the micro-benchmark feature matrix.
MICRO_ROWS = 100_000

#: SpliDT configurations measured: (depth, k, partitions).  The first is the
#: repo's standard paper configuration; the second is the high-capacity
#: corner (deep subtrees, few partitions) where the model table is largest.
CONFIGS = ((12, 4, 3), (18, 4, 2))

#: The configuration replayed end to end (the high-capacity corner).
E2E_CONFIG = (18, 4, 2)


def _feature_matrix(store, partitions: int) -> np.ndarray:
    windowed = store.fetch(partitions)
    base = np.vstack(
        [windowed.partition_matrix(p, "train") for p in range(partitions)]
    )
    reps = -(-MICRO_ROWS // len(base))
    return np.tile(base, (reps, 1))[:MICRO_ROWS]


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _lookups(rules) -> dict:
    """The rule set under both lookups: the scan is the LUT's over-cap fallback."""
    return {"scan": dataclasses.replace(rules, lut_max_cells=0), "lut": rules}


def _micro_bench(rules, matrix) -> dict:
    """Time classify_batch over every subtree under both lookups; assert parity."""
    sids = list(rules.subtree_rules)
    outputs = {}
    timings = {}
    for mode, mode_rules in _lookups(rules).items():
        outputs[mode] = [mode_rules.classify_batch(sid, matrix) for sid in sids]
        timings[mode] = _best_of(
            3,
            lambda mode_rules=mode_rules: [
                mode_rules.classify_batch(sid, matrix) for sid in sids
            ],
        )
    for (kinds_s, values_s), (kinds_l, values_l) in zip(
        outputs["scan"], outputs["lut"]
    ):
        assert np.array_equal(kinds_s, kinds_l)
        assert np.array_equal(values_s, values_l)
        assert kinds_s.dtype == kinds_l.dtype and values_s.dtype == values_l.dtype
    compile_seconds = _best_of(3, lambda: compile_lookup(rules))
    return {
        "n_subtrees": len(sids),
        "n_rules": sum(len(rules.subtree_rules[s].model_rules) for s in sids),
        "lookups": len(sids) * matrix.shape[0],
        "scan_s": timings["scan"],
        "lut_s": timings["lut"],
        "speedup": timings["scan"] / timings["lut"],
        "compile_ms": compile_seconds * 1e3,
        "stats": rules.compiled_lookup().stats(),
    }


def _e2e_bench(experiment, dataset) -> dict:
    """Replay the dataset end to end under both lookups; assert parity."""
    model = experiment.train()
    timings = {}
    results = {}
    for mode, rules in _lookups(experiment.compile()).items():
        best = float("inf")
        for _ in range(5):
            program = experiment.system.build_program(model, rules, experiment.spec)
            started = time.perf_counter()
            result = replay_dataset(program, dataset)
            best = min(best, time.perf_counter() - started)
        timings[mode] = best
        results[mode] = result
    scan, lut = results["scan"], results["lut"]
    assert set(scan.verdicts) == set(lut.verdicts)
    assert all(
        scan.verdicts[fid].label == lut.verdicts[fid].label
        and scan.verdicts[fid].decided_at == lut.verdicts[fid].decided_at
        and scan.verdicts[fid].early_exit == lut.verdicts[fid].early_exit
        for fid in scan.verdicts
    )
    assert scan.recirculation == lut.recirculation
    n_packets = sum(flow.n_packets for flow in dataset.flows)
    return {
        "packets": n_packets,
        "scan_s": timings["scan"],
        "lut_s": timings["lut"],
        "speedup": timings["scan"] / timings["lut"],
        "f1": lut.report.f1_score,
    }


def _run() -> str:
    store = get_store("D3", n_flows=LOOKUP_FLOWS)
    micro_rows = []
    e2e = None
    for depth, k, partitions in CONFIGS:
        experiment = splidt_experiment(
            "D3", depth=depth, k=k, partitions=partitions,
            n_flows=LOOKUP_FLOWS, flow_slots=65536,
        )
        rules = experiment.compile()
        matrix = _feature_matrix(store, partitions)
        micro = _micro_bench(rules, matrix)
        label = f"D={depth} k={k} P={partitions}"
        for mode in ("scan", "lut"):
            seconds = micro[f"{mode}_s"]
            micro_rows.append([
                label,
                mode,
                f"{micro['n_subtrees']}/{micro['n_rules']}",
                f"{seconds * 1e3:.1f}",
                f"{micro['lookups'] / seconds:,.0f}",
                "1.0x" if mode == "scan" else f"{micro['speedup']:.1f}x",
            ])
        stats = micro["stats"]
        micro_rows.append([
            label, "(lut compile)",
            f"{stats['n_compiled']}+{stats['n_fallback']}fb",
            f"{micro['compile_ms']:.1f}",
            f"{stats['total_cells']} cells", "",
        ])
        if (depth, k, partitions) == E2E_CONFIG:
            e2e = _e2e_bench(experiment, store.dataset)

    micro_table = render_table(
        ["Model", "Path", "Subtrees/Rules", "Time (ms)", "Lookups/s", "Speedup"],
        micro_rows,
    )
    e2e_rows = [
        [
            mode,
            f"{e2e['packets']}",
            f"{e2e[f'{mode}_s'] * 1e3:.1f}",
            f"{e2e['packets'] / e2e[f'{mode}_s']:,.0f}",
            f"{e2e['f1']:.3f}",
        ]
        for mode in ("scan", "lut")
    ]
    e2e_rows.append(["speedup", "", "", f"{e2e['speedup']:.2f}x", ""])
    e2e_table = render_table(
        ["Lookup", "Packets", "Time (ms)", "Packets/s", "F1"], e2e_rows
    )
    content = (
        f"classify_batch micro-benchmark ({MICRO_ROWS} rows per subtree, "
        f"best of 3, same host/run):\n{micro_table}\n\n"
        f"end-to-end vectorized replay (D={E2E_CONFIG[0]} k={E2E_CONFIG[1]} "
        f"P={E2E_CONFIG[2]}, {LOOKUP_FLOWS} flows, best of 5, same run):\n"
        f"{e2e_table}\n\n"
        "NOTE: speedups recorded, not gated; both paths bit-identical (asserted)."
    )
    return content


def test_lookup_throughput(benchmark):
    content = benchmark.pedantic(_run, rounds=1, iterations=1)
    write_result("lookup_throughput", content)
