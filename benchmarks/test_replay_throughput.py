"""Replay-engine throughput — packets/second across the replay engines.

The paper's headline claim is stateful inference at line rate, so the replay
runtime is the one component whose software throughput matters.  This
benchmark replays the D3 workload through the two engines of
``replay_dataset`` — the per-packet reference loop and the batched window
plane (``vectorized``) — and records packets/second and the batched
engine's speedup over the reference loop (recorded, not gated: a ratio of
two wall-clock timings is decidable only on an idle host), while asserting
bit-identical verdicts.  Each row is the best of 3
passes after one discarded pass (which fills the dataset's cached derived
columns and the compiled lookup plane), on a fresh program built outside the
timed window.
"""

from __future__ import annotations

import time

from bench_common import get_store, splidt_experiment, write_result
from repro.analysis import render_table
from repro.dataplane import replay_dataset

#: Flows replayed per engine (the full benchmark store).
REPLAY_FLOWS = 500

#: Timed passes per engine (the best is reported), after one discarded pass.
ROUNDS = 3


def _time_engine(experiment, dataset, engine: str) -> tuple[float, dict]:
    elapsed = float("inf")
    for pass_ in range(1 + ROUNDS):
        program = experiment.system.build_program(
            experiment.train(), experiment.compile(), experiment.spec
        )
        started = time.perf_counter()
        result = replay_dataset(program, dataset, engine=engine)
        if pass_:  # pass 0 only warms the caches
            elapsed = min(elapsed, time.perf_counter() - started)
    return elapsed, result


def _run() -> str:
    store = get_store("D3")
    experiment = splidt_experiment("D3", depth=9, k=4, partitions=3, flow_slots=65536)
    dataset = store.dataset
    n_packets = sum(flow.n_packets for flow in dataset.flows[:REPLAY_FLOWS])

    rows = []
    rates = {}
    results = {}
    for engine in ("reference", "vectorized"):
        elapsed, result = _time_engine(experiment, dataset, engine)
        rates[engine] = n_packets / elapsed
        results[engine] = result
        rows.append(
            [
                engine,
                f"{n_packets}",
                f"{elapsed * 1e3:.1f}",
                f"{rates[engine]:,.0f}",
                f"{result.report.f1_score:.3f}",
            ]
        )

    speedup = rates["vectorized"] / rates["reference"]
    rows.append(["vectorized speedup", "", "", f"{speedup:.1f}x", ""])

    # The engines must agree exactly — throughput means nothing otherwise.
    reference, candidate = results["reference"], results["vectorized"]
    assert set(reference.verdicts) == set(candidate.verdicts)
    assert all(
        reference.verdicts[fid].label == candidate.verdicts[fid].label
        and reference.verdicts[fid].decided_at == candidate.verdicts[fid].decided_at
        for fid in reference.verdicts
    )
    assert reference.recirculation == candidate.recirculation

    table = render_table(
        ["Engine", "Packets", "Time (ms)", "Packets/s", "F1"], rows
    )
    return table


def test_replay_throughput(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    write_result("replay_throughput", table)
