"""Scenario pressure — degradation under table overflow and hostile traffic.

The paper sizes SpliDT's register file for ~100k concurrent flows; this
benchmark measures what happens *past* that point.  The occupancy sweep
replays the ``table-pressure`` workload while the flow population sweeps
0.5×→8× of the slot capacity (idle-timeout eviction), reporting the
accuracy / decided-fraction / TTD degradation curve over the legitimate
flows, next to a *control* row — the 0.5x point's traffic replayed with a
register file so large that no two flows share a slot — which separates what
table pressure costs from what the model gets wrong on its own, and a replay
throughput column (packets over the seconds inside the replay; one cold
replay per row, so indicative only — ``benchmarks/perf`` is the throughput
record).  The
companion million-flow benchmark replays the
``million-flow-streamed`` catalog scenario — ~10⁶ spoofed flood flows over a
small legitimate base — through the out-of-core streamed source, and checks
the process peak RSS stays well below what materialising the workload as
``Flow``/``Packet`` objects would cost.

The million-flow run takes a couple of minutes, so it is gated behind
``SPLIDT_BENCH_MILLION_FLOW=1`` (run it alone for a clean RSS reading).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from bench_common import write_result
from repro.analysis import render_table
from repro.pipeline import ExperimentSpec
from repro.scenarios import get_workload_scenario, run_scenario, sweep_occupancy
from repro.scenarios.runner import prepare_system

#: Occupancy factors of the sweep (× slot capacity).
SWEEP_FACTORS = (0.5, 1.0, 2.0, 4.0, 8.0)

#: Register slots of the swept program (the 1.0× point).
SWEEP_SLOTS = 256

#: Register slots of the no-pressure control row.
CONTROL_SLOTS = 2**20

#: Environment gate of the million-flow benchmark.
MILLION_ENV = "SPLIDT_BENCH_MILLION_FLOW"

#: Register slots of the million-flow replay (~15× occupancy at 10⁶ flows).
MILLION_SLOTS = 65536

HEADER = ["Occupancy", "Flows", "Accuracy", "F1", "Decided", "Median TTD (ms)",
          "Evictions", "Streamed", "Replay pkt/s"]


def _row(result, *, control: bool = False) -> list[str]:
    ttd = "-" if np.isnan(result.median_ttd) else f"{result.median_ttd * 1e3:.1f}"
    return [
        "control" if control else f"{result.occupancy:.2f}x",
        f"{result.n_flows:,}",
        f"{result.accuracy:.3f}",
        f"{result.f1_score:.3f}",
        f"{result.decided_fraction:.3f}",
        ttd,
        f"{result.evictions:,}",
        "yes" if result.streamed else "no",
        # The control's one cold replay mostly first-touches 2^20-entry
        # register arrays: not a throughput.
        "-" if control else f"{result.n_packets / result.replay_s:,.0f}",
    ]


def _run_sweep():
    scenario = get_workload_scenario("table-pressure")
    prepared = prepare_system(scenario, ExperimentSpec(n_flows=300))
    results = sweep_occupancy(
        scenario, flow_slots=SWEEP_SLOTS, factors=SWEEP_FACTORS, prepared=prepared
    )
    # table-pressure has no flood layer: every flow of a point is legitimate.
    control = run_scenario(
        scenario,
        flow_slots=CONTROL_SLOTS,
        traffic_flows=results[0].n_flows,
        prepared=prepared,
    )
    return control, results


def test_occupancy_sweep_degradation(benchmark):
    control, results = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    rows = [_row(control, control=True)] + [_row(result) for result in results]
    lines = [
        f"scenario: table-pressure ({SWEEP_SLOTS} slots, "
        f"{results[0].eviction_policy} eviction; control: the "
        f"{results[0].occupancy:.2f}x traffic at {CONTROL_SLOTS:,} slots)",
        render_table(HEADER, rows),
    ]
    write_result("scenario_pressure", "\n".join(lines))

    assert len(results) == len(SWEEP_FACTORS)
    # The control is the 0.5x traffic without table pressure: nothing is
    # evicted, and pressure can only cost decided flows relative to it.
    assert control.n_flows == results[0].n_flows
    assert control.evictions == 0
    assert control.decided_fraction >= results[0].decided_fraction
    below, above = results[0], results[-1]
    assert below.occupancy < 1.0 < above.occupancy
    # Under-capacity replay decides most flows (CRC collisions plus the
    # tight idle timeout already evict a few); 8x pressure with eviction
    # churn must cost decided flows, not corrupt the survivors.
    assert below.decided_fraction > 0.8
    assert above.decided_fraction < below.decided_fraction
    assert all(0.0 <= result.accuracy <= 1.0 for result in results)


def test_million_flow_streamed(benchmark):
    if not os.environ.get(MILLION_ENV):
        pytest.skip(f"set {MILLION_ENV}=1 to run the million-flow benchmark")
    scenario = get_workload_scenario("million-flow-streamed")

    def _run():
        return run_scenario(scenario, flow_slots=MILLION_SLOTS)

    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    table = render_table(HEADER, [_row(result)])
    lines = [
        f"scenario: million-flow-streamed ({MILLION_SLOTS} slots, "
        f"{result.eviction_policy} eviction)",
        table,
        f"packets            : {result.n_packets:,}",
        f"replay wall clock  : {result.elapsed_s:.1f} s",
        f"  of it the replay : {result.replay_s:.1f} s (the rest generates and "
        "spills the workload, builds the program, scores)",
        f"peak RSS           : {result.peak_rss_bytes / 2**20:,.0f} MiB",
        f"materialised est.  : {result.materialised_estimate / 2**20:,.0f} MiB",
    ]
    write_result("scenario_pressure_million_flow", "\n".join(lines))

    assert result.streamed
    assert result.n_flows > 1_000_000
    # The out-of-core claim: replaying a million flows must not cost
    # anywhere near the materialised object-form footprint.
    assert result.peak_rss_bytes < result.materialised_estimate
    # The flood is load, not ground truth — legitimate flows still decide.
    assert result.decided_fraction > 0.5
