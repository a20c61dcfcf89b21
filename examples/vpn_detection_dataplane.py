"""VPN detection on the simulated switch: packet-level partitioned inference.

Run with (after ``pip install -e .``, or with ``PYTHONPATH=src``)::

    python examples/vpn_detection_dataplane.py

or equivalently through the CLI::

    python -m repro run --scenario vpn-detection

This example goes one level deeper than the quickstart: the ``Experiment``
pipeline trains and compiles a partitioned tree for the D3 (VPN detection)
dataset, installs the rules into the RMT switch model and replays the raw
packet trace through the pipeline.  The switch collects features in its
registers, runs the active subtree's rules at every window boundary,
recirculates a control packet to move to the next partition, and emits a
digest with the final verdict — so the reported accuracy, time-to-detection,
and recirculation overhead come from packet-level execution rather than
offline matrices.
"""

from __future__ import annotations

import numpy as np

from repro.pipeline import Experiment, get_scenario


def main() -> None:
    spec = get_scenario("vpn-detection")
    print("Generating the D3 (ISCX-VPN-like) dataset and training SpliDT ...")
    experiment = Experiment(spec)
    result = experiment.run()

    print(f"  offline (matrix) test F1  : {result.offline_report.f1_score:.3f}")

    print("Installing rules into the simulated Tofino pipeline and replaying packets ...")
    replay = result.replay_result
    print(f"  flows replayed            : {len(replay.verdicts)}")
    print(f"  data-plane F1             : {replay.report.f1_score:.3f}")

    print(f"  median time-to-detection  : {result.ttd['median'] * 1e3:.1f} ms")
    print(f"  p99 time-to-detection     : {result.ttd['p99'] * 1e3:.1f} ms")

    recirc = result.recirculation
    print(f"  recirculated packets      : {int(recirc['packets'])} "
          f"({np.mean(replay.recirculations_per_flow()):.2f} per flow)")
    print(f"  recirculation bandwidth   : {recirc['mean_bps'] / 1e6:.3f} Mbps "
          f"({recirc['utilisation'] * 100:.5f}% of the path)")

    deployment = experiment.deploy()
    resources = deployment.resources
    print(f"  feasible @ {spec.target_flows:,} flows  : {deployment.feasibility.feasible} "
          f"(logic stages: {resources.stages_for_tables}/{resources.target.n_stages}, "
          f"max {resources.max_flows:,} flows on {resources.target.name})")


if __name__ == "__main__":
    main()
