"""Design-space exploration: build a Pareto frontier with Bayesian optimisation.

Run with (after ``pip install -e .``, or with ``PYTHONPATH=src``)::

    python examples/design_space_exploration.py

The script reproduces the paper's Figure 5 workflow at laptop scale: a
multi-objective Bayesian optimiser proposes partitioned-tree configurations
(depth, features per subtree, partition count); each is trained, compiled and
costed against Tofino1; and the search returns the Pareto frontier of
(validation F1, supported flows) plus the per-iteration timing breakdown.
Candidates are fitted on the ``fit`` split and ranked on ``validation``; the
test F1 printed beside it is reported, never selected on.  The
winning configuration is then handed to the ``Experiment`` pipeline for a
packet-level replay of the deployed model.
"""

from __future__ import annotations

from repro import core, datasets
from repro.analysis import render_table
from repro.pipeline import Experiment, ExperimentSpec
from repro.switch.targets import TOFINO1


def main() -> None:
    print("Generating the D2 (CIC-IoT-like) dataset ...")
    dataset = datasets.load_dataset("D2", n_flows=600, seed=3)
    store = datasets.DatasetStore(dataset, random_state=3)

    search = core.DesignSearch(
        store,
        target=TOFINO1,
        depth_range=(2, 16),
        k_range=(1, 5),
        partitions_range=(1, 5),
        seed=3,
    )
    print("Running 20 Bayesian-optimisation iterations ...")
    result = search.run(n_iterations=20, method="bayesian")

    print("\nPareto frontier (validation F1 vs supported flows):")
    rows = []
    for candidate in sorted(result.pareto_candidates(), key=lambda c: -c.f1_score):
        rows.append(
            [
                f"{candidate.config.depth}",
                f"{candidate.config.features_per_subtree}",
                f"{candidate.config.n_partitions}",
                f"{candidate.f1_score:.3f}",
                f"{candidate.report.f1_score:.3f}",
                f"{candidate.max_flows:,}",
                str(candidate.rules.n_entries),
            ]
        )
    print(render_table(
        ["Depth", "k", "Partitions", "Val F1", "Test F1", "Max flows", "TCAM entries"], rows
    ))

    print("\nBest configuration per paper flow target:")
    for n_flows, candidate in result.pareto_table().items():
        if candidate is None:
            print(f"  {n_flows:>9,} flows : no feasible configuration found")
        else:
            print(f"  {n_flows:>9,} flows : val F1={candidate.f1_score:.3f}  "
                  f"test F1={candidate.report.f1_score:.3f}  "
                  f"D={candidate.config.depth} k={candidate.config.features_per_subtree} "
                  f"P={candidate.config.n_partitions}")

    timings = result.mean_timings()
    print(f"\nMean per-iteration time: {timings.total:.2f}s "
          f"(training {timings.training:.2f}s, optimiser {timings.optimizer:.2f}s, "
          f"rule generation {timings.rulegen:.2f}s)")
    trace = result.convergence_trace()
    print("Cumulative best validation F1 trace:", "  ".join(f"{value:.2f}" for value in trace))

    best = result.best_at_flows(100_000)
    if best is None:
        return
    spec = ExperimentSpec(
        dataset="D2",
        n_flows=600,
        seed=3,
        depth=best.config.depth,
        features_per_subtree=best.config.features_per_subtree,
        partition_sizes=best.config.partition_sizes,
        bit_width=best.config.bit_width,
        replay_flows=150,
    )
    print(f"\nReplaying the best 100K-flow configuration (D={spec.depth}, "
          f"k={spec.features_per_subtree}, P={len(spec.partition_sizes)}) "
          "through the data plane ...")
    replayed = Experiment(spec).run()
    print(f"  data-plane F1            : {replayed.replay_report.f1_score:.3f}")
    print(f"  median time-to-detection : {replayed.ttd['median'] * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
