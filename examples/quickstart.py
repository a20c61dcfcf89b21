"""Quickstart: one declarative spec from dataset to hardware costing.

Run with (after ``pip install -e .``, or with ``PYTHONPATH=src``)::

    python examples/quickstart.py

or equivalently through the CLI::

    python -m repro run --scenario quickstart

The script drives the core SpliDT workflow through the ``Experiment``
pipeline: one :class:`~repro.pipeline.ExperimentSpec` describes the dataset
(the synthetic D3 / ISCX-VPN equivalent), the model (depth 9, k = 4, three
partitions) and the Tofino1 target; the staged facade trains, compiles,
costs and replays it, and every intermediate artefact stays inspectable.
"""

from __future__ import annotations

from repro.pipeline import Experiment, get_scenario


def main() -> None:
    spec = get_scenario("quickstart")
    print(f"Running the quickstart scenario: {spec.system} on {spec.dataset} "
          f"({spec.n_flows} flows, seed {spec.seed}) ...")
    experiment = Experiment(spec)

    model = experiment.train()
    report = experiment.system.offline_report(model, experiment.prepare().windowed, spec)
    print(f"  subtrees trained       : {model.n_subtrees}")
    print(f"  distinct features used : {len(model.features_used())} "
          f"(with only {spec.features_per_subtree} feature registers per flow)")
    print(f"  test F1 score          : {report.f1_score:.3f}")
    print(f"  test accuracy          : {report.accuracy:.3f}")

    rules = experiment.compile()
    print("Compiling range-marking TCAM rules ...")
    print(f"  TCAM entries           : {rules.n_entries} "
          f"({rules.n_feature_entries} feature + {rules.n_model_entries} model)")

    print("Estimating the hardware footprint on Tofino1 ...")
    deployment = experiment.deploy()
    resources = deployment.resources
    print(f"  per-flow feature registers : {resources.layout.feature_bits} bits")
    print(f"  pipeline stages for logic  : {resources.stages_for_tables}")
    print(f"  supported concurrent flows : {resources.max_flows:,}")
    for environment, recirc in resources.recirculation.items():
        print(f"  recirculation ({environment:2s})        : {recirc.peak_mbps:.1f} Mbps peak "
              f"({recirc.fraction_of_capacity * 100:.4f}% of the 100 Gbps path)")

    result = experiment.run()
    print(f"Replayed {len(result.replay_result.verdicts)} flows through the "
          "simulated pipeline:")
    print(f"  data-plane F1          : {result.replay_report.f1_score:.3f}")
    print(f"Feasible at {spec.target_flows:,} concurrent flows: "
          f"{result.feasibility.feasible}")


if __name__ == "__main__":
    main()
