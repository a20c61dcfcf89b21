"""``python -m repro`` — the command-line front door of the pipeline.

Subcommands:

* ``run`` — execute one experiment end to end (train, compile, deploy,
  replay, report); optionally save the run directory with ``--out``.
* ``replay`` — reload a saved run directory and replay it (no retraining).
* ``serve`` — stream the experiment's packets through a deployed model with
  a streaming inference engine, emitting verdict digests and rolling
  TTD/recirculation statistics as they happen.  ``--online`` attaches the
  drift-detect / retrain / hot-swap loop (:mod:`repro.online`).
* ``online-demo`` — the phase-change scenario end to end: a static model
  collapses mid-stream, the online loop detects it, retrains on recent flows
  and swaps the refreshed model in without touching in-flight flows.
* ``scenario`` — the adversarial workload suite (:mod:`repro.scenarios`):
  ``scenario list`` prints the catalog, ``scenario run`` trains a clean
  system and replays one hostile workload against it (optionally asserting
  the catalog's degradation bounds — the CI smoke), ``scenario sweep``
  replays it across an occupancy sweep of the register file.
* ``dse`` — the paper's design-space search over (depth, k, partitions):
  multi-objective Bayesian optimisation of accuracy vs flow scale, printing
  the Pareto front and per-stage timings.
* ``list-datasets`` — the D1–D7 catalogue, plus registered systems/scenarios.
* ``compare`` — run several systems on one dataset and print a comparison
  table (the shape of the paper's headline tables); ``--json`` emits
  machine-readable rows instead.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.analysis.reporting import format_max_flows, render_table
from repro.dataplane.runtime import fresh_rows
from repro.datasets.profiles import DATASET_KEYS
from repro.datasets.registry import dataset_summary
from repro.pipeline.artifacts import load_run, save_run
from repro.pipeline.experiment import Experiment, ExperimentResult
from repro.pipeline.spec import ExperimentSpec, SpecError
from repro.pipeline.systems import (
    ExperimentError,
    available_scenarios,
    available_systems,
    get_scenario,
)
from repro.serve import SERVE_ENGINES, ServeError


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """Spec-shaped flags shared by ``run`` and ``compare``."""
    parser.add_argument("--scenario", choices=available_scenarios(),
                        help="start from a named spec preset")
    parser.add_argument("--dataset", choices=DATASET_KEYS, help="dataset key")
    parser.add_argument("--n-flows", type=int, dest="n_flows",
                        help="flows to generate for training")
    parser.add_argument("--seed", type=int, help="dataset/training seed")
    parser.add_argument("--depth", type=int,
                        help="total tree depth D (splidt/topk/pforest; the "
                             "search baselines pick their own)")
    parser.add_argument("--k", type=int, dest="features_per_subtree",
                        help="features per subtree (splidt) / top-k "
                             "(topk/pforest; the search baselines pick their own)")
    parser.add_argument("--partitions", type=int, dest="n_partitions",
                        help="number of partitions")
    parser.add_argument("--bit-width", type=int, dest="bit_width",
                        choices=(8, 16, 32), help="feature precision in bits")
    parser.add_argument("--target", help="hardware target (tofino1, tofino2, ...)")
    parser.add_argument("--target-flows", type=int, dest="target_flows",
                        help="concurrent-flow target for feasibility/baseline search")
    parser.add_argument("--replay-flows", type=int, dest="replay_flows",
                        help="replay only the first N flows (0 = all)")
    parser.add_argument("--flow-slots", type=int, dest="flow_slots",
                        help="register slots of the simulated program")


def _spec_from_args(args: argparse.Namespace, *, system: str | None = None) -> ExperimentSpec:
    """Build a validated spec from CLI flags (scenario preset first)."""
    spec = get_scenario(args.scenario) if args.scenario else ExperimentSpec()
    overrides = {}
    for name in ("dataset", "n_flows", "seed", "depth", "features_per_subtree",
                 "n_partitions", "bit_width", "target", "target_flows",
                 "replay_flows", "flow_slots"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if overrides.get("replay_flows") == 0:
        overrides["replay_flows"] = None
    if system is not None:
        overrides["system"] = system
    # Flag-level depth/partition overrides invalidate a preset's explicit sizes.
    if {"depth", "n_partitions"} & set(overrides):
        overrides.setdefault("partition_sizes", None)
    serve_overrides = {}
    for flag, field_name in (("serve_engine", "engine"),
                             ("workers", "workers"), ("spawn_method", "spawn_method"),
                             ("ring_slots", "ring_slots"),
                             ("chunk_size", "chunk_size"), ("backpressure", "backpressure")):
        value = getattr(args, flag, None)
        if value is not None:
            serve_overrides[field_name] = value
    online_overrides = {}
    if getattr(args, "online", False):
        online_overrides["enabled"] = True
    for flag, field_name in (("drift_window", "window"),
                             ("min_retrain_flows", "min_retrain_flows"),
                             ("cooldown_flows", "cooldown_flows")):
        value = getattr(args, flag, None)
        if value is not None:
            online_overrides[field_name] = value
    if online_overrides:
        serve_overrides["online"] = spec.serve.online.replace(**online_overrides)
    if serve_overrides:
        overrides["serve"] = spec.serve.replace(**serve_overrides)
    return spec.replace(**overrides).validate()


def format_result(result: ExperimentResult) -> str:
    """Human-readable report of one experiment."""
    spec = result.spec
    lines = [
        f"experiment        : {spec.system} on {spec.dataset} "
        f"({spec.n_flows} flows, seed {spec.seed}, target {spec.target})",
        f"offline test F1   : {result.offline_report.f1_score:.3f} "
        f"(accuracy {result.offline_report.accuracy:.3f})",
    ]
    if result.model_summary.get("n_subtrees"):
        lines.append(f"subtrees trained  : {result.model_summary['n_subtrees']}")
    if result.model_summary.get("n_features_used") is not None:
        lines.append(f"features used     : {result.model_summary['n_features_used']}")
    if result.resources is not None:
        lines.append(f"TCAM entries      : {result.resources.tcam_entries}")
        lines.append(f"max concurrent    : {format_max_flows(result.resources.max_flows)} flows")
    if result.feasibility is not None:
        lines.append(
            f"feasible @ {spec.target_flows:,}: {result.feasibility.feasible}"
        )
    if result.replay_result is not None:
        replay = result.replay_result
        lines.append(f"replayed          : {len(replay.verdicts)} flows")
        lines.append(f"data-plane F1     : {replay.report.f1_score:.3f}")
        if result.ttd:
            lines.append(
                f"TTD median / p99  : {result.ttd['median'] * 1e3:.1f} ms / "
                f"{result.ttd['p99'] * 1e3:.1f} ms"
            )
        if result.recirculation:
            lines.append(
                f"recirculation     : {int(result.recirculation.get('packets', 0))} packets "
                f"({result.recirculation.get('utilisation', 0.0) * 100:.5f}% of the path)"
            )
    else:
        lines.append("replayed          : no (system has no data-plane program)")
    stage_times = "  ".join(
        f"{name}={seconds:.2f}s" for name, seconds in result.timings.items()
        if name != "report"
    )
    lines.append(f"stage timings     : {stage_times}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args, system=args.system)
    experiment = Experiment(spec)
    result = experiment.run()
    print(format_result(result))
    if args.out:
        path = save_run(experiment, args.out)
        print(f"artifacts saved   : {path}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    experiment = load_run(args.run_dir)
    overrides = {}
    if args.replay_flows is not None:
        overrides["replay_flows"] = args.replay_flows or None
    if overrides:
        restored_stages = experiment.restored_stages
        restored = {"train": experiment.train()}
        if "compile" in restored_stages:
            restored["compile"] = experiment.compile()
        experiment = Experiment(experiment.spec.replace(**overrides))
        for name, value in restored.items():
            experiment.restore_stage(name, value)
        experiment.restored_stages = restored_stages
    print(f"loaded run        : {args.run_dir} "
          f"(restored stages: {', '.join(experiment.restored_stages)})")
    result = experiment.run()
    print(format_result(result))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args, system=args.system)
    experiment = Experiment(spec)
    controller = None
    if spec.serve.online.enabled:
        if spec.system != "splidt":
            print("error: --online requires the splidt system (retraining "
                  "targets partitioned trees)", file=sys.stderr)
            return 2
        from repro.online import OnlineController

        dataset = experiment.prepare().dataset
        controller = OnlineController(
            config=spec.serve.online,
            model_config=spec.model_config(),
            flow_slots=spec.flow_slots,
            class_names=dataset.class_names,
        )
    engine = experiment.serve_engine()
    serve = spec.serve
    parallelism = ""
    if serve.engine == "sharded-mp":
        parallelism = (f", {serve.workers} worker processes"
                       + (f" ({serve.spawn_method})" if serve.spawn_method else ""))
    online_note = ", online loop" if controller else ""
    print(f"serving           : {spec.system} on {spec.dataset} "
          f"({serve.engine} engine{parallelism}, chunks of {serve.chunk_size} pkts"
          f"{online_note})")

    reported = np.empty(0, dtype=np.int64)
    alarms_reported = 0
    started = time.perf_counter()
    engine.open()
    try:
        for index, chunk in enumerate(experiment.packet_stream(), start=1):
            engine.ingest(chunk)
            if controller is not None:
                swap = controller.observe_chunk(engine, chunk)
                alarms_reported = _emit_online_events(controller, alarms_reported)
                if swap is not None:
                    print(f"model swap        : epoch {swap.epoch} after "
                          f"{controller.n_verdicts} verdicts "
                          f"({swap.latency_s * 1e3:.1f} ms build, "
                          f"{swap.pinned_flows} in-flight flows pinned to the "
                          f"old model)")
            if args.digests:
                reported = _emit_digests(engine, reported)
            if args.progress_every and index % args.progress_every == 0:
                print(_progress_line(index, engine.stats()))
        engine.drain()
        if controller is not None:
            controller.poll(engine, allow_swap=False)
            _emit_online_events(controller, alarms_reported)
        if args.digests:
            _emit_digests(engine, reported)
        result = engine.close()
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    stats = engine.stats()
    rate = stats.packets / elapsed if elapsed > 0 else 0.0
    print(f"stream complete   : {stats.packets} packets in {stats.chunks} chunks "
          f"({elapsed * 1e3:.1f} ms, {rate:,.0f} pkt/s)")
    print(f"flows decided     : {len(result.verdicts)}/{stats.flows_seen} "
          f"(accuracy {stats.accuracy:.3f}, data-plane F1 {result.report.f1_score:.3f})")
    if stats.ttd:
        print(f"TTD median / p99  : {stats.ttd['median'] * 1e3:.1f} ms / "
              f"{stats.ttd['p99'] * 1e3:.1f} ms")
    if result.recirculation:
        print(f"recirculation     : {int(result.recirculation.get('packets', 0))} packets "
              f"({result.recirculation.get('utilisation', 0.0) * 100:.5f}% of the path)")
    if controller is not None:
        summary = controller.summary()
        latencies = ", ".join(f"{s * 1e3:.1f} ms" for s in summary["swap_latency_s"])
        print(f"online loop       : {summary['drift_alarms']} drift alarm(s), "
              f"{summary['swaps']} swap(s)"
              + (f" (latency {latencies})" if latencies else "")
              + f", final state {summary['state']}")
    return 0


def _emit_online_events(controller, reported: int) -> int:
    """Print online-loop drift alarms that appeared since the last call."""
    events = [e for e in controller.events if e.kind == "drift"]
    for event in events[reported:]:
        print(f"drift alarm       : fired after {event.n_verdicts} verdicts "
              f"(windowed error rate {event.error_rate:.3f}); buffering "
              "labelled flows for retrain")
    return len(events)


def _progress_line(chunk_index: int, stats) -> str:
    """One rolling-statistics line of the serving loop."""
    line = (f"chunk {chunk_index:>5}  pkts {stats.packets:>8}  "
            f"decided {stats.flows_decided:>5}/{stats.flows_seen:<5}  "
            f"acc {stats.accuracy:.3f}")
    if stats.ttd.get("median"):
        line += f"  ttd_p50 {stats.ttd['median'] * 1e3:.1f}ms"
    if stats.recirculation:
        line += f"  recirc {int(stats.recirculation.get('packets', 0))}"
    if stats.buffered_packets:
        line += f"  buffered {stats.buffered_packets}"
    return line


def _emit_digests(engine, reported: np.ndarray) -> np.ndarray:
    """Print the verdict digests that appeared since the last call, in flow-id order.

    ``reported`` holds the flow ids already printed (ascending); returns
    the flow ids printed so far.
    """
    verdicts = engine.verdicts()
    fresh = fresh_rows(verdicts, reported)
    columns = (verdicts.flow_ids, verdicts.labels, verdicts.time_to_detection(),
               verdicts.n_recirculations, verdicts.early_exit)
    for flow_id, label, ttd, recirc, early_exit in zip(
        *(column[fresh].tolist() for column in columns)
    ):
        print(f"digest  flow {flow_id:>6}  class {label:>3}  "
              f"ttd {ttd * 1e3:8.2f}ms  recirc {recirc}"
              + ("  early-exit" if early_exit else ""))
    return verdicts.flow_ids


def _cmd_online_demo(args: argparse.Namespace) -> int:
    from repro.online import run_phase_change_demo

    result = run_phase_change_demo(
        dataset=args.dataset,
        train_flows=args.train_flows,
        serve_flows=args.serve_flows,
        seed=args.seed,
        shift_at=args.shift_at,
        engine=args.serve_engine,
        chunk_size=args.chunk_size,
        flow_slots=args.flow_slots,
    )
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        static, online = result["static"], result["online"]
        print(f"phase-change demo : {result['dataset']}, "
              f"{result['serve_flows']} flows, shift at {result['shift_at']:.0%} "
              f"({args.serve_engine} engine)")
        print(f"static model      : F1 {static['pre_f1']:.3f} pre-shift -> "
              f"{static['post_f1']:.3f} post-shift (drop {static['drop']:.3f})")
        for event in result["events"]:
            if event["kind"] == "drift":
                print(f"drift alarm       : after {event['n_verdicts']} verdicts "
                      f"(windowed error rate {event['error_rate']:.3f})")
            elif event["kind"] == "swap":
                print(f"model swap        : epoch {event['epoch']} after "
                      f"{event['n_verdicts']} verdicts "
                      f"({event['latency_s'] * 1e3:.1f} ms build, "
                      f"{event['retrain_flows']} retrain flows, "
                      f"{event['pinned_flows']} in-flight flows pinned)")
        print(f"online model      : F1 {online['post_swap_f1']:.3f} on the "
              f"{online['post_swap_flows']} post-swap flows "
              f"(recovery gap {online['recovery_gap']:.3f} vs pre-shift)")
        print(f"pre-swap verdicts : "
              + ("bit-identical to the no-swap replay"
                 if result["pre_swap_bit_identical"]
                 else "DIVERGED from the no-swap replay"))
    if args.assert_recovery:
        ok = (result["static_drop_ok"] and result["recovered"]
              and result["pre_swap_bit_identical"])
        if not ok:
            print("error: recovery assertion failed "
                  f"(static_drop_ok={result['static_drop_ok']}, "
                  f"recovered={result['recovered']}, "
                  f"pre_swap_bit_identical={result['pre_swap_bit_identical']})",
                  file=sys.stderr)
            return 1
        print("recovery asserted : static collapse, online recovery and "
              "pre-swap bit-exactness all hold")
    return 0


def _scenario_result_row(result) -> list[str]:
    ttd = "-" if result.median_ttd != result.median_ttd else f"{result.median_ttd * 1e3:.1f}"
    return [
        result.scenario,
        f"{result.occupancy:.2f}x",
        f"{result.n_flows:,}",
        f"{result.accuracy:.3f}",
        f"{result.decided_fraction:.3f}",
        ttd,
        f"{result.evictions:,}",
    ]


_SCENARIO_HEADER = ["Scenario", "Occupancy", "Flows", "Accuracy",
                    "Decided", "Median TTD (ms)", "Evictions"]


def _cmd_scenario_list(args: argparse.Namespace) -> int:
    from repro.scenarios import WORKLOAD_SCENARIOS

    rows = []
    for name in sorted(WORKLOAD_SCENARIOS):
        spec = WORKLOAD_SCENARIOS[name]
        layers = ", ".join(layer.kind for layer in spec.layers) or "-"
        rows.append([
            name, spec.dataset, f"{spec.traffic_flows:,}", layers,
            spec.eviction, "yes" if spec.streamed else "no",
            "yes" if spec.bounds is not None else "no",
        ])
    print(render_table(
        ["Name", "Dataset", "Legit flows", "Layers", "Eviction", "Streamed",
         "Bounded"],
        rows,
    ))
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        ScenarioError,
        get_workload_scenario,
        run_scenario,
        WORKLOAD_SCENARIOS,
    )

    if args.name is not None:
        names = [args.name]
    else:
        # No name: the CI smoke shape — every catalog scenario that defines
        # degradation bounds.
        names = [name for name in sorted(WORKLOAD_SCENARIOS)
                 if WORKLOAD_SCENARIOS[name].bounds is not None]
        if not names:
            print("error: no bounded scenarios in the catalog", file=sys.stderr)
            return 2
    try:
        scenarios = [get_workload_scenario(name) for name in names]
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = []
    results = []
    for scenario in scenarios:
        result = run_scenario(
            scenario,
            flow_slots=args.flow_slots,
            traffic_flows=args.traffic_flows,
        )
        results.append(result)
        if args.assert_bounds:
            failures.extend(
                f"{scenario.name}: {problem}"
                for problem in result.violations(scenario.bounds)
            )
    if args.json:
        print(json.dumps([result.to_dict() for result in results], indent=2))
    else:
        print(render_table(_SCENARIO_HEADER,
                           [_scenario_result_row(r) for r in results]))
        for result in results:
            if result.streamed and result.materialised_estimate:
                print(f"{result.scenario}: streamed replay, peak RSS "
                      f"{result.peak_rss_bytes / 2**20:.0f} MiB vs "
                      f"{result.materialised_estimate / 2**20:.0f} MiB materialised")
    if args.assert_bounds:
        if failures:
            for failure in failures:
                print(f"error: {failure}", file=sys.stderr)
            return 1
        print("degradation bounds asserted : "
              + ", ".join(r.scenario for r in results))
    return 0


def _cmd_scenario_sweep(args: argparse.Namespace) -> int:
    from repro.scenarios import ScenarioError, get_workload_scenario, sweep_occupancy

    try:
        scenario = get_workload_scenario(args.name)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    factors = tuple(float(part) for part in args.factors.split(","))
    results = sweep_occupancy(scenario, flow_slots=args.flow_slots, factors=factors)
    if args.json:
        print(json.dumps([result.to_dict() for result in results], indent=2))
    else:
        print(render_table(_SCENARIO_HEADER,
                           [_scenario_result_row(r) for r in results]))
    return 0


def _parse_range(raw: str, *, flag: str) -> tuple[int, int]:
    """``"2,16"`` -> ``(2, 16)`` with a CLI-shaped error."""
    parts = [part.strip() for part in raw.split(",")]
    if len(parts) != 2:
        raise SpecError(f"{flag} expects 'lo,hi', got {raw!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise SpecError(f"{flag} expects integers, got {raw!r}") from exc


def _cmd_dse(args: argparse.Namespace) -> int:
    from repro.core.dse import DesignSearch
    from repro.datasets import DatasetStore, load_dataset

    spec = _spec_from_args(args)
    dse = spec.dse
    overrides = {}
    for flag, field_name in (("iterations", "iterations"),
                             ("batch_size", "batch_size"), ("method", "method")):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field_name] = value
    for flag in ("depth_range", "k_range", "partitions_range"):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[flag] = _parse_range(value, flag="--" + flag.replace("_", "-"))
    if overrides:
        dse = dse.replace(**overrides)
    spec = spec.replace(dse=dse).validate()
    dse = spec.dse

    dataset = load_dataset(spec.dataset, n_flows=spec.n_flows, seed=spec.seed)
    store = DatasetStore(dataset, random_state=spec.seed)
    search = DesignSearch(
        store,
        target=spec.target_spec(),
        depth_range=dse.depth_range,
        k_range=dse.k_range,
        partitions_range=dse.partitions_range,
        bit_width=spec.bit_width,
        seed=spec.seed,
    )
    if not args.json:
        print(f"design search     : {spec.dataset} ({spec.n_flows} flows, seed "
              f"{spec.seed}), {dse.iterations} iterations x batch {dse.batch_size}, "
              f"{dse.method} method")
    result = search.run(dse.iterations, batch_size=dse.batch_size, method=dse.method)

    front = result.pareto_candidates()
    if args.json:
        print(json.dumps({
            "dataset": spec.dataset,
            "n_flows": spec.n_flows,
            "seed": spec.seed,
            "method": dse.method,
            "wall_time_s": result.wall_time,
            "history": [
                {
                    "depth": c.config.depth,
                    "k": c.config.features_per_subtree,
                    "partition_sizes": list(c.config.partition_sizes),
                    "f1": c.f1_score,
                    "test_f1": c.report.f1_score,
                    "max_flows": c.max_flows,
                }
                for c in result.history
            ],
            "pareto": [
                {
                    "depth": c.config.depth,
                    "k": c.config.features_per_subtree,
                    "partition_sizes": list(c.config.partition_sizes),
                    "f1": c.f1_score,
                    "test_f1": c.report.f1_score,
                    "max_flows": c.max_flows,
                }
                for c in front
            ],
        }, indent=2))
        return 0
    rows = [
        [
            str(c.config.depth),
            str(c.config.features_per_subtree),
            "/".join(str(size) for size in c.config.partition_sizes),
            f"{c.f1_score:.3f}",
            f"{c.report.f1_score:.3f}",
            f"{c.max_flows:,}",
            f"{c.rules.n_entries:,}",
        ]
        for c in front
    ]
    print(render_table(
        ["Depth", "k", "Partitions", "Val F1", "Test F1", "Max flows", "Rules"], rows
    ))
    timings = result.mean_timings()
    print(f"evaluated         : {len(result.history)} candidates "
          f"({len(front)} on the Pareto front)")
    print(f"wall-clock        : {result.wall_time:.2f}s")
    print(f"mean stage times  : fetch={timings.fetch:.3f}s "
          f"train={timings.training:.3f}s rulegen={timings.rulegen:.3f}s "
          f"backend={timings.backend:.3f}s optimizer={timings.optimizer:.3f}s")
    return 0


def _cmd_list_datasets(args: argparse.Namespace) -> int:
    rows = []
    for key in DATASET_KEYS:
        summary = dataset_summary(key)
        rows.append([summary["key"], summary["source"], str(summary["classes"]),
                     summary["description"]])
    print(render_table(["Key", "Source", "Classes", "Description"], rows))
    print(f"\nsystems   : {', '.join(available_systems())}")
    print(f"scenarios : {', '.join(available_scenarios())}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    systems = [name.strip() for name in args.systems.split(",") if name.strip()]
    #: Every JSON row carries this full key set (None when unavailable), so
    #: consumers never need to branch on row shape.
    empty_record = {
        "error": None, "offline_f1": None, "offline_accuracy": None,
        "replay_f1": None, "replay_flows": 0, "ttd_median_s": None,
        "ttd_p99_s": None, "recirculation_packets": None, "max_flows": None,
        "tcam_entries": None, "feasible": None,
    }
    rows = []
    records = []
    for system in systems:
        spec = _spec_from_args(args, system=system)
        try:
            result = Experiment(spec).run()
        except ExperimentError as exc:
            rows.append([system, "infeasible", "-", "-", "-", str(exc)])
            records.append({**empty_record, "system": system, "error": str(exc)})
            continue
        replayed = result.replay_result is not None
        rows.append([
            system,
            f"{result.offline_report.f1_score:.3f}",
            f"{result.replay_result.report.f1_score:.3f}" if replayed else "-",
            f"{result.ttd['median'] * 1e3:.1f}" if result.ttd else "-",
            format_max_flows(result.resources.max_flows) if result.resources else "-",
            "-" if result.feasibility is None
            else ("yes" if result.feasibility.feasible else "no"),
        ])
        records.append({
            **empty_record,
            "system": system,
            "offline_f1": result.offline_report.f1_score,
            "offline_accuracy": result.offline_report.accuracy,
            "replay_f1": result.replay_result.report.f1_score if replayed else None,
            "replay_flows": len(result.replay_result.verdicts) if replayed else 0,
            "ttd_median_s": result.ttd.get("median") if result.ttd else None,
            "ttd_p99_s": result.ttd.get("p99") if result.ttd else None,
            "recirculation_packets": result.recirculation.get("packets"),
            "max_flows": result.resources.max_flows if result.resources else None,
            "tcam_entries": result.resources.tcam_entries if result.resources else None,
            "feasible": result.feasibility.feasible if result.feasibility else None,
        })
    if args.json:
        base_spec = _spec_from_args(args)
        print(json.dumps(
            {
                "dataset": base_spec.dataset,
                "n_flows": base_spec.n_flows,
                "seed": base_spec.seed,
                "target": base_spec.target,
                "target_flows": base_spec.target_flows,
                "rows": records,
            },
            indent=2,
        ))
        return 0
    print(render_table(
        ["System", "Offline F1", "Replay F1", "Median TTD (ms)", "Max flows",
         f"Feasible @ {_spec_from_args(args).target_flows:,}"],
        rows,
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SpliDT experiment pipeline: dataset -> train -> compile -> "
                    "deploy -> replay -> report",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment end to end")
    _add_spec_arguments(run)
    run.add_argument("--system", default="splidt", choices=available_systems(),
                     help="system under test (default: splidt)")
    run.add_argument("--out", help="save the run directory (artifacts) here")
    run.set_defaults(func=_cmd_run)

    replay = sub.add_parser("replay", help="replay a saved run without retraining")
    replay.add_argument("run_dir", help="run directory produced by `run --out`")
    replay.add_argument("--replay-flows", type=int, dest="replay_flows",
                        help="override the replayed flow count (0 = all)")
    replay.set_defaults(func=_cmd_replay)

    serve = sub.add_parser(
        "serve",
        help="stream packets through a deployed model (rolling stats + digests)")
    _add_spec_arguments(serve)
    serve.add_argument("--system", default="splidt", choices=available_systems(),
                       help="system under test (default: splidt)")
    serve.add_argument("--serve-engine", dest="serve_engine", choices=SERVE_ENGINES,
                       help="inference engine (default: spec's, microbatch)")
    serve.add_argument("--workers", type=int,
                       help="worker processes for the sharded-mp engine")
    serve.add_argument("--spawn-method", dest="spawn_method",
                       choices=("fork", "spawn", "forkserver"),
                       help="process start method for sharded-mp "
                            "(default: the platform's)")
    serve.add_argument("--ring-slots", type=int, dest="ring_slots",
                       help="slots per worker ring of sharded-mp "
                            "(its backpressure bound)")
    serve.add_argument("--chunk-size", type=int, dest="chunk_size",
                       help="packets per ingested chunk")
    serve.add_argument("--backpressure", type=int,
                       help="buffered-packet limit before ingestion blocks/errors")
    serve.add_argument("--progress-every", type=int, default=8, dest="progress_every",
                       help="print rolling stats every N chunks (0 = quiet)")
    serve.add_argument("--digests", action="store_true",
                       help="print each verdict digest as it is emitted")
    serve.add_argument("--online", action="store_true",
                       help="attach the online loop: Page-Hinkley drift "
                            "detection, retraining, model hot-swap")
    serve.add_argument("--drift-window", type=int, dest="drift_window",
                       help="sliding window of the rolling error-rate monitor")
    serve.add_argument("--min-retrain-flows", type=int, dest="min_retrain_flows",
                       help="labelled flows buffered after an alarm before "
                            "the retrain + swap fires")
    serve.add_argument("--cooldown-flows", type=int, dest="cooldown_flows",
                       help="verdicts to skip after a swap before monitoring resumes")
    serve.set_defaults(func=_cmd_serve)

    online_demo = sub.add_parser(
        "online-demo",
        help="phase-change demo: drift hits, the online loop detects, "
             "retrains and hot-swaps")
    online_demo.add_argument("--dataset", choices=DATASET_KEYS, default="D7",
                             help="dataset profile (default: D7)")
    online_demo.add_argument("--flows", type=int, default=600, dest="serve_flows",
                             help="flows in the drifting serve stream")
    online_demo.add_argument("--train-flows", type=int, default=360, dest="train_flows",
                             help="flows the static model is trained on")
    online_demo.add_argument("--seed", type=int, default=7, help="generator seed")
    online_demo.add_argument("--shift-at", type=float, default=0.5, dest="shift_at",
                             help="stream fraction where behaviour rotates")
    online_demo.add_argument("--serve-engine", dest="serve_engine",
                             choices=SERVE_ENGINES, default="microbatch",
                             help="inference engine (default: microbatch)")
    online_demo.add_argument("--chunk-size", type=int, default=64, dest="chunk_size",
                             help="packets per ingested chunk")
    online_demo.add_argument("--flow-slots", type=int, default=8192, dest="flow_slots",
                             help="register slots of the data-plane program")
    online_demo.add_argument("--json", action="store_true",
                             help="emit the full machine-readable result")
    online_demo.add_argument("--assert-recovery", action="store_true",
                             dest="assert_recovery",
                             help="exit non-zero unless the static model "
                                  "collapses, the online loop recovers, and "
                                  "pre-swap verdicts are bit-identical")
    online_demo.set_defaults(func=_cmd_online_demo)

    scenario = sub.add_parser(
        "scenario",
        help="adversarial workload suite: hostile traffic against a deployed model")
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)

    scenario_list = scenario_sub.add_parser("list", help="list the workload catalog")
    scenario_list.set_defaults(func=_cmd_scenario_list)

    scenario_run = scenario_sub.add_parser(
        "run", help="train clean, replay one hostile workload, report degradation")
    scenario_run.add_argument("name", nargs="?",
                              help="catalog scenario (default: every bounded one)")
    scenario_run.add_argument("--flow-slots", type=int, default=1024,
                              dest="flow_slots",
                              help="register slots of the attacked program")
    scenario_run.add_argument("--traffic-flows", type=int, dest="traffic_flows",
                              help="override the legitimate flow count")
    scenario_run.add_argument("--assert-degradation-bounds", action="store_true",
                              dest="assert_bounds",
                              help="exit non-zero unless each scenario stays "
                                   "within its catalog bounds (the CI smoke)")
    scenario_run.add_argument("--json", action="store_true",
                              help="emit machine-readable results")
    scenario_run.set_defaults(func=_cmd_scenario_run)

    scenario_sweep = scenario_sub.add_parser(
        "sweep", help="replay a workload across an occupancy sweep of the table")
    scenario_sweep.add_argument("name", help="catalog scenario name")
    scenario_sweep.add_argument("--flow-slots", type=int, default=256,
                                dest="flow_slots",
                                help="register slots (the sweep's 1.0x point)")
    scenario_sweep.add_argument("--factors", default="0.5,1,2,4,8",
                                help="comma-separated occupancy factors")
    scenario_sweep.add_argument("--json", action="store_true",
                                help="emit machine-readable results")
    scenario_sweep.set_defaults(func=_cmd_scenario_sweep)

    dse = sub.add_parser(
        "dse",
        help="design-space search over (depth, k, partitions)")
    _add_spec_arguments(dse)
    dse.add_argument("--iterations", type=int,
                     help="candidate evaluations (default: spec's, 24)")
    dse.add_argument("--batch-size", type=int, dest="batch_size",
                     help="proposals per optimiser iteration (default: 4)")
    dse.add_argument("--method", choices=("bayesian", "random"),
                     help="search method (default: bayesian)")
    dse.add_argument("--depth-range", dest="depth_range", metavar="LO,HI",
                     help="total-depth bounds (default: 2,16)")
    dse.add_argument("--k-range", dest="k_range", metavar="LO,HI",
                     help="features-per-subtree bounds (default: 1,6)")
    dse.add_argument("--partitions-range", dest="partitions_range",
                     metavar="LO,HI", help="partition-count bounds (default: 1,5)")
    dse.add_argument("--json", action="store_true",
                     help="emit machine-readable history and Pareto front")
    dse.set_defaults(func=_cmd_dse)

    list_datasets = sub.add_parser("list-datasets",
                                   help="list datasets, systems and scenarios")
    list_datasets.set_defaults(func=_cmd_list_datasets)

    compare = sub.add_parser("compare", help="run several systems and tabulate")
    _add_spec_arguments(compare)
    compare.add_argument("--systems", default="splidt,netbeacon",
                         help="comma-separated system names (default: splidt,netbeacon)")
    compare.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON rows instead of a table")
    compare.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, ExperimentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
