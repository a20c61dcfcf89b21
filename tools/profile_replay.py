"""cProfile the vectorized replay of a bundled dataset.

Future perf PRs should start from data, not intuition: this tool trains and
compiles one SpliDT experiment, replays its traffic through the selected
engine under cProfile, and prints the top-N hot spots by cumulative time.

Usage (from the repository root)::

    PYTHONPATH=src python tools/profile_replay.py
    PYTHONPATH=src python tools/profile_replay.py --dataset D6 --flows 800 \
        --depth 18 --partitions 2 --top 30
    PYTHONPATH=src python tools/profile_replay.py --engine reference --sort tottime
    PYTHONPATH=src python tools/profile_replay.py --engine vectorized --json profile.json
    PYTHONPATH=src python tools/profile_replay.py --online --swap-at 0.5
    PYTHONPATH=src python tools/profile_replay.py --scenario ddos-eviction-smoke

The profiled region is *only* the replay (the program is built and the
lookup plane compiled beforehand), so the report shows the steady-state
serving cost — the part the paper claims runs at line rate.

``--scenario <name>`` profiles the replay of a catalog workload scenario
(:mod:`repro.scenarios`) instead of the clean dataset: the model still
trains on clean traffic, but the profiled replay carries the scenario's
adversarial layers and runs under its eviction policy — the hot path under
attack.

``--online`` profiles a serve-path session instead: the stream runs through
a :mod:`repro.serve` engine and a same-model ``swap_model`` is forced at the
``--swap-at`` fraction of the stream, so the report includes the swap's cost
— its build latency and how many packets were in flight when it landed.

``--json`` writes a machine-readable summary (run parameters, elapsed time,
throughput, kernel backend, the replay's ``replay_stats`` — flows and packets
per plane, event rounds, the slot state left ``deferred`` —,
``settle_s`` — seconds of one ``program.occupied_slots()`` after the replay,
outside the profile: what the next reader of slot state (a serving session's
next flush) pays for that deferred state —, swap metrics when ``--online``,
and the top-N hot spots) so CI can diff the hot path of two revisions instead of
eyeballing pstats text.  Its ``setup`` block times what precedes any replay of
the spec's dataset — drawing the flows (``generate_s``), building the SoA
columns (``soa_build_s``) and naming the flows (``slot_hash_s``: slots and
tuple ids at ``--flow-slots``) — on a copy drawn for the purpose, outside the
profile.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def measure_setup(spec) -> dict[str, float]:
    """Seconds to draw, columnise and hash ``spec``'s dataset, stage by stage."""
    from repro.datasets import load_dataset
    from repro.switch.hashing import flow_slots

    marks = [time.perf_counter()]
    dataset = load_dataset(spec.dataset, n_flows=spec.n_flows, seed=spec.seed)
    marks.append(time.perf_counter())
    soa = dataset.packet_arrays()
    marks.append(time.perf_counter())
    flow_slots(soa, spec.flow_slots, return_tuple_ids=True)
    marks.append(time.perf_counter())
    names = ("generate_s", "soa_build_s", "slot_hash_s")
    return {name: round(b - a, 6) for name, a, b in zip(names, marks, marks[1:])}


def main(argv: list[str] | None = None) -> int:
    from repro.dataplane.runtime import REPLAY_ENGINES
    from repro.serve import SERVE_ENGINES

    parser = argparse.ArgumentParser(
        description="cProfile the vectorized replay of a bundled dataset"
    )
    parser.add_argument("--dataset", default="D3", help="dataset key (default D3)")
    parser.add_argument("--flows", type=int, default=600,
                        help="flows to generate and replay (default 600)")
    parser.add_argument("--seed", type=int, default=7, help="dataset/training seed")
    parser.add_argument("--depth", type=int, default=12, help="tree depth D")
    parser.add_argument("--k", type=int, default=4, help="features per subtree")
    parser.add_argument("--partitions", type=int, default=3, help="partitions")
    parser.add_argument("--engine", default="vectorized", choices=REPLAY_ENGINES,
                        help="replay engine")
    parser.add_argument("--scenario",
                        help="profile the replay of a catalog workload "
                             "scenario (see `python -m repro scenario list`) "
                             "instead of the clean dataset")
    parser.add_argument("--flow-slots", type=int, default=None, dest="flow_slots",
                        help="register slots (default 65536; scenarios often "
                             "want fewer to create table pressure)")
    parser.add_argument("--online", action="store_true",
                        help="profile a serve-path session with a forced "
                             "mid-stream model swap instead of a plain replay")
    parser.add_argument("--swap-at", type=float, default=0.5,
                        help="stream fraction at which --online forces the "
                             "swap (default 0.5)")
    parser.add_argument("--serve-engine", default="microbatch",
                        choices=SERVE_ENGINES,
                        help="serve engine used by --online "
                             "(default microbatch)")
    parser.add_argument("--chunk-size", type=int, default=256,
                        help="packets per ingested chunk in --online mode "
                             "(default 256)")
    parser.add_argument("--top", type=int, default=25,
                        help="hot spots to print (default 25)")
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "ncalls"),
                        help="pstats sort key (default cumulative)")
    parser.add_argument("--out", help="also dump raw pstats data to this file")
    parser.add_argument("--json", dest="json_out",
                        help="write a machine-readable profile summary to this "
                             "file ('-' for stdout)")
    args = parser.parse_args(argv)
    if args.online and not 0.0 < args.swap_at < 1.0:
        parser.error("--swap-at must be strictly between 0 and 1")
    if args.online and args.scenario:
        parser.error("--online and --scenario are mutually exclusive")

    from repro.dataplane import replay_dataset
    from repro.dataplane.kernels import backend as kernel_backend
    from repro.pipeline import Experiment, ExperimentSpec

    scenario = None
    if args.scenario:
        from repro.scenarios import get_workload_scenario

        scenario = get_workload_scenario(args.scenario)

    spec = ExperimentSpec(
        dataset=scenario.dataset if scenario else args.dataset,
        n_flows=args.flows,
        seed=scenario.seed if scenario else args.seed,
        depth=args.depth,
        features_per_subtree=args.k,
        n_partitions=args.partitions,
        replay_flows=None,
        flow_slots=args.flow_slots or 65536,
        scenario=scenario,
    ).validate()

    setup = measure_setup(spec)
    print(f"set-up of {spec.dataset} ({spec.n_flows} flows): " + ", ".join(
        f"{name[:-2]} {seconds:.3f}s" for name, seconds in setup.items()), flush=True)
    experiment = Experiment(spec)
    print(f"preparing {spec.dataset} ({spec.n_flows} flows), training "
          f"D={spec.depth} k={spec.features_per_subtree} "
          f"P={spec.n_partitions} ...", flush=True)
    started = time.perf_counter()
    model, rules = experiment.train(), experiment.compile()
    profiler = cProfile.Profile()
    swap_event = None
    workload = None
    program = None

    if scenario is not None:
        from repro.dataplane.runtime import build_replay_result
        from repro.scenarios import build_workload
        from repro.scenarios.runner import replay_workload

        workload = build_workload(scenario)
        n_packets = workload.n_packets
        program = experiment.system.build_program(model, rules, spec)
        print(f"staged in {time.perf_counter() - started:.1f}s; profiling "
              f"scenario {scenario.name!r} replay ("
              f"{workload.n_flows} flows / {n_packets} packets, "
              f"eviction {scenario.eviction})", flush=True)
        replay_started = time.perf_counter()
        profiler.enable()
        replay_workload(program, workload)
        profiler.disable()
        elapsed = time.perf_counter() - replay_started
        labels = {fid: int(workload.soa.labels[fid])
                  for fid in range(workload.n_legit)}
        result = build_replay_result(program.verdicts, labels,
                                     program.recirculation_stats())
        workload.close()
    elif args.online:
        from repro.datasets.streams import iter_packet_chunks
        from repro.online.loop import OnlineProgramFactory
        from repro.serve import create_engine

        dataset = experiment.prepare().dataset
        n_packets = sum(flow.n_packets for flow in dataset.flows)
        chunks = list(iter_packet_chunks(dataset.flows, args.chunk_size))
        swap_chunk = max(1, min(len(chunks) - 1,
                                int(len(chunks) * args.swap_at)))
        factory = OnlineProgramFactory(model, rules, spec.flow_slots)
        serve = create_engine(factory, engine=args.serve_engine,
                              chunk_size=args.chunk_size)
        print(f"staged in {time.perf_counter() - started:.1f}s; profiling "
              f"{args.serve_engine} serve session ("
              f"{n_packets} packets, swap at chunk {swap_chunk}/{len(chunks)})",
              flush=True)
        replay_started = time.perf_counter()
        profiler.enable()
        serve.open()
        for index, chunk in enumerate(chunks):
            if index == swap_chunk:
                swap_event = serve.swap_model(factory)
            serve.ingest(chunk)
        result = serve.close()
        profiler.disable()
        elapsed = time.perf_counter() - replay_started
    else:
        dataset = experiment.prepare().dataset
        n_packets = sum(flow.n_packets for flow in dataset.flows)
        program = experiment.system.build_program(model, rules, spec)
        print(f"staged in {time.perf_counter() - started:.1f}s; profiling "
              f"{args.engine} replay ({n_packets} packets)", flush=True)
        replay_started = time.perf_counter()
        profiler.enable()
        result = replay_dataset(program, dataset, engine=args.engine)
        profiler.disable()
        elapsed = time.perf_counter() - replay_started

    stats = pstats.Stats(profiler)
    print(f"\nreplayed {len(result.verdicts)} verdicts "
          f"(data-plane F1 {result.report.f1_score:.3f})")
    # Left by ``replay_arrays`` (vectorized and scenario replays): which plane
    # the flows and packets took.
    replay_stats = getattr(program, "replay_stats", None)
    settle_s = None
    if replay_stats is not None:
        settle_started = time.perf_counter()
        program.occupied_slots()
        settle_s = round(time.perf_counter() - settle_started, 6)
        print(f"paths: packets {replay_stats['packets']}, "
              f"{replay_stats['event_rounds']} slot-stream event rounds "
              f"(boundary searches {replay_stats['event_search']}); "
              f"deferred {replay_stats['deferred']} settled in "
              f"{settle_s * 1e3:.2f} ms")
    if swap_event is not None:
        print(f"swap : epoch {swap_event.epoch} built in "
              f"{swap_event.latency_s * 1e3:.2f} ms with "
              f"{swap_event.buffered_packets} packets in flight; "
              f"{swap_event.pinned_flows} pinned flows on "
              f"{swap_event.pinned_slots} slots, "
              f"{swap_event.flows_started} flows started")
    stats.sort_stats(args.sort)
    stats.print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
        print(f"raw profile written to {args.out}")
    if args.json_out:
        hotspots = []
        stats.sort_stats("cumulative")
        for func in stats.fcn_list[: args.top]:  # type: ignore[attr-defined]
            cc, nc, tt, ct, _callers = stats.stats[func]  # type: ignore[attr-defined]
            filename, line, name = func
            hotspots.append({
                "function": f"{filename}:{line}({name})",
                "ncalls": nc,
                "tottime_s": round(tt, 6),
                "cumtime_s": round(ct, 6),
            })
        summary = {
            "engine": args.serve_engine if args.online else args.engine,
            "mode": ("scenario" if scenario is not None
                     else "online" if args.online else "replay"),
            "scenario": args.scenario,
            "dataset": spec.dataset,
            "flows": args.flows,
            "depth": args.depth,
            "k": args.k,
            "partitions": args.partitions,
            "seed": args.seed,
            "kernel_backend": kernel_backend(),
            "packets": n_packets,
            "elapsed_s": round(elapsed, 6),
            "packets_per_s": round(n_packets / elapsed, 1) if elapsed > 0 else None,
            "verdicts": len(result.verdicts),
            "f1": round(result.report.f1_score, 6),
            "replay_stats": replay_stats,
            "settle_s": settle_s,
            "setup": setup,
            "hotspots": hotspots,
        }
        if swap_event is not None:
            summary["swap"] = {
                "swap_at": args.swap_at,
                "epoch": swap_event.epoch,
                "swap_latency_s": round(swap_event.latency_s, 6),
                "buffered_packets": swap_event.buffered_packets,
                "pinned_flows": swap_event.pinned_flows,
                "pinned_slots": swap_event.pinned_slots,
                "flows_started": swap_event.flows_started,
            }
        payload = json.dumps(summary, indent=2)
        if args.json_out == "-":
            print(payload)
        else:
            Path(args.json_out).write_text(payload + "\n")
            print(f"json summary written to {args.json_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
