"""cProfile the vectorized replay of a bundled dataset.

Future perf PRs should start from data, not intuition: this tool trains and
compiles one SpliDT experiment, replays its traffic through
``replay_dataset`` under cProfile, and prints the top-N hot spots by
cumulative time.

Usage (from the repository root)::

    PYTHONPATH=src python tools/profile_replay.py
    PYTHONPATH=src python tools/profile_replay.py --dataset D6 --flows 800 \
        --depth 18 --partitions 2 --top 30
    PYTHONPATH=src python tools/profile_replay.py --sort tottime
    PYTHONPATH=src python tools/profile_replay.py --json profile.json
    PYTHONPATH=src python tools/profile_replay.py --online --swap-at 0.5
    PYTHONPATH=src python tools/profile_replay.py --serve --json -
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
``--serve`` profiles a plain ``microbatch`` session, no swap, in 2,048-packet
chunks (the benchmark harness's): the serving hot path as ``serve-microbatch``
runs it.

Every mode prints the window rounds both planes closed, with their rows
(windows) and kernel-family fill passes per round (``rounds`` in the JSON,
beside ``kernel_families``, the most passes one round can take).  A serving
session fills its windows once, into its window table (each window index at
the first round that reaches it), and its lockstep rounds gather from it:
``--serve`` and ``--online`` print the table builds with their rows, fill
passes and profiled milliseconds (``window_table`` in the JSON).

``--json`` writes a machine-readable summary (run parameters, elapsed time,
throughput, kernel backend, the replay's ``replay_stats`` — flows and packets
per plane, event rounds, window-boundary searches by stretch ``lookup`` and by
size-class ``index``, the slot state left ``deferred`` —, the ``counters``
snapshot of the program (merged over model epochs when ``--online``), swap
metrics when ``--online``,
and the top-N hot spots) so CI can diff the hot path of two revisions instead of
eyeballing pstats text.  Its ``setup`` block times what precedes any replay of
the spec's dataset — drawing the flows into their columns (``generate_s``),
reading the SoA columns off the dataset (``soa_build_s``, near zero: the
generator writes them) and naming the flows (``slot_hash_s``: slots and
tuple ids at ``--flow-slots``) — on a copy drawn for the purpose, outside the
profile.  Its ``memory`` block is the process's resident set in MiB (VmRSS
from ``/proc/self/status``; ``null`` where that file is absent) after the
``repro`` imports (``import_mib``) and after staging, just before the
profiled region (``setup_mib``), its peak over the run (``peak_mib``,
VmHWM), whether any ``scipy`` module was loaded (``scipy_loaded``:
only the design search needs one) and how many ``Packet`` objects were live
after staging (``packet_objects``: traffic is columns, so 0).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def resident_mib(field: str = "VmRSS") -> float | None:
    """``field`` of ``/proc/self/status`` (VmRSS now, VmHWM the peak) in MiB."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return round(int(line.split()[1]) / 1024, 1)
    except OSError:
        pass
    return None


def packet_objects() -> int:
    """Live :class:`~repro.datasets.flows.Packet` instances (a garbage-collector count)."""
    from repro.datasets.flows import Packet

    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is Packet)


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
    parser.add_argument("--serve", action="store_true",
                        help="profile a plain microbatch serve session (no "
                             "swap) instead of a replay")
    parser.add_argument("--serve-engine", default="microbatch",
                        choices=SERVE_ENGINES,
                        help="serve engine used by --online "
                             "(default microbatch)")
    parser.add_argument("--chunk-size", type=int, default=None,
                        help="packets per ingested chunk (default 256 with "
                             "--online, 2048 with --serve)")
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
    if sum((args.online, args.serve, args.scenario is not None)) > 1:
        parser.error("--online, --serve and --scenario are mutually exclusive")
    if args.chunk_size is None:
        args.chunk_size = 2048 if args.serve else 256

    from repro.dataplane import replay_dataset
    from repro.dataplane.kernels import backend as kernel_backend
    from repro.dataplane.vectorized import FAMILIES, WindowTable
    from repro.pipeline import Experiment, ExperimentSpec

    scenario = None
    if args.scenario:
        from repro.scenarios import get_workload_scenario

        scenario = get_workload_scenario(args.scenario)
    memory = {"import_mib": resident_mib()}

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
        memory["setup_mib"] = resident_mib()
        memory["packet_objects"] = packet_objects()
        replay_started = time.perf_counter()
        profiler.enable()
        replay_workload(program, workload)
        profiler.disable()
        elapsed = time.perf_counter() - replay_started
        legit = slice(workload.n_legit)
        result = build_replay_result(program.verdicts, workload.soa.flow_ids[legit],
                                     workload.soa.labels[legit],
                                     program.recirculation_stats())
        workload.close()
    elif args.online:
        from repro.datasets.streams import iter_packet_chunks
        from repro.serve import create_engine

        dataset = experiment.prepare().dataset
        n_packets = dataset.packet_arrays().n_packets
        chunks = list(iter_packet_chunks(dataset.flows, args.chunk_size))
        swap_chunk = max(1, min(len(chunks) - 1,
                                int(len(chunks) * args.swap_at)))
        factory = experiment.system.program_factory(model, rules, spec)
        serve = create_engine(factory, engine=args.serve_engine,
                              chunk_size=args.chunk_size)
        print(f"staged in {time.perf_counter() - started:.1f}s; profiling "
              f"{args.serve_engine} serve session ("
              f"{n_packets} packets, swap at chunk {swap_chunk}/{len(chunks)})",
              flush=True)
        memory["setup_mib"] = resident_mib()
        memory["packet_objects"] = packet_objects()
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
    elif args.serve:
        from repro.datasets.streams import iter_packet_chunks
        from repro.serve import create_engine

        dataset = experiment.prepare().dataset
        n_packets = dataset.packet_arrays().n_packets
        chunks = list(iter_packet_chunks(dataset.flows, args.chunk_size))
        serve = create_engine(
            lambda: experiment.system.build_program(model, rules, spec), engine="microbatch"
        )
        print(f"staged in {time.perf_counter() - started:.1f}s; profiling "
              f"microbatch serve session ({n_packets} packets in "
              f"{len(chunks)} chunks of {args.chunk_size})", flush=True)
        memory["setup_mib"] = resident_mib()
        memory["packet_objects"] = packet_objects()
        replay_started = time.perf_counter()
        profiler.enable()
        serve.open()
        for chunk in chunks:
            serve.ingest(chunk)
        result = serve.close()
        profiler.disable()
        elapsed = time.perf_counter() - replay_started
    else:
        dataset = experiment.prepare().dataset
        n_packets = dataset.packet_arrays().n_packets
        program = experiment.system.build_program(model, rules, spec)
        print(f"staged in {time.perf_counter() - started:.1f}s; profiling "
              f"replay ({n_packets} packets)", flush=True)
        memory["setup_mib"] = resident_mib()
        memory["packet_objects"] = packet_objects()
        replay_started = time.perf_counter()
        profiler.enable()
        result = replay_dataset(program, dataset)
        profiler.disable()
        elapsed = time.perf_counter() - replay_started

    memory["peak_mib"] = resident_mib("VmHWM")
    memory["scipy_loaded"] = any(name.split(".")[0] == "scipy" for name in sys.modules)
    stats = pstats.Stats(profiler)
    print(f"\nreplayed {len(result.verdicts)} verdicts "
          f"(data-plane F1 {result.report.f1_score:.3f})")
    # A serve session's programs belong to its engine: read their merged record.
    replay_stats = None
    if program is None:
        counters = serve.stats().counters
    else:
        counters = program.counters.snapshot()
        replay_stats = program.replay_stats
        search = replay_stats["event_search"]
        print(f"paths: packets {replay_stats['packets']}, "
              f"{replay_stats['lockstep_rounds']} lockstep window rounds, "
              f"{replay_stats['event_rounds']} slot-stream event rounds "
              f"(window boundaries: {search['lookup']} rows by stretch lookup, "
              f"{search['index']} by size-class index); "
              f"deferred {replay_stats['deferred']}")
    window_rounds = counters.get("dataplane.window_rounds", 0)
    rounds = {
        "window_rounds": window_rounds,
        "window_rows": counters.get("dataplane.window_rows", 0),
        "fill_passes": counters.get("dataplane.fill.passes", 0),
    }
    for name in ("window_rows", "fill_passes"):
        rounds[f"{name}_per_round"] = (
            round(rounds[name] / window_rounds, 3) if window_rounds else None
        )
    print(f"window rounds: {window_rounds}, {rounds['window_rows_per_round']} rows and "
          f"{rounds['fill_passes_per_round']} fill passes a round "
          f"(of {len(FAMILIES)} kernel families)")
    # Opening a table and building its windows (each at the first round
    # that reaches it): cumulative profiled seconds of both.
    build_s = 0.0
    for code in (WindowTable.__init__.__code__, WindowTable._build.__code__):
        profiled = stats.stats.get(  # type: ignore[attr-defined]
            (code.co_filename, code.co_firstlineno, code.co_name)
        )
        build_s += profiled[3] if profiled else 0.0
    window_table = {
        "builds": counters.get("dataplane.window_table.builds", 0),
        "rows": counters.get("dataplane.window_table.rows", 0),
        "fill_passes": counters.get("dataplane.window_table.passes", 0),
        "build_ms": round(build_s * 1e3, 3),
    }
    if window_table["builds"]:
        print(f"window table: {window_table['builds']} built, {window_table['rows']} rows "
              f"in {window_table['fill_passes']} fill passes, {window_table['build_ms']} ms "
              f"profiled; the serving lockstep rounds gather from it and fill only to build "
              f"a window")
    print(f"memory: import {memory['import_mib']} MiB, set-up "
          f"{memory['setup_mib']} MiB, peak {memory['peak_mib']} MiB; "
          f"scipy loaded: {memory['scipy_loaded']}")
    print("counters: " + ", ".join(f"{name} {value}" for name, value in sorted(counters.items())))
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
            "engine": (args.serve_engine if args.online
                       else "microbatch" if args.serve else None),
            "mode": ("scenario" if scenario is not None
                     else "online" if args.online
                     else "serve" if args.serve else "replay"),
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
            "rounds": rounds,
            "window_table": window_table,
            "kernel_families": len(FAMILIES),
            "counters": counters,
            "setup": setup,
            "memory": memory,
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
