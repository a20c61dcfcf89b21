"""The benchmark harness: one command, every workload, one result schema.

Two ways to run it, both from the repository root::

    # every workload, each in its own fresh process, results under --out
    python benchmarks/perf/run.py --seed 7 --out <dir> [--trace]

    # one workload in a fresh process (what the full run spawns per workload)
    python benchmarks/perf/run.py --workload clean-replay --seed 7 \
        --seconds 3 --trace 0

A run prints every metric by name with its unit and ends with one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See ``README.md`` next to this file for what each one means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
ROOT = _HERE.parents[1]


def _supervised(argv: list[str]) -> int:
    """``--workload``: measure in a child and clear up after it here.

    Whatever way the child ends, the processes it left are stopped
    (``supervise.py``) and the files it spilled are removed.
    """
    from perf.supervise import supervise

    # Spilled traffic stays inside the checkout, and goes when the run ends.
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        return supervise([sys.executable, *argv, "--in-process", tmp_dir])
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run's files are still there
            scratch.rmdir()


if __name__ == "__main__":
    # One BLAS/OpenMP thread: the library is timed, not the thread pool.  Set
    # before NumPy loads; sharded-mp workers inherit it.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT / 'src' / 'repro'} not found: the benchmark runs from a full checkout")
    # Siblings import as the ``perf`` package, so ``trace.py`` here can never
    # shadow the standard library's ``trace``.
    sys.path[0] = str(_HERE.parent)
    sys.path.insert(1, str(ROOT / "src"))
    if any(arg.startswith("--workload") for arg in sys.argv[1:]) and "--in-process" not in sys.argv:
        sys.exit(_supervised(sys.argv))

import numpy as np  # noqa: E402

from perf.calibrate import Calibrator, slowdown  # noqa: E402
from perf.trace import HARNESS_SPANS, LayerView, Tracer  # noqa: E402
from perf.workloads import WORKLOADS, Workload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}


def quartiles(values: list[float]) -> dict[str, float]:
    """Median, first and third quartile, and sample count of ``values``."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def host_fingerprint() -> dict:
    """What the numbers were taken on (attached to every result)."""
    from repro.dataplane import kernels

    # Read, not asked of git: a run starts no process it does not need.
    try:
        rev = (ROOT / ".git" / "HEAD").read_text().strip()
        if rev.startswith("ref: "):
            rev = (ROOT / ".git" / rev[5:]).read_text().strip()
    except OSError:
        rev = ""
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": kernels.backend(),
        "machine": platform.machine(),
        "git_rev": rev or "unknown",
    }


def _cpu_seconds() -> tuple[float, float]:
    """CPU seconds of this process and of its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time(), children.ru_utime + children.ru_stime


def _shm_residue() -> int:
    try:
        return sum(1 for entry in os.listdir("/dev/shm") if entry.startswith("splidt-"))
    except OSError:
        return 0


def _measure(
    workload: Workload, tracer: Tracer, calibrator: Calibrator, seconds: float, min_units: int
) -> dict:
    """Time units back to back for ``seconds`` (at least ``min_units``).

    The calibration kernel samples the host's speed throughout the window;
    ``nominal`` is each unit's seconds at the speed measured while it ran.
    """
    times: list[float] = []
    spans: list[tuple[float, float]] = []
    busy = self_cpu = children_cpu = 0.0
    with calibrator.sampling(deferred=workload.runs_workers) as samples:
        started = time.perf_counter()
        while len(times) < min_units or time.perf_counter() - started < seconds:
            calibrator.checkpoint()
            cpu_before, wall_before = _cpu_seconds(), time.perf_counter()
            times.append(workload.unit(tracer))
            spans.append((wall_before, time.perf_counter()))
            busy += spans[-1][1] - wall_before
            cpu_after = _cpu_seconds()
            self_cpu += cpu_after[0] - cpu_before[0]
            children_cpu += cpu_after[1] - cpu_before[1]
        wall_s = time.perf_counter() - started
    return {
        "times": times,
        "nominal": [t / slowdown(samples, *span) for t, span in zip(times, spans)],
        "slowdown": slowdown(samples),
        "kernel_s": [seconds for _, seconds in samples],
        "wall_s": wall_s,
        "busy_s": busy,
        "self_cpu_s": self_cpu,
        "children_cpu_s": children_cpu,
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    tiny: bool = False,
    tmp_dir: Path,
) -> dict:
    """Run one workload in this process and return its full result.

    Untraced (``trace=False``): set up, time units for ``seconds``, verify.
    Traced: the wrappers of ``trace.py`` are on during set-up, off for the
    first half of the window (the untraced reference for
    ``trace.overhead_pct``) and on for the second half, whose spans give the
    per-layer numbers.  Spilled workload files go under ``tmp_dir``.
    """
    previous_tmp = tempfile.tempdir
    tempfile.tempdir = str(tmp_dir)
    tracer = Tracer()
    calibrator = Calibrator()
    workload = WORKLOADS[name](seed, tiny=tiny)
    workload.clock = calibrator.clock
    try:
        started = calibrator.clock()
        with calibrator.sampling() as setup_samples:
            if trace:
                tracer.install()
            workload.setup(tracer)
        with calibrator.sampling(deferred=workload.runs_workers) as warmup_samples:
            cold = []
            for _ in range(workload.warmups):
                cold.append(workload.unit(tracer))
                calibrator.checkpoint()
            tracer.uninstall()
            # The generated traffic is millions of small objects; left tracked,
            # every full collection re-walks them mid-unit (a ~0.4 s stall
            # every few units).  They are input, not the program's garbage.
            gc.collect()
            gc.freeze()
        setup_wall_s = calibrator.clock() - started
        setup_slowdown = slowdown(setup_samples + warmup_samples)

        # A traced run splits window and minimum between its two halves, so
        # that it takes as long as an untraced one.
        if trace:
            seconds, min_units = seconds / 2, max(workload.min_units // 2, 1)
        else:
            min_units = workload.min_units
        plain = _measure(workload, tracer, calibrator, seconds, min_units)
        traced = None
        if trace:
            tracer.phase = "window"
            tracer.install()
            traced = _measure(workload, tracer, calibrator, seconds, min_units)
            tracer.uninstall()
        # This process plus its largest reaped child (a sharded-mp worker),
        # so that state moved into workers still counts.
        peak_rss_mib = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        ) / 1024

        workload.finish()
        verification = workload.verify()
    finally:
        tracer.uninstall()
        gc.unfreeze()
        workload.close()
        tempfile.tempdir = previous_tmp

    # Wall-clock seconds become seconds at nominal host speed (calibrate.py).
    unit = quartiles(plain["nominal"])
    items = workload.n_items
    end_to_end = {
        "setup_s": {"value": setup_wall_s / setup_slowdown},
        "items_per_s": {
            "value": items / unit["median"],
            "q1": items / unit["q3"],
            "q3": items / unit["q1"],
        },
        "verdict_lag_items_p50": {"value": workload.lag_items[0]},
        "verdict_lag_items_p99": {"value": workload.lag_items[1]},
        "peak_rss_mib": {"value": peak_rss_mib},
    }
    result = {
        "workload": name,
        "seed": seed,
        "tiny": tiny,
        "traced": trace,
        "window_s": plain["wall_s"] + (traced["wall_s"] if traced else 0.0),
        "items_per_unit": workload.n_items,
        "setup_wall_s": setup_wall_s,
        "setup_slowdown": setup_slowdown,
        "window_slowdown": plain["slowdown"],
        "warmups": workload.warmups,
        "units_n": unit["n"],
        "unit_s": quartiles(plain["times"]),
        "unit_nominal_s": unit,
        "unit_times_s": plain["times"],
        "kernel_times_s": plain["kernel_s"],
        "cold_unit_s": cold,
        "end_to_end": _with_units(end_to_end, END_TO_END),
        "ops_attempted": verification.attempted,
        "ops_failed": verification.failed,
        "failed_share": verification.failed / max(verification.attempted, 1),
        "digest": verification.digest,
        "notes": verification.notes,
        "counts": workload.counts,
        "shm_residue_n": _shm_residue(),
    }
    if trace:
        layers = _layer_metrics(tracer, workload, plain, traced, cold)
        result["per_layer"] = _with_units({k: {"value": v} for k, v in layers.items()}, PER_LAYER)
        result["unresolved_spans"] = tracer.unresolved
        result["spans"] = tracer.dump()
    return result


def _with_units(metrics: dict, catalogue: dict) -> dict:
    """Attach each metric's unit; the names must be exactly the catalogue's."""
    if set(metrics) != set(catalogue):
        raise RuntimeError(
            f"metrics out of step with BENCHMARK.json: "
            f"missing {sorted(set(catalogue) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(catalogue))}"
        )
    return {name: {**metrics[name], "unit": catalogue[name]["unit"]} for name in catalogue}


def _layer_metrics(
    tracer: Tracer, workload: Workload, plain: dict, traced: dict, cold: list[float]
) -> dict[str, float | None]:
    """Every per-layer metric of ``BENCHMARK.json`` for one traced run.

    ``<span>_s`` and ``<span>_calls`` read straight off the span table;
    everything else is spelled out below.
    """
    units = len(traced["times"])
    view = LayerView(tracer, units)
    spans = {target.span for target in tracer.table} | set(HARNESS_SPANS)
    plain_median = statistics.median(plain["times"])
    flush_calls = view.calls("serve.flush")
    flush_flows = view.counter("serve.flush_flows", "serve.flush")
    ingest = tracer.durations("serve.ingest", "window")
    scalar_flows = view.counter("dataplane.scalar_flows", "dataplane.scalar")
    scalar_packets = view.counter("dataplane.scalar_packets", "dataplane.scalar")

    def share(count, total):
        if count is None:
            return None
        return count / total if total else 0.0

    special = {
        "datasets.stream_spill_mib": workload.extras.get("stream_spill_mib", 0.0),
        "core.dse_cache_hits_n": workload.counts.get("core.dse_cache_hits_n", 0),
        "switch.evictions_n": workload.counts.get("switch.evictions_n", 0),
        "switch.recirc_packets_n": workload.counts.get("switch.recirc_packets_n", 0),
        "dataplane.cold_replay_s": cold[0] if cold else 0.0,
        "dataplane.scalar_flows_n": scalar_flows,
        "dataplane.scalar_packets_n": scalar_packets,
        "dataplane.scalar_flow_share": share(scalar_flows, workload.n_flows),
        "dataplane.scalar_packet_share": share(scalar_packets, workload.n_items),
        "core.classify_batch_rows": view.counter("core.classify_batch_rows", "core.classify_batch"),
        "serve.ingest_p99_ms": (
            None
            if "serve.ingest" in tracer.unresolved
            else float(np.percentile(ingest, 99)) * 1e3 if ingest else 0.0
        ),
        "serve.flush_flows_mean": share(flush_flows, flush_calls),
        "serve.verdict_lag_ms_p50": workload.lag_ms[0],
        "serve.verdict_lag_ms_p99": workload.lag_ms[1],
        "serve.ring_producer_stalls_n": workload.extras.get("ring_producer_stalls", 0.0),
        "serve.ring_consumer_stalls_n": workload.extras.get("ring_consumer_stalls", 0.0),
        "serve.ring_occupancy_max": workload.extras.get("ring_occupancy_max", 0.0),
        "serve.shard_packet_skew": workload.extras.get("shard_packet_skew", 0.0),
        "serve.parent_cpu_s": traced["self_cpu_s"] / units,
        "serve.children_cpu_s": traced["children_cpu_s"] / units,
        "proc.cpu_util": (plain["self_cpu_s"] + plain["children_cpu_s"]) / plain["busy_s"],
        "proc.unit_s": plain_median,
        "proc.host_slowdown": plain["slowdown"],
        "proc.units_n": units,
        "proc.shm_residue_n": _shm_residue(),
        "trace.overhead_pct": (
            statistics.median(traced["nominal"]) / statistics.median(plain["nominal"]) - 1.0
        )
        * 100.0,
        "trace.coverage_share": view.coverage(),
        "trace.unresolved_spans_n": len(tracer.unresolved),
    }
    metrics: dict[str, float | None] = {}
    for name in PER_LAYER:
        stem, _, kind = name.rpartition("_")
        if name in special:
            metrics[name] = special[name]
        elif kind == "s" and stem in spans:
            metrics[name] = view.self_s(stem)
        elif kind == "calls" and stem in spans:
            metrics[name] = view.calls(stem)
        else:
            raise RuntimeError(f"BENCHMARK.json names a per-layer metric nothing computes: {name}")
    return metrics


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def _print_metrics(result: dict, section: str) -> None:
    for name, metric in result[section].items():
        value = metric["value"]
        shown = "null (span unresolved)" if value is None else f"{value:.6g}"
        print(f"{result['workload']:<17} {name:<32} {shown} {metric['unit']}")


def _final_line(result: dict, section: str) -> str:
    """The one JSON object a run ends with (numbers only: ``None`` reads 0)."""
    metrics = {
        name: {"value": 0.0 if metric["value"] is None else metric["value"], "unit": metric["unit"]}
        for name, metric in result[section].items()
    }
    return json.dumps(
        {
            "correct": result["ops_failed"] == 0,
            "attempted": result["ops_attempted"],
            "failed": result["ops_failed"],
            "metrics": metrics,
        }
    )


def _stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Workers of a session that ended in an exception are still alive, and
    ``sharded-mp``'s shared memory starts multiprocessing's resource tracker,
    which only exits once this process has closed its pipe: left to interpreter
    shutdown it outlives the run, orphaned and never reaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    # Closes the pipe and waits for the tracker, which unlinks on its way out
    # whatever segment a failed session left behind.
    resource_tracker._resource_tracker._stop()


def _run_one(args) -> int:
    """``--workload --in-process DIR``: one workload in this (fresh) process."""
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), tmp_dir=Path(args.in_process)
        )
    finally:
        _stop_children()
    result["host"] = host_fingerprint()
    spans = result.pop("spans", None)
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(result, indent=1))
        if spans is not None:
            Path(args.json_out).with_suffix(".spans.json").write_text(json.dumps(spans))
    section = "per_layer" if args.trace else "end_to_end"
    _print_metrics(result, section)
    for note in result["notes"]:
        print(f"{args.workload}: VERIFY FAILED: {note}")
    print(
        f"{args.workload}: {result['units_n']} timed units, raw median "
        f"{result['unit_s']['median']:.6g} s at host slowdown {result['window_slowdown']:.3f}, "
        f"{result['ops_failed']}/{result['ops_attempted']} ops failed, digest {result['digest'][:16]}"
    )
    print(_final_line(result, section))
    return 0


def _run_all(args) -> int:
    """Full run: every workload, each in its own fresh child process."""
    out = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="splidt-perf-"))
    out.mkdir(parents=True, exist_ok=True)
    runs: dict[str, dict] = {}
    status = 0
    for name in WORKLOADS:
        runs[name] = {}
        for trace, label in enumerate(("untraced", "traced")[: 1 + args.trace]):
            json_out = out / f"{name}.{label}.json"
            child = subprocess.run(
                [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                    "--json-out", str(json_out),
                ],
                cwd=ROOT,
            )
            if child.returncode != 0 or not json_out.exists():
                print(f"{name} ({label}) exited with code {child.returncode}")
                status = 1
                continue
            runs[name][label] = json.loads(json_out.read_text())
            if runs[name][label]["ops_failed"]:
                status = 1
    result = {
        "seed": args.seed,
        "seconds": args.seconds,
        "host": host_fingerprint(),
        "shm_residue_n": _shm_residue(),
        "workloads": runs,
    }
    (out / "result.json").write_text(json.dumps(result, indent=1))
    print(f"wrote {out / 'result.json'}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run only this workload, in a supervised child process")
    parser.add_argument("--in-process", metavar="DIR", help="--workload: run it in this process, spilling under DIR (what the supervisor starts)")
    parser.add_argument("--seed", type=int, default=7, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=float(BENCHMARK["run_seconds"]), help="length of the timed window")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1), help="also (full run) or instead (--workload) take the per-layer numbers")
    parser.add_argument("--out", help="full run: directory for result.json (default: a fresh temp dir)")
    parser.add_argument("--json-out", help="--workload: also write the full result here")
    args = parser.parse_args(argv)

    knobs = sorted(key for key in os.environ if key.startswith("SPLIDT_"))
    if knobs:
        # They silently switch engine, transport and worker paths.
        print(f"refusing to run with {', '.join(knobs)} set", file=sys.stderr)
        return 2
    return _run_one(args) if args.workload else _run_all(args)


if __name__ == "__main__":
    sys.exit(main())
