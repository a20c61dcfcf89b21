#!/usr/bin/env python3
"""Reachability by execution: every function and method under ``src/repro``
is entered by something other than a test, or is kept for a checked reason.

Usage (from the repository root; CI job ``reachability-scan``)::

    python tools/reachability_scan.py

The scan runs each command of :data:`ENTRY_POINTS` (the examples, the tools,
the CLI runs CI makes and more, the benchmark harness, and ``benchmarks/``
under ``--benchmark-disable``) as a subprocess with
``tools/reachability_hook`` first on ``PYTHONPATH``.  Its ``sitecustomize``
installs a profile hook in every Python process those commands start,
workers included, and records each code object under ``src/repro`` that the
process enters.  Every command must exit 0.

A code object is matched to a module-level function or a method (at any
class depth) by its file and first line; a decorated function's first line
is its first decorator's.  Dunder methods are exempt: Python calls them.
Classes are checked by name in ``tests/test_reachability.py``.

A function or method that no entry point enters is deleted, or kept on
:data:`KEPT` with one reason of :data:`REASONS` and a witness: a tier-1
test that enters it, which the scan runs under the same hook.  An
``abstract`` entry has no witness; instead every concrete subclass under
``src/`` overrides it.  A kept entry that an entry point enters is stale
and fails the scan too.  Two limits: ``tools/profile_replay.py`` replaces
the hook with cProfile while it profiles, and a process that clears its
profile hook stops recording.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
HOOK = Path(__file__).resolve().parent / "reachability_hook"

#: What each kept entry is kept for.  ``input``: a value in the input (a
#: model feature, a spec field, tied timestamps) selects the path, and no
#: entry point's input does.
REASONS = ("reference", "abstract", "error-path", "input", "opt-in")

_PY = sys.executable
_CLI = (_PY, "-m", "repro")
_D3 = ("--dataset", "D3")
_SERVE = (*_CLI, "serve", *_D3, "--n-flows", "200", "--replay-flows", "120", "--chunk-size", "64")
_DSE = (*_CLI, "dse", *_D3, "--n-flows", "160", "--seed", "5", "--iterations", "6",
        "--batch-size", "3", "--depth-range", "2,8", "--partitions-range", "1,3")
_SCENARIOS = ("ddos-eviction-smoke", "ddos-flood", "evasion-spoof", "flash-crowd",
              "heavy-hitter", "million-flow-streamed", "table-pressure")
_WORKLOADS = ("clean-replay", "pressure-replay", "flood-streamed", "serve-microbatch",
              "serve-mp", "dse-search")

#: Every command the scan runs, from the repository root; ``{out}`` is a
#: scratch directory of the scan.
ENTRY_POINTS: tuple[tuple[str, ...], ...] = (
    (_PY, "examples/quickstart.py"),
    (_PY, "examples/vpn_detection_dataplane.py"),
    (_PY, "examples/iot_intrusion_detection.py"),
    (_PY, "examples/design_space_exploration.py"),
    (_PY, "tools/check_docs.py", "--links", "--snippets"),
    (_PY, "tools/profile_replay.py", "--flows", "300", "--top", "5"),
    (_PY, "tools/profile_replay.py", "--online", *_D3, "--flows", "300", "--depth", "6",
     "--partitions", "3", "--top", "5", "--json", "-"),
    (_PY, "tools/profile_replay.py", "--scenario", "ddos-eviction-smoke", "--flow-slots", "128",
     "--top", "5", "--json", "{out}/profile.json"),
    (_PY, "tools/profile_replay.py", "--serve", "--flows", "300", "--top", "5",
     "--json", "{out}/serve.json"),
    (*_CLI, "run", *_D3, "--n-flows", "200", "--out", "{out}/ci-run"),
    (*_CLI, "replay", "{out}/ci-run"),
    (*_CLI, "run", "--scenario", "quickstart", "--system", "netbeacon"),
    (*_CLI, "list-datasets"),
    (*_SERVE, "--serve-engine", "microbatch", "--digests"),
    (*_SERVE, "--serve-engine", "sharded-mp", "--workers", "2", "--progress-every", "0"),
    (*_SERVE, "--serve-engine", "sharded-mp", "--workers", "2", "--spawn-method", "spawn"),
    (*_CLI, "serve", "--dataset", "D7", "--n-flows", "600", "--online", "--chunk-size", "64",
     "--progress-every", "1", "--digests"),
    (*_CLI, "online-demo", "--json", "--assert-recovery"),
    (*_CLI, "online-demo", "--serve-engine", "sharded-mp"),
    (*_CLI, "compare", *_D3, "--n-flows", "140", "--systems", "splidt,netbeacon,leo,per_packet",
     "--target-flows", "500000", "--json"),
    (*_CLI, "compare", *_D3, "--n-flows", "200", "--systems",
     "splidt,netbeacon,leo,per_packet,topk,pforest", "--json"),
    (*_CLI, "compare", *_D3, "--n-flows", "200"),
    _DSE,
    (*_DSE, "--json"),
    (*_DSE, "--method", "random"),
    (*_CLI, "scenario", "list"),
    (*_CLI, "scenario", "run", "--assert-degradation-bounds"),
    *((*_CLI, "scenario", "run", name, "--json") for name in _SCENARIOS),
    (*_CLI, "scenario", "sweep", "table-pressure", "--flow-slots", "64", "--factors", "0.5,2"),
    *((_PY, "benchmarks/perf/run.py", "--workload", name, "--seed", "7", "--seconds", "1",
       "--trace", "1") for name in _WORKLOADS),
    (_PY, "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks", "--benchmark-disable"),
)

_FLOWMETER = ("tests/test_features_flowmeter.py::TestBatchedKernelMatchesReference"
              "::test_random_flows")
_STREAMING_SWAP = ("tests/test_serve_swap.py::TestSameModelSwapInvisible"
                   "::test_mid_stream_swap[8192-streaming]")
_OPERATOR = ("tests/test_features_stateful.py::TestOperatorsMatchFlowMeter"
             "::test_operator_equals_offline_value")

#: Functions and methods no entry point enters, each with its reason and the
#: tier-1 test that enters it (``None`` for ``abstract``).  ``reference``: a
#: test compares live code against it (the per-packet oracle's parts, the
#: per-flow feature extractor, node-by-node tree growth, the per-byte CRC,
#: the prefix expansion).
KEPT: dict[str, tuple[str, str | None]] = {
    # reference
    "repro.core.partitioned_tree:PartitionedDecisionTree._predict_single": (
        "reference", "tests/test_core_range_marking.py::TestRuleGeneration"
        "::test_classify_agrees_with_tree_on_training_data"),
    "repro.dataplane.oracle:_reopen_windows": (
        "reference", "tests/test_slot_stream_plane.py::test_held_open_window_is_resumed"),
    "repro.dataplane.vectorized:_WindowAggregator.compute": (
        "reference", "tests/test_window_kernels.py::TestRoundFill"
        "::test_fill_equals_compute_feature_by_feature"),
    "repro.features.flowmeter:FlowMeter.extract_windows": ("reference", _FLOWMETER),
    "repro.features.flowmeter:FlowMeter.extract_flow": ("reference", _FLOWMETER),
    "repro.features.flowmeter:FlowMeter.extract_per_packet": ("reference", _FLOWMETER),
    "repro.features.flowmeter:FlowMeter._window_vector": ("reference", _FLOWMETER),
    "repro.features.flowmeter:FlowMeter._fill_stateless": ("reference", _FLOWMETER),
    "repro.features.flowmeter:FlowMeter._set_value": ("reference", _FLOWMETER),
    "repro.features.flowmeter:FlowMeter._burst_stats": ("reference", _FLOWMETER),
    "repro.features.window:split_packets": ("reference", _FLOWMETER),
    "repro.ml._tree:Tree.add_node": (
        "reference", "tests/test_ml_splitter.py::TestTreeGrowth"
        "::test_trees_grow_node_for_node_like_the_oracle"),
    "repro.ml._tree:Tree.set_children": (
        "reference", "tests/test_ml_splitter.py::TestTreeGrowth"
        "::test_trees_grow_node_for_node_like_the_oracle"),
    "repro.ml._tree:Tree._apply_row": (
        "reference", "tests/test_ml_tree.py::TestClassifierStructure"
        "::test_apply_equals_the_per_row_descent"),
    "repro.ml._tree:Tree.decision_path": (
        "reference", "tests/test_ml_tree.py::TestClassifierStructure"
        "::test_apply_equals_the_per_row_descent"),
    "repro.serve.streaming:StreamingEngine._successor_engine": ("reference", _STREAMING_SWAP),
    "repro.serve.streaming:StreamingEngine._swap_table_size": ("reference", _STREAMING_SWAP),
    "repro.serve.engine:InferenceEngine._buffered_packet_count": ("reference", _STREAMING_SWAP),
    "repro.switch.hashing:crc32_reference": (
        "reference", "tests/test_switch_hashing.py::TestCrc32::test_matches_reference_implementation"),
    "repro.switch.tcam:range_to_ternary": (
        "reference", "tests/test_core_range_marking.py::TestMarkTable"
        "::test_prefix_cover_size_is_the_expansion_length"),
    "repro.switch.tcam:TernaryMatch.matches": (
        "reference", "tests/test_switch_tcam.py::TestRangeToTernary"
        "::test_expansion_covers_exactly_the_range"),
    # abstract
    "repro.pipeline.systems:System.train": ("abstract", None),
    "repro.pipeline.systems:System.offline_report": ("abstract", None),
    "repro.pipeline.systems:System.compile": ("abstract", None),
    "repro.pipeline.systems:System.resources": ("abstract", None),
    "repro.pipeline.systems:System.build_program": ("abstract", None),
    "repro.serve.engine:InferenceEngine._engine_verdicts": ("abstract", None),
    "repro.serve.engine:InferenceEngine._ingest": ("abstract", None),
    "repro.serve.engine:InferenceEngine._drain": ("abstract", None),
    "repro.serve.engine:InferenceEngine._successor_engine": ("abstract", None),
    "repro.serve.engine:InferenceEngine._swap_table_size": ("abstract", None),
    "repro.switch.eviction:EvictionPolicy.should_evict": ("abstract", None),
    "repro.features.stateful:StatefulOperator.update": ("abstract", None),
    # error-path
    "repro.datasets.flows:PacketArraysWriter.abort": (
        "error-path", "tests/test_scenarios.py::TestTrafficLayers"
        "::test_a_failed_streamed_build_leaves_no_spill_directory"),
    "repro.datasets.streams:StreamedPacketWriter.abort": (
        "error-path", "tests/test_scenarios.py::TestTrafficLayers"
        "::test_a_failed_streamed_build_leaves_no_spill_directory"),
    "repro.serve.engine:InferenceEngine._check_ties": (
        "error-path", "tests/test_serve_window_time.py::TestStreamOrder"
        "::test_ties_out_of_flow_id_order_rejected"),
    "repro.serve.process_sharded:ProcessShardedEngine._fail": (
        "error-path", "tests/test_serve_process_sharded.py::TestLifecycleAndTeardown"
        "::test_worker_crash_surfaces_and_releases_segment"),
    "repro.serve.process_sharded:_consume_until_stop": (
        "error-path", "tests/test_serve_process_sharded.py::TestLifecycleAndTeardown"
        "::test_a_worker_that_cannot_attach_reports_and_stops"),
    # input
    "repro.features.stateful:MinOperator.update": ("input", _OPERATOR + "[min_iat]"),
    "repro.features.stateful:RateOperator.update": ("input", _OPERATOR + "[pkt_rate]"),
}


# -- definitions --------------------------------------------------------------


def definitions(package: Path = PACKAGE) -> dict[tuple[str, int], str]:
    """``(file, first line) -> "module:Qual.name"`` of every checked definition.

    Module-level functions and methods at any class depth; dunders are
    exempt.  The first line is the first decorator's, as in ``co_firstlineno``.
    """
    found = {}
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        file = os.path.realpath(path)

        def walk(body, prefix):
            for node in body:
                if isinstance(node, ast.ClassDef):
                    walk(node.body, f"{prefix}{node.name}.")
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (node.name.startswith("__") and node.name.endswith("__")):
                        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                        found[file, first] = f"{module}:{prefix}{node.name}"

        walk(ast.parse(path.read_text()).body, "")
    return found


# -- running under the hook ---------------------------------------------------


def run_hooked(
    commands, out: Path, package: Path = PACKAGE, cwd: Path = ROOT, log=None
) -> list[tuple[tuple[str, ...], int]]:
    """Run each command with the hook recording into ``out``; the ones that failed."""
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HOOK), os.path.realpath(package.parent)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["REACHABILITY_SCAN_ROOT"] = os.path.realpath(package)
    env["REACHABILITY_SCAN_OUT"] = str(out)
    failed = []
    for command in commands:
        command = tuple(part.replace("{out}", str(out)) for part in command)
        started = time.perf_counter()
        done = subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True)
        if log is not None:
            print(f"[{time.perf_counter() - started:6.1f} s] exit {done.returncode}: "
                  f"{' '.join(command)}", file=log, flush=True)
        if done.returncode != 0:
            failed.append((command, done.returncode))
            if log is not None:
                print((done.stdout + done.stderr)[-3000:], file=log, flush=True)
    return failed


def entered(out: Path) -> set[tuple[str, int]]:
    """``(file, first line)`` of every code object any hooked process entered."""
    seen = set()
    for record in out.rglob("*.txt"):
        for line in record.read_text().splitlines():
            file, _, first = line.rpartition("\t")
            seen.add((os.path.realpath(file), int(first)))
    return seen


def never_entered(seen: set[tuple[str, int]], package: Path = PACKAGE) -> list[str]:
    """The checked definitions (see :func:`definitions`) no recorded process entered."""
    return sorted(name for key, name in definitions(package).items() if key not in seen)


# -- the kept table -----------------------------------------------------------


def _resolve(qualified: str):
    module, _, qual = qualified.partition(":")
    owner = importlib.import_module(module)
    *path, name = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def abstract_problems(qualified: str) -> list[str]:
    """Why an ``abstract`` entry does not hold: a concrete subclass inherits it."""
    base, name = _resolve(qualified)
    root = base.__module__.partition(".")[0]
    package = importlib.import_module(root)
    for info in pkgutil.walk_packages(package.__path__, f"{root}."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    subclasses, stack = [], list(base.__subclasses__())
    while stack:
        cls = stack.pop()
        if cls.__module__.partition(".")[0] == root and cls not in subclasses:
            subclasses.append(cls)
            stack.extend(cls.__subclasses__())
    if not subclasses:
        return [f"{qualified}: no subclass under src/"]
    problems = []
    for cls in subclasses:
        owner = next(k for k in cls.__mro__ if name in vars(k))
        if owner is base and not inspect.isabstract(cls):
            problems.append(f"{qualified}: {cls.__module__}:{cls.__qualname__} inherits it")
    return problems


def witness_problems(kept, out: Path, log=None) -> list[str]:
    """Run each witness under the hook; the entries their witness does not enter."""
    names = {name: key for key, name in definitions().items()}
    problems = []
    witnesses = sorted({witness for reason, witness in kept.values() if reason != "abstract"})
    for i, witness in enumerate(witnesses):
        where = out / f"witness-{i}"
        failed = run_hooked([(_PY, "-m", "pytest", "-q", "-p", "no:cacheprovider", witness)],
                            where, log=log)
        if failed:
            problems.append(f"witness {witness} failed")
            continue
        seen = entered(where)
        for qualified, (reason, w) in kept.items():
            if w == witness and names.get(qualified) not in seen:
                problems.append(f"{qualified}: its witness {witness} does not enter it")
    return problems


def main() -> int:
    started = time.perf_counter()
    sys.path.insert(0, str(PACKAGE.parent))
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        out = Path(scratch)
        failed = run_hooked(ENTRY_POINTS, out / "entry", log=sys.stdout)
        for command, code in failed:
            print(f"FAILED (exit {code}): {' '.join(command)}")
        unentered = set(never_entered(entered(out / "entry")))
        problems = [f"never entered (delete it, or keep it on KEPT): {name}"
                    for name in sorted(unentered - set(KEPT))]
        problems += [f"kept but entered (drop it from KEPT): {name}"
                     for name in sorted(set(KEPT) - unentered)]
        problems += [f"{name}: unknown reason {reason!r}"
                     for name, (reason, _) in KEPT.items() if reason not in REASONS]
        for name, (reason, _) in sorted(KEPT.items()):
            if reason == "abstract":
                problems += abstract_problems(name)
        problems += witness_problems(KEPT, out, log=sys.stdout)
    for problem in problems:
        print(problem)
    print(f"{len(ENTRY_POINTS)} entry points, {len(failed)} failed; {len(unentered)} never "
          f"entered, {len(KEPT)} kept; {len(problems)} problems; "
          f"{time.perf_counter() - started:.0f} s")
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
