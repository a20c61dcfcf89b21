"""The per-packet interpreter is the oracle, not a path.

It lives in :mod:`repro.dataplane.oracle`, which no batched module imports.
Outside ``oracle.replay_dataset`` and :class:`~repro.serve.StreamingEngine`,
nothing reaches ``PacketInterpreter.process_packet``, and nothing turns the
slot state the planes hand over into ``_FlowState`` objects
(``oracle.slot_states``): a later call resumes from the hand-over columns,
spoofed flow sizes replay through the planes, and the micro-batch engine's
dirty slots are resumed like any other held slot.
"""

from __future__ import annotations

import ast
import importlib
import random
from pathlib import Path

import numpy as np
import pytest

from repro import datasets
from repro.analysis import evaluate_flow_size_spoofing
from repro.dataplane import SpliDTDataPlane, oracle
from repro.dataplane import vectorized as vz
from repro.datasets.flows import Flow, PacketArrays
from repro.datasets.streams import iter_packet_chunks
from repro.pipeline.spec import ExperimentSpec
from repro.scenarios import (
    LayerSpec,
    available_workload_scenarios,
    get_workload_scenario,
    run_scenario,
)
from repro.scenarios.runner import prepare_system
from repro.serve import MicroBatchEngine
from repro.switch.eviction import make_eviction_policy

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The modules production replays and serving sessions run.
BATCHED_MODULES = (
    "dataplane/vectorized.py",
    "dataplane/slot_stream.py",
    "dataplane/splidt_program.py",
    "dataplane/kernels.py",
    "serve/engine.py",
    "serve/microbatch.py",
    "serve/process_sharded.py",
)

#: The interpreter and its operator bank.
ORACLE_MODULES = {"repro.dataplane.oracle", "repro.features.stateful"}


def _imported(path: Path) -> set[str]:
    """Every module (or ``module.name``) a source file imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


@pytest.fixture
def oracle_calls(monkeypatch):
    """Calls of ``PacketInterpreter.process_packet`` and ``oracle.slot_states``."""
    calls = {"process_packet": 0, "slot_states": 0}
    for owner, name in ((oracle.PacketInterpreter, "process_packet"), (oracle, "slot_states")):
        function = getattr(owner, name)

        def counted(*args, _name=name, _function=function):
            calls[_name] += 1
            return _function(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


def _split_replays(model, rules):
    """``test_parity_fuzz_split_replay``'s ``replay_arrays+replay_arrays`` leg, every fixed seed."""
    from test_parity_fuzz import FIXED_SEEDS, _random_eviction_policy, _random_trace

    for seed in FIXED_SEEDS:
        flows, table_size = _random_trace(random.Random(seed), 2 if seed % 4 == 0 else None)
        eviction = (
            _random_eviction_policy(random.Random(0xE51C7 + seed)) if seed % 2 else None
        )
        soa = PacketArrays.from_flows(flows)
        order = soa.interleave_order
        cut = random.Random(seed + 1).randint(0, order.size) if order.size else 0
        taken = np.bincount(soa.packet_flow[order[:cut]], minlength=len(flows)).tolist()
        program = SpliDTDataPlane(model, rules, flow_slots=table_size, eviction=eviction)
        for side in (lambda packets, n: packets[:n], lambda packets, n: packets[n:]):
            vz.replay_arrays(program, [
                Flow(five_tuple=flow.five_tuple, packets=side(flow.packets, n),
                     label=flow.label, class_name=flow.class_name, flow_id=flow.flow_id)
                for flow, n in zip(flows, taken)
            ])


def _micro_batch_sessions(model, rules):
    """Contended sessions: D3, 2000 flows, 64/1024 slots, 256/2048-packet chunks."""
    dataset = datasets.load_dataset("D3", n_flows=2000, seed=7)
    for flow_slots in (64, 1024):
        for chunk_size in (256, 2048):
            program = SpliDTDataPlane(
                model, rules, flow_slots=flow_slots,
                eviction=make_eviction_policy("idle-timeout", timeout=0.1),
            )
            engine = MicroBatchEngine(program).open()
            for chunk in iter_packet_chunks(dataset, chunk_size):
                engine.ingest(chunk)
            engine.drain()
            result = engine.close()
            assert result.verdicts and program.eviction_stats()["evictions"] > 0


def _downsized(scenario):
    """A catalog scenario at tier-1 scale: fewer legitimate and flood flows."""
    layers = tuple(
        LayerSpec(layer.kind, {**layer.params, "flows": min(layer.params["flows"], 256)})
        if layer.kind == "ddos-flood" else layer
        for layer in scenario.layers
    )
    return scenario.replace(traffic_flows=min(scenario.traffic_flows, 96), layers=layers)


def _catalog_scenarios():
    """``run_scenario`` on every catalog scenario, downsized, on a 64-slot table."""
    prepared = {}
    for name in available_workload_scenarios():
        scenario = _downsized(get_workload_scenario(name))
        if scenario.dataset not in prepared:
            prepared[scenario.dataset] = prepare_system(
                scenario, ExperimentSpec(n_flows=140, depth=6, features_per_subtree=3)
            )
        result = run_scenario(scenario, flow_slots=64, prepared=prepared[scenario.dataset])
        assert set(result.replay_stats["packets"]) == {"batched", "slot_stream"}, name
        assert sum(result.replay_stats["packets"].values()) == result.n_packets, name
        if name == "evasion-spoof":
            # Spoofed flow sizes take the slot-stream plane.
            assert result.replay_stats["packets"]["slot_stream"] > 0, name


def test_process_packet_is_reached_only_by_the_oracle(
    splidt_model, splidt_rules, small_dataset, oracle_calls
):
    _split_replays(splidt_model, splidt_rules)
    _micro_batch_sessions(splidt_model, splidt_rules)
    _catalog_scenarios()
    evaluate_flow_size_spoofing(
        splidt_model, splidt_rules, small_dataset.subset(np.arange(60)),
        scales=(1.0, 0.5, 4.0), flow_slots=64,
    )
    assert oracle_calls == {"process_packet": 0, "slot_states": 0}


def test_the_oracle_counter_sees_the_oracle(
    splidt_model, splidt_rules, small_dataset, oracle_calls
):
    """The counter above is live: an oracle replay is one call, its packets one each."""
    subset = small_dataset.subset(np.arange(20))
    oracle.replay_dataset(SpliDTDataPlane(splidt_model, splidt_rules), subset)
    n_packets = subset.packet_arrays().n_packets
    assert oracle_calls == {"process_packet": n_packets, "slot_states": 1}


def test_only_the_streaming_engine_feeds_the_interpreter():
    """Under ``src/``, the oracle is imported by ``serve/streaming.py`` alone.

    Its operator bank (``features/stateful.py``) is imported by the oracle
    alone, and ``process_packet`` is defined nowhere else.
    """
    importers = {
        module: {
            path.relative_to(SRC).as_posix()
            for path in SRC.rglob("*.py")
            if module in _imported(path)
        }
        for module in ORACLE_MODULES
    }
    assert importers == {
        "repro.dataplane.oracle": {"serve/streaming.py"},
        "repro.features.stateful": {"dataplane/oracle.py"},
    }
    defining = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == "process_packet"
    }
    assert defining == {"dataplane/oracle.py"}


@pytest.mark.parametrize("module", BATCHED_MODULES)
def test_batched_modules_do_not_import_the_oracle(module):
    assert not _imported(SRC / module) & ORACLE_MODULES


def test_the_advertised_size_replay_is_gone():
    """Spoofed sizes replay through ``replay_arrays(sizes=)``: the per-packet detour is deleted."""
    robustness = importlib.import_module("repro.analysis.robustness")
    assert not hasattr(robustness, "replay_with_advertised_sizes")


class _NoFlows:
    """A ``flows`` sequence of the right length that refuses to build a flow."""

    def __init__(self, n: int) -> None:
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        raise AssertionError(f"flow {index} was built")


@pytest.mark.parametrize("flow_slots", [64, 1 << 14])
def test_the_oracle_reads_packets_from_the_columns(
    splidt_model, splidt_rules, small_dataset, flow_slots
):
    """The streaming engine's interpreter never indexes ``chunk.flows``: same verdicts without it.

    Each packet is built from the columns at its position, its five-tuple
    from the flow's identity columns.
    """
    from repro.datasets.streams import PacketChunk
    from repro.serve import StreamingEngine

    soa = small_dataset.packet_arrays()

    def session(flows):
        program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=flow_slots)
        engine = StreamingEngine(program).open()
        for positions in soa.iter_chunks(997):
            engine.ingest(PacketChunk(soa=soa, flows=flows, positions=positions))
        result = engine.close()
        return dict(result.verdicts), result.recirculation, program.eviction_stats()

    want = session(small_dataset.flows)
    assert session(_NoFlows(soa.n_flows)) == want
    assert len(want[0]) > 100
