"""The per-packet interpreter is the oracle, not a path.

Outside ``replay_dataset(engine="reference")`` and
:class:`~repro.serve.StreamingEngine`, nothing reaches
``SpliDTDataPlane.process_packet``, and nothing turns the slot state the
batched planes hand over into ``_FlowState`` objects (``_settle``): a later
call resumes from the hand-over columns, spoofed flow sizes replay through
the planes, and the micro-batch engine's dirty slots are resumed like any
other held slot.
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
from repro.dataplane import SpliDTDataPlane
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


@pytest.fixture
def oracle_calls(monkeypatch):
    """Calls of ``process_packet`` and ``_settle``, on every program."""
    calls = {"process_packet": 0, "_settle": 0}
    for name in calls:
        method = getattr(SpliDTDataPlane, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(SpliDTDataPlane, name, counted)
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
    assert oracle_calls == {"process_packet": 0, "_settle": 0}


def test_only_the_streaming_engine_feeds_the_interpreter():
    """Under ``src/``, ``_replay_positions`` is referenced by ``serve/streaming.py`` alone."""
    referencing = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if name == "_replay_positions":
                referencing.add(path.relative_to(SRC).as_posix())
    assert referencing == {"serve/streaming.py"}


def test_the_advertised_size_replay_is_gone():
    """Spoofed sizes replay through ``replay_arrays(sizes=)``: the per-packet detour is deleted."""
    robustness = importlib.import_module("repro.analysis.robustness")
    assert not hasattr(robustness, "replay_with_advertised_sizes")
