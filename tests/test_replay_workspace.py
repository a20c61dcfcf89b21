"""Lifecycle tests for :class:`repro.dataplane.vectorized.ReplayWorkspace`.

The fused window plane's performance claim rests on two properties pinned
here:

1. **Allocation-free steady state** — after the first replay sizes the
   buffers, further rounds and further replays reuse the *same* arrays
   (identities stable, ``reserve`` is a no-op), so the round loop allocates
   nothing per round.
2. **No state leaks** — a workspace carries scratch storage only: reusing
   one across replays (even of different datasets) yields bit-identical
   verdicts, digests and recirculation counters to a fresh workspace.
"""

from __future__ import annotations

import pytest

from repro.dataplane import SpliDTDataPlane
from repro.dataplane import vectorized as vz
from repro.datasets.flows import FiveTuple, Flow, Packet, PacketArrays
from repro.features.definitions import FEATURES

_BUFFERS = (
    "matrix", "sids", "round_sids", "live", "iota", "fast_live",
    "seg_start", "seg_end", "scratch_idx", "flow_ids",
    "boundary_ts", "first_ts", "iat_acc", "iat_sq",
)


def _buffer_addresses(workspace: vz.ReplayWorkspace) -> dict[str, int]:
    return {
        name: getattr(workspace, name).__array_interface__["data"][0]
        for name in _BUFFERS
    }


def _make_flows(n_flows: int, n_packets: int, *, start_id: int = 0) -> list[Flow]:
    flows = []
    for i in range(n_flows):
        tuple_ = FiveTuple(
            src_ip=10_000 + start_id + i, dst_ip=20_000 + i,
            src_port=1000 + i, dst_port=443, protocol=6,
        )
        base = 0.05 * i
        packets = [
            Packet(timestamp=base + 0.01 * j, size=100 + j, flags=0x10,
                   direction=1 if j % 2 == 0 else -1, payload=60 + j)
            for j in range(n_packets)
        ]
        flows.append(Flow(five_tuple=tuple_, packets=packets, label=i % 2,
                          class_name="", flow_id=start_id + i))
    return flows


@pytest.fixture()
def make_program(splidt_model, splidt_rules):
    def _make():
        return SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=65536)
    return _make


class TestAllocationFree:
    def test_reserve_grows_monotonically_then_stays(self):
        ws = vz.ReplayWorkspace()
        ws.reserve(100)
        addresses = _buffer_addresses(ws)
        assert ws.flow_capacity == 100

        # Smaller and equal requests must not touch a single buffer.
        for n_flows in (10, 100, 1):
            ws.reserve(n_flows)
            assert _buffer_addresses(ws) == addresses

        # Growth replaces buffers, exactly once, then holds again.
        ws.reserve(200)
        grown = _buffer_addresses(ws)
        assert grown["matrix"] != addresses["matrix"]
        ws.reserve(200)
        assert _buffer_addresses(ws) == grown

    def test_round_loop_never_reallocates(self, make_program, monkeypatch):
        # Capture the workspace buffer addresses at every window round (via
        # the step_windows calls the fused loop makes) and across a second
        # replay: every snapshot must be identical — the round loop works on
        # views of the same storage.
        flows = _make_flows(12, 9)
        ws = vz.ReplayWorkspace()
        program = make_program()
        seen: list[dict[str, int]] = []
        original = program.step_windows

        def recording(**kwargs):
            seen.append(_buffer_addresses(ws))
            return original(**kwargs)

        monkeypatch.setattr(program, "step_windows", recording)
        vz.replay_arrays(program, flows, workspace=ws)
        n_partitions = program.model.config.n_partitions
        assert len(seen) == n_partitions  # one call per fused round

        program2 = make_program()
        monkeypatch.setattr(
            program2, "step_windows",
            lambda **kw: (seen.append(_buffer_addresses(ws)),
                          type(program2).step_windows(program2, **kw))[1],
        )
        vz.replay_arrays(program2, flows, workspace=ws)
        assert len(seen) == 2 * n_partitions
        assert all(snapshot == seen[0] for snapshot in seen)

    def test_aggregators_share_every_derived_column(self):
        # The aggregator holds no per-replay state: a second one over the
        # same source (the next flush, the next replay) finds every derived
        # column on ``soa.derived`` and builds none of its own.
        soa = PacketArrays.from_flows(_make_flows(5, 12))
        s = soa.flow_starts[:-1] + 2
        e = soa.flow_starts[1:]
        stateful = [f.index for f in FEATURES if f.stateful]
        first = vz._WindowAggregator(soa)
        values = [first.compute(feature, s, e) for feature in stateful]
        columns = {key: id(column) for key, column in soa.derived.items()}
        assert columns

        workspace = vz.ReplayWorkspace()
        workspace.reserve(s.size)
        second = vz._WindowAggregator(soa, workspace=workspace)
        again = [second.compute(feature, s, e) for feature in stateful]
        assert {key: id(column) for key, column in soa.derived.items()} == columns
        assert all(a.tobytes() == b.tobytes() for a, b in zip(values, again))
        assert vars(first).keys() == vars(second).keys() == {"_soa", "_workspace"}


class TestNoStateLeaks:
    def _snapshot(self, program):
        return (
            {fid: (v.label, v.decided_at, v.first_packet_at,
                   v.n_recirculations, v.early_exit)
             for fid, v in program.verdicts.items()},
            sorted((d.flow_id, d.label, d.timestamp, d.sid)
                   for d in program.controller.digests),
            program.recirculation_stats(),
        )

    def test_second_replay_matches_fresh_workspace(self, make_program):
        # Replay A (large), then replay B (smaller, different flows) on the
        # same workspace; B must be bit-identical to B on a fresh workspace.
        flows_a = _make_flows(20, 11)
        flows_b = _make_flows(7, 5, start_id=100)

        shared = vz.ReplayWorkspace()
        program = make_program()
        vz.replay_arrays(program, flows_a, workspace=shared)
        program_b = make_program()
        vz.replay_arrays(program_b, flows_b, workspace=shared)

        fresh = make_program()
        vz.replay_arrays(fresh, flows_b, workspace=vz.ReplayWorkspace())
        assert self._snapshot(program_b) == self._snapshot(fresh)

    def test_replay_twice_same_flows_is_deterministic(self, make_program):
        flows = _make_flows(10, 8)
        ws = vz.ReplayWorkspace()
        snapshots = []
        for _ in range(2):
            program = make_program()
            vz.replay_arrays(program, flows, workspace=ws)
            snapshots.append(self._snapshot(program))
        assert snapshots[0] == snapshots[1]
        assert len(snapshots[0][0]) == 10  # every flow decided

    def test_staged_list_is_drained_between_replays(self, make_program):
        ws = vz.ReplayWorkspace()
        program = make_program()
        vz.replay_arrays(program, _make_flows(6, 7), workspace=ws)
        # finalise_staged must leave nothing behind for the next replay.
        assert ws.staged == []
