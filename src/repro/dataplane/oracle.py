"""The per-packet reference interpreter: the oracle every batched plane is held to.

This mirrors the P4 program of Figure 4 one packet at a time: per packet, it

1. hashes the 5-tuple to a register slot and reads the reserved state
   (subtree id and per-window packet counter),
2. updates the dependency chain and the ``k`` feature slots through the
   operator-selection MATs of the *active* subtree
   (:mod:`repro.features.stateful`),
3. at a window boundary (derived from the flow-size information carried in
   the packet header, as with Homa/NDP), generates the match keys from the
   feature registers, looks up the subtree's model rules with the scalar
   first-match :meth:`~repro.core.range_marking.RuleSet.classify`, and either
   * emits a classification digest (final partition or early exit), or
   * recirculates a control packet carrying the next subtree id, which
     clears the feature and dependency registers and updates the SID.

No production path runs it: :func:`repro.dataplane.replay_dataset` and every
serving engine replay through the batched planes
(:mod:`repro.dataplane.vectorized`, :mod:`repro.dataplane.slot_stream`).  It
is the *specification* those planes are bit-identical to — verdicts,
digests, recirculation and eviction counters, slot state — reached through
:func:`replay_dataset` here, :func:`replay_positions`, and
:class:`~repro.serve.StreamingEngine` (a serving session over it).

Slot state lives in the program as hand-over columns
(:meth:`~repro.dataplane.splidt_program.SpliDTDataPlane.held_state`).  A
:class:`PacketInterpreter` turns them into one :class:`_FlowState` per
occupied slot when it starts and hands them back as columns when it closes,
so interpreter and batched calls on one program resume one another.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

import numpy as np

from repro.dataplane.runtime import ReplayResult, build_replay_result, prepare_replay_flows
from repro.dataplane.splidt_program import OpenWindows, SlotHandover
from repro.datasets.flows import (
    PACKET_DTYPES,
    FiveTuple,
    FlowDataset,
    Packet,
    PacketArrays,
    PacketColumns,
)
from repro.features.definitions import FEATURES, N_FEATURES, STATELESS_HEADER_INDICES
from repro.features.stateful import StatefulOperator, make_operator
from repro.features.window import cached_window_boundaries
from repro.switch.phv import Phv, make_control_phv, make_data_phv

_SRC_PORT, _DST_PORT, _PROTOCOL, _PKT_LEN_FIRST = STATELESS_HEADER_INDICES

#: :class:`Packet` fields and the dtypes of their ``PacketArrays`` columns.
_PACKET_COLUMNS = tuple(zip(("timestamp", "size", "flags", "direction", "payload"), PACKET_DTYPES))

#: Packets :meth:`PacketInterpreter.replay_positions` reads from the columns at once.
_POSITION_BLOCK = 4096


def _header_values(five_tuple: FiveTuple, first_size: float) -> dict[int, float]:
    """The flow's stateless header features, keyed by feature index (resolved at import)."""
    return {
        _SRC_PORT: float(five_tuple.src_port),
        _DST_PORT: float(five_tuple.dst_port),
        _PROTOCOL: float(five_tuple.protocol),
        _PKT_LEN_FIRST: float(first_size),
    }


@dataclass
class _FlowState:
    """Per-flow-slot simulation state (the contents of the register slot)."""

    sid: int
    five_tuple: FiveTuple | None = None
    flow_id: int = -1
    packets_seen: int = 0
    window_index: int = 0
    first_packet_at: float = 0.0
    last_seen_at: float = 0.0
    n_recirculations: int = 0
    operators: dict[int, StatefulOperator] = field(default_factory=dict)
    #: The packets ``operators`` were fed: the open window, as raw packets.
    window: list[Packet] = field(default_factory=list)
    stateless: dict[int, float] = field(default_factory=dict)
    decided: bool = False


class PacketInterpreter:
    """One call of the per-packet reference on ``program``, its slot state as objects.

    Opening settles the program's held hand-over columns into
    :attr:`states`; :meth:`close` hands them back as one hand-over record,
    which supersedes what the program held (it has a row for every slot the
    call started with).  Verdicts, digests, recirculation and eviction
    counters go to the program as they happen.

    Example::

        >>> interpreter = PacketInterpreter(program)
        >>> interpreter.replay_positions(soa, soa.interleave_order)
        >>> interpreter.close()
    """

    def __init__(self, program) -> None:
        self.program = program
        self.states: dict[int, _FlowState] = slot_states(program)
        self._n_partitions = program.model.config.n_partitions

    def close(self) -> None:
        """Hand the slot state back to the program as columns."""
        if self.states:
            self.program.hand_over(_columns_of_states(self.states))
        self.states = {}

    def replay_positions(self, soa: PacketArrays, positions, sizes=None) -> None:
        """Feed the packets at ``positions`` to :meth:`process_packet`, in order.

        ``positions`` index the flow-major packet columns; each packet is
        built from the columns at its position and its five-tuple from the
        flow's identity columns.  Packet headers carry ``sizes[flow]`` as
        the flow size — by default the *full* flow size, whatever subset of
        a flow is replayed.
        """
        advertised = soa.n_packets_per_flow if sizes is None else np.asarray(sizes)
        positions = np.asarray(positions, dtype=np.intp)
        identity = soa.identity_columns()
        five_tuples: dict[int, FiveTuple] = {}
        process_packet = self.process_packet
        # Block by block, so the Python values of a large call stay few.
        for start in range(0, positions.size, _POSITION_BLOCK):
            block = positions[start:start + _POSITION_BLOCK]
            flows = soa.packet_flow[block]
            packets = map(
                Packet, *(getattr(soa, name)[block].tolist() for name in PacketColumns._fields)
            )
            for flow, packet, flow_id, size in zip(
                flows.tolist(),
                packets,
                soa.flow_ids[flows].tolist(),
                advertised[flows].tolist(),
            ):
                five_tuple = five_tuples.get(flow)
                if five_tuple is None:
                    five_tuple = five_tuples[flow] = FiveTuple(
                        *(int(column[flow]) for column in identity)
                    )
                process_packet(make_data_phv(five_tuple, packet), flow_id, int(size))

    def process_packet(self, phv: Phv, flow_id: int, flow_size: int) -> None:
        """Run one data packet through the pipeline.

        A packet that triggers the flow's final decision records one row in
        the program's verdict store and one digest.

        Args:
            phv: The parsed packet.
            flow_id: Identifier used for verdict bookkeeping (not visible to
                the data plane itself).
            flow_size: Total packets of the flow, as carried in the packet
                header (Homa/NDP flow-size field) — used to derive window
                boundaries.
        """
        program = self.program
        slot = program.indexer.index_for(phv.five_tuple)
        state = self.states.get(slot)
        if state is not None and state.decided:
            if state.five_tuple == phv.five_tuple:
                # The flow already received its verdict; remaining packets are
                # forwarded without further inference (terminal SID).
                return
            state = None  # a new flow reclaims the slot
        elif (
            state is not None
            and program.eviction is not None
            and state.five_tuple != phv.five_tuple
            and program.eviction.should_evict(
                resident_last_seen=state.last_seen_at,
                incoming_ts=phv.packet.timestamp,
            )
        ):
            # The undecided resident is evicted: its slot state is
            # destroyed (it resolves as undecided — no verdict) and the
            # incoming packet's flow is admitted fresh.  The victim's own
            # later packets, if any, re-enter as a brand-new flow.
            program.record_evictions([state.flow_id])
            state = None
        if state is None:
            state = _FlowState(
                sid=program.model.root_sid,
                five_tuple=phv.five_tuple,
                flow_id=flow_id,
                first_packet_at=phv.packet.timestamp,
            )
            state.stateless = _header_values(phv.five_tuple, phv.packet.size)
            self.states[slot] = state
            program.counters.add("switch.admissions")
            _activate_subtree(program, state)

        state.last_seen_at = phv.packet.timestamp
        state.packets_seen += 1

        # Feature collection for the active subtree.
        packet = phv.packet
        for operator in state.operators.values():
            operator.update(packet)
        state.window.append(packet)

        # Window boundary check (flow-size-derived uniform windows).
        boundaries = cached_window_boundaries(flow_size, self._n_partitions)
        boundary = boundaries[min(state.window_index, len(boundaries) - 1)]
        if state.packets_seen < boundary and state.packets_seen < flow_size:
            return
        self._window_boundary(phv, flow_id, state)

    def _window_boundary(self, phv: Phv, flow_id: int, state: _FlowState) -> None:
        program = self.program
        outcome = program.rules.classify(state.sid, _feature_vector(state))
        timestamp = phv.packet.timestamp

        if outcome is None:
            # No rule matched (quantisation corner); fall back to the default.
            self._finalise(flow_id, state, program.model.default_label, timestamp, False)
            return

        kind, value = outcome
        is_last_window = state.window_index >= self._n_partitions - 1
        if kind == "exit" or is_last_window:
            label = value if kind == "exit" else program.model.default_label
            self._finalise(flow_id, state, label, timestamp, kind == "exit" and not is_last_window)
            return

        # Transition to the next subtree via a recirculated control packet.
        control = make_control_phv(phv.five_tuple, next_sid=value, timestamp=timestamp)
        program.recirculation.submit(control, timestamp)
        self._apply_control(control, state)

    def _apply_control(self, control: Phv, state: _FlowState) -> None:
        """Consume a recirculated control packet: update SID, reset the operators."""
        for released in self.program.recirculation.ready(control.packet.timestamp + 1.0):
            state.sid = int(released.get("next_sid"))
            state.window_index += 1
            state.n_recirculations += 1
            _activate_subtree(self.program, state)

    def _finalise(
        self,
        flow_id: int,
        state: _FlowState,
        label: int,
        timestamp: float,
        early_exit: bool,
    ) -> None:
        label = int(label)
        self.program._verdicts.append_row(
            flow_id, label, timestamp, state.first_packet_at, state.n_recirculations,
            early_exit, state.sid,
        )
        self.program.controller.receive_digest(flow_id, label, timestamp, state.sid)
        state.decided = True


def _activate_subtree(program, state: _FlowState) -> None:
    """Load a fresh operator bank for ``state``'s active subtree."""
    state.operators = {
        feature: make_operator(FEATURES[feature].name)
        for feature in program.subtree_stateful_features(state.sid)
    }
    state.window = []


def _feature_vector(state: _FlowState) -> np.ndarray:
    """Assemble the feature vector visible to the active subtree."""
    vector = np.zeros(N_FEATURES, dtype=float)
    for feature, value in state.stateless.items():
        vector[feature] = value
    for feature, operator in state.operators.items():
        vector[feature] = operator.value
    return vector


# ----------------------------------------------------------------------
# Slot state: hand-over columns <-> objects
# ----------------------------------------------------------------------
def slot_states(program) -> dict[int, _FlowState]:
    """The program's slot state as objects, one :class:`_FlowState` per occupied slot.

    Built from :meth:`~repro.dataplane.splidt_program.SpliDTDataPlane.held_state`
    and leaves it as it was: reading slot state changes nothing.  A decided
    resident is a terminal marker — the packet path reads its tuple and
    nothing else; an undecided one is brought to where its stream ended,
    operator registers included.
    """
    held = program.held_state()
    if held is None:
        return {}
    root_sid = program.model.root_sid
    states = {
        slot: _FlowState(sid=root_sid, five_tuple=five_tuple, flow_id=flow_id, decided=True)
        for slot, five_tuple, flow_id in zip(
            held.slots.tolist(),
            map(FiveTuple, *(column.tolist() for column in held.identity)),
            held.flow_ids.tolist(),
        )
    }
    if held.undecided is not None:
        _reopen_windows(program, states, held)
    return states


def _reopen_windows(program, states: dict[int, _FlowState], held: SlotHandover) -> None:
    """Bring the undecided residents of a hand-over to where their streams ended.

    Each is set to the start of its open window (fresh operators of its
    subtree) and the window's packets go straight to the operator bank:
    inside an open window no boundary, eviction or reclaim can fire, so
    this is all :meth:`PacketInterpreter.process_packet` would have done
    with them.
    """
    undecided = held.undecided
    packets = list(map(Packet, *(column.tolist() for column in undecided.packets)))
    starts = undecided.starts.tolist()
    for slot, first_at, sid, window, seen, last_at, first_size, start, stop in zip(
        held.slots[undecided.rows].tolist(),
        held.first_ts[undecided.rows].tolist(),
        undecided.sids.tolist(),
        undecided.windows.tolist(),
        undecided.seen.tolist(),
        undecided.last_ts.tolist(),
        undecided.first_sizes.tolist(),
        starts,
        starts[1:],
    ):
        state = states[slot]
        state.decided = False
        state.sid = sid
        state.window_index = state.n_recirculations = window
        state.first_packet_at = first_at
        state.stateless = _header_values(state.five_tuple, first_size)
        _activate_subtree(program, state)
        state.window = packets[start:stop]
        for operator in state.operators.values():
            for packet in state.window:
                operator.update(packet)
        state.packets_seen = seen + len(state.window)
        state.last_seen_at = last_at


def _columns_of_states(states: dict[int, _FlowState]) -> SlotHandover:
    """``_FlowState`` objects as a hand-over record (one row per slot)."""
    residents = list(states.values())
    live = [state for state in residents if not state.decided]
    packets = [packet for state in live for packet in state.window]

    def column(values, dtype=np.int64) -> np.ndarray:
        return np.array(list(values), dtype=dtype)

    return SlotHandover(
        slots=column(states, np.intp),
        identity=tuple(map(column, zip(*(astuple(state.five_tuple) for state in residents)))),
        flow_ids=column(state.flow_id for state in residents),
        first_ts=column((state.first_packet_at for state in residents), np.float64),
        undecided=OpenWindows(
            rows=column(row for row, state in enumerate(residents) if not state.decided),
            sids=column(state.sid for state in live),
            windows=column(state.window_index for state in live),
            seen=column(state.packets_seen - len(state.window) for state in live),
            last_ts=column((state.last_seen_at for state in live), np.float64),
            first_sizes=column((state.stateless[_PKT_LEN_FIRST] for state in live), np.float64),
            starts=np.append(0, np.cumsum(column(len(state.window) for state in live))),
            packets=tuple(
                column((getattr(packet, name) for packet in packets), dtype)
                for name, dtype in _PACKET_COLUMNS
            ),
        ),
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def replay_positions(program, soa: PacketArrays, positions, sizes=None) -> None:
    """Replay the packets at ``positions`` through the interpreter, in one call.

    See :meth:`PacketInterpreter.replay_positions`; ``sizes`` replaces each
    flow's advertised size (evasion scenarios spoof it).
    """
    interpreter = PacketInterpreter(program)
    interpreter.replay_positions(soa, positions, sizes)
    interpreter.close()


def replay_dataset(
    program, dataset: FlowDataset, *, max_flows: int | None = None
) -> ReplayResult:
    """:func:`repro.dataplane.replay_dataset` through the per-packet interpreter.

    Same arguments, same traffic, same :class:`~repro.dataplane.ReplayResult`:
    the result the batched replay must equal bit for bit.

    Example::

        >>> from repro.dataplane import oracle, replay_dataset
        >>> want = oracle.replay_dataset(fresh_program(), dataset)
        >>> got = replay_dataset(fresh_program(), dataset)
        >>> dict(got.verdicts) == dict(want.verdicts)
        True
    """
    soa = prepare_replay_flows(dataset, max_flows=max_flows).soa
    replay_positions(program, soa, soa.interleave_order)
    return build_replay_result(
        program.verdicts, soa.flow_ids, soa.labels, program.recirculation_stats()
    )
