"""The SpliDT data-plane program, executed on the switch model.

This mirrors the P4 program of Figure 4 over many flows — or many register
slots — at once: the batched :meth:`SpliDTDataPlane.step_windows` API
advances rows across a window boundary, looks every row up in the one
stacked mark-space LUT of the model tables, and either records a verdict and
digest (final partition or early exit) or accounts a recirculated control
packet carrying the next subtree id.  The batched planes
(:mod:`repro.dataplane.vectorized`, :mod:`repro.dataplane.slot_stream`)
drive it; the per-packet interpreter they are held to lives in
:mod:`repro.dataplane.oracle`.

Slot state is held as columns, indexed by the CRC32 flow hash
(:class:`SlotHandover`), so hash collisions corrupt state exactly as they
would on hardware.  No register array or TCAM table is instantiated: what a
deployment costs and whether it fits its target is answered by
:mod:`repro.core.resources`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.partitioned_tree import PartitionedDecisionTree
from repro.core.range_marking import KIND_EXIT, KIND_NEXT, RuleSet
from repro.dataplane.controller import Controller
from repro.dataplane.verdicts import VerdictStore, Verdicts
from repro.datasets.flows import PacketArrays
from repro.features.definitions import FEATURES
from repro.obs import Counters
from repro.switch.eviction import EvictionPolicy
from repro.switch.hashing import FlowIndexer
from repro.switch.phv import CONTROL_PACKET_BYTES
from repro.switch.recirculation import RecirculationChannel
from repro.switch.targets import TOFINO1, TargetSpec


@dataclass(slots=True)
class OpenWindows:
    """The undecided residents of a :class:`SlotHandover`, one entry per open window.

    Registers are as they were at the *start* of the open window: the
    slot-stream plane resumes from them with the packets at the head of the
    slot's run, and the per-packet oracle feeds the window's packets to a
    fresh operator bank of subtree ``sids``.
    """

    #: Row of the hand-over each entry belongs to (the only row of its slot).
    rows: np.ndarray
    sids: np.ndarray
    windows: np.ndarray
    #: Packets seen *before* the open window.
    seen: np.ndarray
    #: Timestamp of the resident's last packet (in the window or before it).
    last_ts: np.ndarray
    first_sizes: np.ndarray
    #: Entry ``i`` owns ``packets[...][starts[i]:starts[i + 1]]`` (may be empty).
    starts: np.ndarray
    #: The windows' packets as columns, in :class:`Packet` field order.
    packets: tuple[np.ndarray, ...]


@dataclass(slots=True)
class SlotHandover:
    """Slot state a batched plane left behind, as columns: one row per resident.

    The program holds slot state only in this form: a later call resumes
    from the columns (:meth:`SpliDTDataPlane.held_state`), and only the
    per-packet oracle turns them into objects.  Rows apply in ``first_ts``
    order, so of several flows that followed one another in a slot the last
    one stays.  A decided resident is its identity
    and nothing else — all the packet path ever reads of one; the undecided
    ones are completed by ``undecided``.

    Every array is a copy the size of the rows handed over (or of their open
    windows): the record refers neither to the program — a cycle would keep a
    dead program and its record waiting for the cyclic collector — nor to the
    flow list or packet source, which may be closed before anyone reads.
    """

    slots: np.ndarray
    #: The residents' five-tuple columns, in :class:`FiveTuple` field order.
    identity: tuple[np.ndarray, ...]
    flow_ids: np.ndarray
    first_ts: np.ndarray
    undecided: OpenWindows | None = None

    @classmethod
    def of_flows(
        cls,
        soa: PacketArrays,
        flows: np.ndarray,
        slots: np.ndarray,
        first_ts: np.ndarray,
        undecided: OpenWindows | None = None,
    ) -> "SlotHandover":
        """A record whose row ``i`` is flow ``flows[i]`` of ``soa``, resident in ``slots[i]``."""
        return cls(
            slots=slots,
            identity=tuple(column[flows] for column in soa.identity_columns()),
            flow_ids=soa.flow_ids[flows],
            first_ts=first_ts,
            undecided=undecided,
        )

    @classmethod
    def merged(cls, records: list["SlotHandover"]) -> "SlotHandover":
        """What applying ``records`` (oldest first) leaves: one row per slot, by slot.

        Rows apply record by record, each in ``first_ts`` order, so a slot
        keeps the last row applied to it, with its open window if it has one.
        """
        slots = np.concatenate([record.slots for record in records])
        first_ts = np.concatenate([record.first_ts for record in records])
        sizes = [record.slots.size for record in records]
        applied = np.lexsort((first_ts, np.repeat(np.arange(len(records)), sizes)))[::-1]
        _, last = np.unique(slots[applied], return_index=True)
        keep = applied[last]

        undecided = None
        opened = [
            (record.undecided, offset)
            for record, offset in zip(records, np.cumsum(sizes) - sizes)
            if record.undecided is not None
        ]
        if opened:
            # The open windows concatenated (their packets too, window after
            # window), each numbered at the concatenated row it belongs to.
            windows = [window for window, _ in opened]
            entry = np.full(slots.size, -1, dtype=np.intp)
            numbered = np.concatenate([offset + window.rows for window, offset in opened])
            entry[numbered] = np.arange(numbered.size)
            rows = np.flatnonzero(entry[keep] >= 0)
            chosen = entry[keep[rows]]
            every = np.concatenate([np.diff(window.starts) for window in windows])
            lengths = every[chosen]
            offsets = np.cumsum(lengths) - lengths
            heads = (np.cumsum(every) - every)[chosen]
            packets = np.arange(int(lengths.sum())) + np.repeat(heads - offsets, lengths)

            def column(name: str) -> np.ndarray:
                return np.concatenate([getattr(window, name) for window in windows])[chosen]

            undecided = OpenWindows(
                rows=rows,
                sids=column("sids"),
                windows=column("windows"),
                seen=column("seen"),
                last_ts=column("last_ts"),
                first_sizes=column("first_sizes"),
                starts=np.append(0, np.cumsum(lengths)),
                packets=tuple(
                    np.concatenate(parts)[packets]
                    for parts in zip(*(window.packets for window in windows))
                ),
            )
        return cls(
            slots=slots[keep],
            identity=tuple(
                np.concatenate(parts)[keep]
                for parts in zip(*(record.identity for record in records))
            ),
            flow_ids=np.concatenate([record.flow_ids for record in records])[keep],
            first_ts=first_ts[keep],
            undecided=undecided,
        )


class SpliDTDataPlane:
    """Execution of a compiled SpliDT model on the switch substrate.

    The one data-plane program of every system: a NetBeacon/Leo-style top-k
    baseline runs here as the one-partition model
    :func:`~repro.baselines.topk.exit_tree`.

    The batched :meth:`begin_flows` / :meth:`step_windows` API is what the
    replay planes drive with NumPy masks over the subtree state.  Building a
    program compiles its rule set's lookup plane, so the first window round
    never pays for it.

    Example::

        >>> from repro.dataplane import SpliDTDataPlane, replay_dataset
        >>> program = SpliDTDataPlane(model, rules, flow_slots=8192)
        >>> result = replay_dataset(program, dataset)
        >>> len(result.verdicts) <= dataset.n_flows
        True
    """

    def __init__(
        self,
        model: PartitionedDecisionTree,
        rules: RuleSet,
        *,
        target: TargetSpec = TOFINO1,
        flow_slots: int = 4096,
        eviction: "EvictionPolicy | None" = None,
    ) -> None:
        self.model = model
        self.rules = rules
        self.target = target
        #: What the planes, the channel and the engines driving this program
        #: counted (:mod:`repro.obs`); the stats methods are views of it.
        self.counters = Counters()
        self.recirculation = RecirculationChannel(
            capacity_bps=target.recirculation_bps, counters=self.counters
        )
        self.controller = Controller()
        self.indexer = FlowIndexer(flow_slots)
        self.flow_slots = flow_slots
        self.eviction = eviction
        self._evicted_flows: set[int] = set()
        #: The record before and after the last ``replay_arrays`` call.
        self._replay_span: tuple[dict, dict] = ({}, {})

        self._n_partitions = model.config.n_partitions
        #: Slot state the planes left, as columns (see :meth:`held_state`).
        self._held: list[SlotHandover] = []
        #: Every decided row (see :attr:`verdicts`).
        self._verdicts = VerdictStore()
        used = {sid: sorted(subtree.features_used()) for sid, subtree in model.subtrees.items()}
        self._stateful_by_sid = {
            sid: [f for f in features if FEATURES[f].stateful] for sid, features in used.items()
        }
        #: The window rounds' fill plan, over every subtree's features: one
        #: per rule set, shared by the programs built over it.
        self.fill_plan = rules.fill_plan(used)
        rules.compiled_lookup()

    # ------------------------------------------------------------------
    # Batched path (vectorized replay engine)
    # ------------------------------------------------------------------
    def begin_flows(self, slots: np.ndarray) -> None:
        """Batched flow admission: one new flow claims each of ``slots``.

        The batched planes keep the admitted flows' state in their own
        columns, so all that is left to do here is count the admissions
        (``switch.admissions``).

        Example::

            >>> program.begin_flows(np.array([17, 103, 2041]))
        """
        self.counters.add("switch.admissions", len(slots))

    def step_windows(
        self,
        *,
        flow_ids: np.ndarray,
        sids: np.ndarray,
        window_index: "int | np.ndarray",
        feature_matrix: np.ndarray,
        boundary_ts: np.ndarray,
        first_packet_ts: np.ndarray,
        staging: list | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance many flows across one window boundary in a single call.

        Every row is one flow whose ``window_index``-th window just
        completed, carrying the window's feature vector.  All rows, whatever
        their active subtrees, take one model-table lookup
        (:meth:`~repro.core.range_marking.RuleSet.classify_batch` with one
        SID per row), and the three outcomes of a window boundary are
        applied batch-wise:

        * *exit* / no-match / last window → verdict recorded, digest emitted;
        * *next subtree* → recirculation accounted; the caller carries the
          returned subtree id into the row's next window.

        Args:
            flow_ids: Bookkeeping flow ids (one per row).
            sids: Active subtree id of each flow.
            window_index: The window every row just completed — one int
                when all rows are at the same window, or one index per row
                (what both window planes pass: their rows may sit at
                different windows in the same round).
            feature_matrix: ``(n, N_FEATURES)`` raw feature values at the
                boundary.
            boundary_ts: Timestamp of each flow's boundary packet.
            first_packet_ts: Timestamp of each flow's first packet.
            staging: Optional digest-staging list, local to one window-plane
                call.  When given, decided rows are appended to it as column
                slices instead of being finalised inline; the plane records
                them once per call via :meth:`finalise_staged`.  When
                omitted, finalisation is immediate (what direct callers rely
                on).

        Returns:
            ``(advance_mask, next_sids)`` — rows with ``advance_mask`` True
            transitioned to ``next_sids`` and stay live; all other rows
            received their final verdict.

        Example::

            >>> alive, sids = program.step_windows(
            ...     flow_ids=ids, sids=sids, window_index=0,
            ...     feature_matrix=features, boundary_ts=ts,
            ...     first_packet_ts=first_ts)
        """
        n_rows = len(flow_ids)
        kinds, values = self.rules.classify_batch(sids, feature_matrix)

        # At the last window nothing advances and an exit outcome is not
        # "early" (``not_last`` is one bool when every row is at one window).
        per_row = isinstance(window_index, np.ndarray)
        not_last = window_index < self._n_partitions - 1
        advance = (kinds == KIND_NEXT) & not_last
        decided = (~advance).nonzero()[0]
        if decided.size:
            exits = kinds[decided] == KIND_EXIT
            if per_row:
                windows, early = window_index[decided], exits & not_last[decided]
            else:
                windows = np.full(decided.size, window_index, dtype=np.int64)
                early = exits & not_last
            decided_columns = (
                flow_ids[decided],
                sids[decided],
                np.where(exits, values[decided], self.model.default_label),
                boundary_ts[decided],
                first_packet_ts[decided],
                windows,
                early,
            )
            if staging is None:
                self._finalise_batch(*decided_columns)
            else:
                staging.append(decided_columns)

        if decided.size < n_rows:
            advance_ts = boundary_ts[advance]
            self.recirculation.submit_span(
                n_rows - decided.size,
                CONTROL_PACKET_BYTES,
                float(np.minimum.reduce(advance_ts)),
                float(np.maximum.reduce(advance_ts)),
            )
        return advance, values

    def _finalise_batch(
        self,
        flow_ids: np.ndarray,
        sids: np.ndarray,
        labels: np.ndarray,
        boundary_ts: np.ndarray,
        first_packet_ts: np.ndarray,
        window_index: "int | np.ndarray",
        early_exits: np.ndarray,
    ) -> None:
        """Record verdicts and digests for many decided rows at once.

        The columns are appended to the verdict store as one block (rows in
        order, so a flow id decided twice keeps its later verdict), and the
        controller retains the same arrays as its digest columns.  No object
        is built per row.
        """
        if len(flow_ids) == 0:
            return
        # A flow has recirculated once per window it completed before this one.
        if not isinstance(window_index, np.ndarray):
            window_index = np.full(len(flow_ids), window_index, dtype=np.int64)
        self._verdicts.append(
            flow_ids, labels, boundary_ts, first_packet_ts, window_index, early_exits, sids
        )
        self.controller.receive_digests(flow_ids, labels, boundary_ts, sids)

    def finalise_staged(self, staging: list) -> None:
        """Record the rounds staged by ``step_windows`` as one block of verdict and digest rows.

        A window plane hands ``step_windows`` a staging list of its own so
        its round loop records nothing per round; this drains the list once
        per call, the rounds' rows joined in round order — verdict and digest
        ordering is identical to the inline per-round finalisation.
        Idempotent on an empty list.
        """
        if len(staging) > 1:
            staging[:] = [tuple(np.concatenate(parts) for parts in zip(*staging))]
        if staging:
            self._finalise_batch(*staging[0])
        staging.clear()

    # ------------------------------------------------------------------
    # Slot-state hand-over (batched planes)
    # ------------------------------------------------------------------
    def hand_over(self, record: SlotHandover) -> None:
        """Take the slot state a batched plane ended a call with, as columns.

        Recorded as it is: a later call reads it as columns
        (:meth:`held_state`).  A record supersedes, slot by slot, what the
        program held before it.
        """
        self._held.append(record)
        self.counters.add("dataplane.handover.slots", int(record.slots.size))
        if record.undecided is not None:
            lengths = np.diff(record.undecided.starts)
            self.counters.add("dataplane.handover.open_windows", int(np.count_nonzero(lengths)))
            self.counters.add("dataplane.handover.packets", int(lengths.sum()))

    def held_state(self) -> SlotHandover | None:
        """Every occupied slot's resident as one hand-over record, building no objects.

        One row per occupied slot, sorted by slot (``None`` when none is):
        what the next packet to reach the slot meets.  Every plane reads slot
        state here and resumes from it, the per-packet oracle included.
        """
        if not self._held:
            return None
        held = SlotHandover.merged(self._held)
        self._held = [held]
        return held

    def record_evictions(self, flow_ids: list[int]) -> None:
        """Account for evicted residents (one eviction per entry of ``flow_ids``)."""
        self.counters.add("switch.evictions", len(flow_ids))
        self._evicted_flows.update(flow_ids)

    def subtree_stateful_features(self, sid: int) -> list[int]:
        """Sorted stateful feature indices of subtree ``sid`` (its operator bank).

        Empty for a SID the model does not have.  The window planes read
        all subtrees' at once, through :attr:`fill_plan`.
        """
        return self._stateful_by_sid.get(int(sid), [])

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def verdicts(self) -> Verdicts:
        """Verdicts recorded so far: an immutable snapshot, keyed by flow id.

        A read-only ``Mapping[int, FlowVerdict]`` over the decided rows'
        columns (:class:`~repro.dataplane.verdicts.Verdicts`); later rows do
        not change a snapshot already taken.
        """
        return self._verdicts.snapshot()

    def verdict_rows(self, start: int = 0) -> tuple[np.ndarray, ...]:
        """Decided rows from row ``start`` on, in decision order, as columns.

        One array per :data:`~repro.dataplane.verdicts.VERDICT_COLUMNS`
        entry, a flow decided twice once per decision: what a
        ``sharded-mp`` worker ships to the parent, which appends the rows to
        a store of its own.  Read the arrays, do not write them.
        """
        return self._verdicts.columns(start)

    def eviction_stats(self) -> dict:
        """Admission and eviction counters, plus the evicted flow ids.

        An admission is a flow claiming a register slot — free, reclaimed
        after a verdict, or taken from an evicted resident — so
        ``evictions <= admissions`` whatever the traffic (the batched planes
        report theirs through :meth:`begin_flows`).  Evictions only ever
        happen in slots shared by several flows, which
        the batched engine replays on the slot-stream plane (it reports the
        residents it evicts through :meth:`record_evictions`); a flow on the
        flow-lockstep plane decides before another flow can reach its slot.
        The counters are bit-identical to the per-packet oracle's — the
        parity fuzzer includes them in its snapshot.
        """
        return {
            "policy": self.eviction.name if self.eviction is not None else "none",
            "admissions": self.counters.get("switch.admissions", 0),
            "evictions": self.counters.get("switch.evictions", 0),
            "evicted_flows": sorted(self._evicted_flows),
        }

    def check_accounting(self, n_packets: int) -> None:
        """Raise ``RuntimeError`` with the counts if the planes' accounting does not close.

        ``n_packets`` is what the batched replays of this program were given,
        in total.  Three facts hold whatever the verdicts are, so they are
        checked from the counters without the per-packet oracle:

        * every packet went through one plane:
          ``dataplane.lockstep.packets + dataplane.slot_stream.packets == n_packets``;
        * every admission ended one way, in a verdict row, an eviction, or a
          resident still undecided in its slot:
          ``switch.admissions == decided rows + switch.evictions + live undecided``;
        * ``switch.evictions <= switch.admissions``.
        """
        held = self.held_state()
        count = self.counters.get
        lockstep = count("dataplane.lockstep.packets", 0)
        stream = count("dataplane.slot_stream.packets", 0)
        admissions, evictions = count("switch.admissions", 0), count("switch.evictions", 0)
        decided = len(self._verdicts)
        live = 0 if held is None or held.undecided is None else int(held.undecided.rows.size)
        facts = {
            "lockstep + slot-stream packets == packets": lockstep + stream == n_packets,
            "admissions == decided rows + evictions + live undecided":
                admissions == decided + evictions + live,
            "evictions <= admissions": evictions <= admissions,
        }
        broken = [fact for fact, holds in facts.items() if not holds]
        if broken:
            raise RuntimeError(
                f"counter accounting broken ({'; '.join(broken)}): packets {n_packets}, "
                f"lockstep packets {lockstep}, slot-stream packets {stream}, admissions "
                f"{admissions}, decided rows {decided}, evictions {evictions}, "
                f"live undecided {live}"
            )

    def recirculation_stats(self) -> dict[str, float]:
        """Recirculation counters of the underlying channel."""
        return self.recirculation.stats()

    @property
    def replay_stats(self) -> dict:
        """What the last ``replay_arrays`` call counted (zeros before the first).

        Flows and packets per plane (``batched`` is the flow-lockstep plane;
        each packet counts on one), the flow-lockstep plane's window
        ``lockstep_rounds`` and the slot-stream plane's ``event_rounds``, its
        window-boundary searches (``event_search``: read from its next-event
        columns by ``lookup``, or from its size-class ``index``), the window
        rounds of both planes with the windows (``window_rows``) and kernel
        family passes (``fill_passes``) they closed them with, and the slot
        state ``deferred`` to a later call (:meth:`hand_over`).
        """
        before, after = self._replay_span

        def count(name: str) -> int:
            return after.get(name, 0) - before.get(name, 0)

        def planes(what: str) -> dict[str, int]:
            return {
                "batched": count(f"dataplane.lockstep.{what}"),
                "slot_stream": count(f"dataplane.slot_stream.{what}"),
            }

        return {
            "flows": planes("flows"),
            "packets": planes("packets"),
            "lockstep_rounds": count("dataplane.lockstep.rounds"),
            "event_rounds": count("dataplane.slot_stream.rounds"),
            "event_search": {
                "lookup": count("dataplane.slot_stream.boundary_lookups"),
                "index": count("dataplane.slot_stream.boundary_indexed"),
            },
            "window_rounds": count("dataplane.window_rounds"),
            "window_rows": count("dataplane.window_rows"),
            "fill_passes": count("dataplane.fill.passes"),
            "deferred": {
                name: count(f"dataplane.handover.{name}")
                for name in ("slots", "open_windows", "packets")
            },
        }
