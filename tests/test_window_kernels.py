"""Every vectorised window kernel against the scalar operator it stands for.

End-to-end parity (``test_dataplane_vectorized.py``, ``test_parity_fuzz.py``)
only exercises the features the trained trees happen to pick, on the windows
they happen to see.  Here each stateful feature's
``_WindowAggregator.compute`` is pinned, bit for bit, to a fresh
:func:`~repro.features.stateful.make_operator` fed the same packets, over
arbitrary sub-windows of a flow — and the NumPy IAT sweep to a literal loop.
A window round's fill (``_WindowAggregator.fill`` over a
:class:`~repro.dataplane.vectorized.FillPlan`: each kernel family once, over
the rows whose subtrees read it) is held to ``compute``, feature by feature,
on hypothesis-drawn rounds (:class:`TestRoundFill`), and a row is filled and
classified alike whether it shares its round with rows of other subtrees or
is filled alone (:class:`TestRoundMixing`, which does not read ``compute``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplane import SpliDTDataPlane, kernels
from repro.dataplane.slot_stream import StreamSource
from repro.dataplane.vectorized import FAMILIES, FillPlan, _WindowAggregator
from repro.datasets import SyntheticTrafficGenerator, get_profile
from repro.datasets.flows import FiveTuple, Flow, Packet, PacketArrays
from repro.features.definitions import (
    BURST_GAP_SECONDS,
    FEATURES,
    N_FEATURES,
    STATELESS_HEADER_INDICES,
)
from repro.features.stateful import make_operator

_STATEFUL = [feature for feature in FEATURES if feature.stateful]

#: Three bursts and a lone last packet: gaps (> BURST_GAP_SECONDS) before
#: positions 3, 7 and 9.
_BURSTY_TIMES = (0.0, 0.001, 0.002, 0.05, 0.051, 0.052, 0.053, 0.2, 0.201, 0.5)


def _bursty_flow() -> Flow:
    packets = [
        Packet(timestamp=ts, size=60 + 37 * j, flags=(0x02, 0x10, 0x18, 0x11)[j % 4],
               direction=1 if j % 3 else -1, payload=7 * j)
        for j, ts in enumerate(_BURSTY_TIMES)
    ]
    return Flow(five_tuple=FiveTuple(1, 2, 3, 4, 6), packets=packets, label=0,
                class_name="", flow_id=10_000)


def _scattered(owner: np.ndarray) -> np.ndarray:
    """A few windows far apart in the source, as a micro-batch flush holds them."""
    return np.flatnonzero((owner % 12 == 0) & (np.arange(owner.size) % 8 == 7))


@pytest.fixture(scope="module")
def windows():
    """``(flows, soa, flow index, local start, local end)`` of the sub-windows under test."""
    generator = SyntheticTrafficGenerator(
        get_profile("D3"), seed=7, rng=np.random.default_rng(3)
    )
    flows = [*generator.generate(150).flows, _bursty_flow()]
    rng = np.random.default_rng(11)
    segments = []
    for index, flow in enumerate(flows[:-1]):
        n = flow.n_packets
        for _ in range(6):
            a = int(rng.integers(0, n))
            segments.append((index, a, int(rng.integers(a + 1, n + 1))))
        segments.append((index, 0, n))
        a = int(rng.integers(0, n))
        segments.append((index, a, a + 1))  # single packet
    # Every sub-window of the bursty flow: starting on a gap, holding none,
    # holding several, ending on one.
    n = len(_BURSTY_TIMES)
    segments += [(len(flows) - 1, a, b) for a in range(n) for b in range(a + 1, n + 1)]
    owner, start, end = (np.array(column, dtype=np.intp) for column in zip(*segments))
    return flows, PacketArrays.from_flows(flows), owner, start, end


def test_fixture_covers_the_window_shapes(windows):
    flows, soa, owner, start, end = windows
    bursty = owner == len(flows) - 1
    gaps = np.diff(_BURSTY_TIMES) > BURST_GAP_SECONDS  # gaps[j]: before packet j + 1
    inside = np.array([
        int(gaps[a:b - 1].sum()) for a, b in zip(start[bursty], end[bursty])
    ])
    on_gap = np.array([a > 0 and gaps[a - 1] for a in start[bursty]])
    assert (inside == 0).any() and (inside >= 2).any()
    assert (on_gap & (inside == 0)).any() and (on_gap & (inside > 0)).any()
    assert ((end - start) == 1).sum() >= 150
    # The whole set overlaps itself (reduced in place), the scattered subset
    # covers a sliver of its span (gathered): both forms of _seg_reduce run.
    base = soa.flow_starts[owner]
    for rows, in_place in ((np.arange(owner.size), True), (_scattered(owner), False)):
        s, e = (base + start)[rows], (base + end)[rows]
        assert (8 * (e - s).sum() >= e.max() - s.min()) == in_place


@pytest.mark.parametrize("feature", _STATEFUL, ids=lambda feature: feature.name)
def test_kernel_equals_operator_bit_for_bit(windows, feature):
    flows, soa, owner, start, end = windows
    s, e = soa.flow_starts[owner] + start, soa.flow_starts[owner] + end
    aggregator = _WindowAggregator(soa)
    got = aggregator.compute(feature.index, s, e)
    few = _scattered(owner)
    assert aggregator.compute(feature.index, s[few], e[few]).tobytes() == got[few].tobytes()

    want = np.empty(owner.size, dtype=np.float64)
    for row, (index, a, b) in enumerate(zip(owner.tolist(), start.tolist(), end.tolist())):
        operator = make_operator(feature.name)
        for packet in flows[index].packets[a:b]:
            operator.update(packet)
        want[row] = operator.value
    differing = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert differing.size == 0, (
        f"{feature.name}: {differing.size} of {owner.size} windows differ, first "
        f"(flow {owner[differing[0]]}, packets {start[differing[0]]}:{end[differing[0]]}) "
        f"kernel {got[differing[0]]!r} != operator {want[differing[0]]!r}"
    )


def test_prefix_sums_are_used_only_for_whole_valued_columns():
    # Whether a column is integer-valued is decided once, on the source's
    # packet column; a slot stream's source inherits the answer (its own
    # packets could all be whole) and only bounds its total.  Either way the
    # segment sums equal the scalar operators bit for bit.
    from repro.dataplane import vectorized as vz
    from repro.dataplane.slot_stream import StreamSource

    def flow(sizes, payload):
        packets = [Packet(timestamp=0.1 * j, size=size, flags=0x10, direction=1, payload=payload)
                   for j, size in enumerate(sizes)]
        return Flow(five_tuple=FiveTuple(1, 2, 3, 4, 6), packets=packets, label=0,
                    class_name="", flow_id=0)

    fractional = PacketArrays.from_flows([flow([100, 250.5, 300, 40, 41], 10)])
    assert not vz.whole_valued(fractional, "sizes") and vz.whole_valued(fractional, "payloads")
    order = np.array([0, 2, 3])  # whole-valued packets only
    stream = StreamSource(fractional, order, fractional.timestamps[order])
    for soa in (fractional, stream):
        assert vz._prefix_column(soa, "sizes") is None
        assert vz._prefix_column(soa, "sizes_sq") is None
        assert vz._prefix_column(soa, "payloads") is not None
        assert vz._prefix_column(soa, "large") is not None  # a 0/1 indicator
        # An indicator's prefix is a count held narrow; what the aggregator
        # returns is float64 all the same.
        assert vz._prefix_column(soa, "large").dtype == np.int32
        ends = np.array([1, soa.n_packets])
        for feature in _STATEFUL:
            values = _WindowAggregator(soa).compute(feature.index, ends - 1, ends)
            assert values.dtype == np.float64, feature.name
    huge = PacketArrays.from_flows([flow([2.0**52, 2.0**52, 2.0**52], 10)])
    assert vz.whole_valued(huge, "sizes") and vz._prefix_column(huge, "sizes") is None
    assert vz._prefix_column(huge, "payloads") is not None
    negative = PacketArrays.from_flows([flow([100, 200], -1)])
    assert not vz.whole_valued(negative, "payloads")

    byte_count = next(f for f in _STATEFUL if f.name == "byte_count")
    s, e = np.array([0, 1, 3]), np.array([2, 5, 5])
    got = _WindowAggregator(fractional).compute(byte_count.index, s, e)
    want = []
    for a, b in zip(s.tolist(), e.tolist()):
        operator = make_operator("byte_count")
        for size in fractional.sizes[a:b].tolist():
            operator.update(Packet(timestamp=0.0, size=size))
        want.append(operator.value)
    assert got.tolist() == want


def _loop_sums(diffs, s, e):
    acc = np.zeros(s.size)
    acc_sq = np.zeros(s.size)
    for row, (a, b) in enumerate(zip(s.tolist(), e.tolist())):
        total = total_sq = 0.0
        for position in range(a + 1, b):
            total += diffs[position]
            total_sq += diffs[position] * diffs[position]
        acc[row], acc_sq[row] = total, total_sq
    return acc, acc_sq


def _skewed_shapes():
    rng = np.random.default_rng(5)
    # One 500-packet row among 300 two-packet rows.
    lengths = np.full(301, 2)
    lengths[137] = 500
    yield "one-long-row", rng.permutation(lengths)
    yield "all-length-1", np.ones(40, dtype=np.int64)
    yield "zero-rows", np.zeros(0, dtype=np.int64)
    yield "powers-of-two", np.array([1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65, 129])
    yield "random", rng.integers(1, 90, size=200)


@pytest.mark.parametrize("shape", list(_skewed_shapes()), ids=lambda shape: shape[0])
def test_iat_sums_equal_a_literal_loop(shape):
    _name, lengths = shape
    rng = np.random.default_rng(int(lengths.sum()))
    e = np.cumsum(lengths).astype(np.intp)
    s = (e - lengths).astype(np.intp)
    # Wide dynamic range, so any reordering of the additions shows.
    diffs = rng.exponential(1.0, size=int(lengths.sum())) * 10.0 ** rng.integers(
        -6, 3, size=int(lengths.sum())
    )
    # Rows out of source order, as the live set of a replay round is.
    shuffle = rng.permutation(lengths.size)
    s, e = s[shuffle], e[shuffle]
    acc, acc_sq = kernels.iat_sequential_sums(diffs, s, e)
    want, want_sq = _loop_sums(diffs, s, e)
    assert np.array_equal(acc.view(np.int64), want.view(np.int64))
    assert np.array_equal(acc_sq.view(np.int64), want_sq.view(np.int64))


# ----------------------------------------------------------------------
# The round fill: each kernel family once, over the rows whose subtree reads it
# ----------------------------------------------------------------------
class _Counting(_WindowAggregator):
    """An aggregator that records every kernel family it runs, and over how many rows."""

    def __init__(self, soa) -> None:
        super().__init__(soa)
        self.passes: list[tuple[str, int]] = []

    def _sums(self, names, out, rows, s, e):
        self.passes.append(("sums", s.size))
        return super()._sums(names, out, rows, s, e)

    def _extremes(self, names, out, rows, s, e):
        self.passes.append(("extremes", s.size))
        return super()._extremes(names, out, rows, s, e)

    def _iat(self, names, out, rows, s, e):
        self.passes.append(("iat", s.size))
        return super()._iat(names, out, rows, s, e)

    def _ends(self, names, out, rows, s, e):
        self.passes.append(("ends", s.size))
        return super()._ends(names, out, rows, s, e)

    _KERNELS = (_sums, _extremes, _iat, _ends)


@pytest.fixture(scope="module")
def sources(windows):
    """The fixture's packets flow-major, and in arrival order as a slot stream holds them."""
    _, soa, _, _, _ = windows
    order = soa.interleave_order
    return {"packet-arrays": soa, "stream": StreamSource(soa, order, soa.timestamps[order])}


@st.composite
def fill_rounds(draw, n_packets: int):
    """``(features_by_sid, sids, s, e)``: operator banks and one round of windows over them.

    Banks draw from a small palette, so subtrees read overlapping and
    disjoint feature sets (or none); a row may be in a SID no bank has.
    Windows are ranges of the source of 1, 2 or more packets.
    """
    palette = draw(st.lists(st.sampled_from(_STATEFUL), min_size=1, max_size=8, unique=True))
    banks = draw(st.lists(st.lists(st.sampled_from(palette), unique=True), min_size=1,
                          max_size=5))
    features_by_sid = {
        sid: sorted(feature.index for feature in bank) for sid, bank in enumerate(banks, 1)
    }
    n_rows = draw(st.integers(1, 40))
    sids = draw(st.lists(st.integers(1, len(banks) + 1), min_size=n_rows, max_size=n_rows))
    s, e = draw(windows_of(n_packets, n_rows))
    return features_by_sid, np.array(sids, dtype=np.int64), s, e


@st.composite
def windows_of(draw, n_packets: int, n_rows: int):
    """``(s, e)`` of ``n_rows`` windows, ranges of the source of 1, 2 or more packets."""
    lengths = draw(st.lists(st.sampled_from((1, 2)) | st.integers(1, 80), min_size=n_rows,
                            max_size=n_rows))
    s = np.array([draw(st.integers(0, n_packets - length)) for length in lengths])
    return s, s + np.array(lengths)


def _family_of(feature) -> str | None:
    """The kernel family a stateful feature is derived from (``pkt_count``: none)."""
    from repro.dataplane import vectorized as vz

    family = vz._FAMILY_OF[feature.name]
    return None if family is None else FAMILIES[family]


class TestRoundFill:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), source=st.sampled_from(("packet-arrays", "stream")))
    def test_fill_equals_compute_feature_by_feature(self, sources, data, source):
        packets = sources[source]
        features_by_sid, sids, s, e = data.draw(fill_rounds(packets.n_packets))
        aggregator = _Counting(packets)
        matrix = np.full((sids.size, N_FEATURES), np.nan)
        passes = aggregator.fill(matrix, s, e, FillPlan(features_by_sid), sids)

        reads = np.array(
            [[feature.index in features_by_sid.get(sid, ()) for feature in FEATURES]
             for sid in sids.tolist()]
        ).reshape(sids.size, N_FEATURES)
        # Each family some row needs runs once, over exactly the rows that
        # read a feature derived from it; no other family runs.
        readers = {}
        for feature in FEATURES:
            family = _family_of(feature) if feature.stateful else None
            if family is not None:
                readers[family] = readers.get(family, False) | reads[:, feature.index]
        want = sorted((family, int(rows.sum())) for family, rows in readers.items() if rows.any())
        assert sorted(aggregator.passes) == want
        assert passes == len(want) <= len(FAMILIES)
        for feature in FEATURES:
            readers_of = reads[:, feature.index]
            column = matrix[:, feature.index]
            if not readers_of.any():
                # A feature no row reads is never written.
                assert np.isnan(column).all(), feature.name
                continue
            # A reader's cell holds the window's value; any other cell holds
            # it too (its row's family ran) or was not touched.
            want_values = _WindowAggregator(packets).compute(feature.index, s, e)
            assert column[readers_of].tobytes() == want_values[readers_of].tobytes(), \
                feature.name
            written = ~np.isnan(column)
            assert column[written].tobytes() == want_values[written].tobytes(), feature.name
            family = _family_of(feature)
            if family is not None:
                assert not written[~readers[family]].any(), feature.name

    def test_a_round_reading_nothing_runs_no_family(self, sources):
        packets = sources["packet-arrays"]
        aggregator = _Counting(packets)
        matrix = np.full((3, N_FEATURES), np.nan)
        s = np.array([0, 5, 9])
        passes = aggregator.fill(matrix, s, s + 2, FillPlan({1: []}), np.array([1, 1, 7]))
        assert passes == 0 and aggregator.passes == [] and np.isnan(matrix).all()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 60))
    def test_columns_a_subtree_does_not_read_leave_every_verdict_alone(
        self, splidt_model, splidt_rules, windowed3, seed, n_rows
    ):
        rng = np.random.default_rng(seed)
        pool = np.vstack([windowed3.partition_matrix(p, "train") for p in range(3)])
        matrix = pool[rng.integers(0, len(pool), n_rows)]
        sids = rng.choice([*splidt_model.subtrees, 999], n_rows)
        shuffled = matrix.copy()
        for row, sid in enumerate(sids.tolist()):
            subtree = splidt_model.subtrees.get(sid)
            used = set() if subtree is None else subtree.features_used()
            unread = [f for f in range(N_FEATURES) if f not in used]
            shuffled[row, unread] = rng.permutation(matrix[row, unread])

        window = rng.integers(0, splidt_model.config.n_partitions, n_rows)
        outcomes = []
        for features in (matrix, shuffled):
            program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=64)
            advance, values = program.step_windows(
                flow_ids=np.arange(n_rows), sids=sids, window_index=window,
                feature_matrix=features, boundary_ts=np.arange(n_rows) + 1.0,
                first_packet_ts=np.zeros(n_rows),
            )
            outcomes.append((advance.tobytes(), values[advance].tobytes(),
                             [column.tobytes() for column in program.verdict_rows()],
                             program.recirculation_stats()))
        assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# A row's round does not change what it is filled and classified with
# ----------------------------------------------------------------------
class TestRoundMixing:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), source=st.sampled_from(("packet-arrays", "stream")))
    def test_a_row_fills_and_steps_alike_alone_or_in_a_mixed_round(
        self, sources, splidt_model, splidt_rules, data, source
    ):
        packets = sources[source]
        subtrees = sorted(splidt_model.subtrees)
        n_rows = data.draw(st.integers(2, 30))
        sids = np.array(data.draw(st.lists(st.sampled_from([*subtrees, 999]),
                                           min_size=n_rows, max_size=n_rows)))
        s, e = data.draw(windows_of(packets.n_packets, n_rows))
        window = np.array(data.draw(st.lists(
            st.integers(0, splidt_model.config.n_partitions - 1), min_size=n_rows,
            max_size=n_rows)))
        # Each subtree's bank plus drawn stateful features, so every family
        # runs over rows of several subtrees; the lookup reads the model's own.
        extra = data.draw(st.lists(st.lists(st.sampled_from(_STATEFUL), max_size=4),
                                   min_size=len(subtrees), max_size=len(subtrees)))
        features_by_sid = {
            sid: sorted(splidt_model.subtrees[sid].features_used()
                        | {feature.index for feature in more})
            for sid, more in zip(subtrees, extra)
        }
        plan = FillPlan(features_by_sid)
        header = np.array(data.draw(st.lists(st.integers(0, 65535), min_size=n_rows,
                                             max_size=n_rows)), dtype=np.float64)

        def close(rows: np.ndarray):
            """Fill and classify rows ``rows`` as one round, on a fresh program."""
            matrix = np.full((rows.size, N_FEATURES), np.nan)
            matrix[:, list(STATELESS_HEADER_INDICES)] = header[rows, None]
            _WindowAggregator(packets).fill(matrix, s[rows], e[rows], plan, sids[rows])
            program = SpliDTDataPlane(splidt_model, splidt_rules, flow_slots=64)
            advance, values = program.step_windows(
                flow_ids=rows, sids=sids[rows], window_index=window[rows],
                feature_matrix=matrix, boundary_ts=e[rows] + 0.5,
                first_packet_ts=s[rows] + 0.25,
            )
            verdicts = {int(flow): row for flow, *row in zip(*(
                column.tolist() for column in program.verdict_rows()))}
            return matrix, advance, values, verdicts, program.recirculation_stats()

        matrix, advance, values, verdicts, _ = close(np.arange(n_rows))
        for row in range(n_rows):
            alone, alone_advance, alone_values, alone_verdicts, _ = close(np.array([row]))
            # The cells the row's subtree reads (a cell it does not read may
            # hold the window's value of a feature another row reads).
            cells = features_by_sid.get(int(sids[row]), [])
            assert matrix[row, cells].tobytes() == alone[0, cells].tobytes(), row
            assert advance[row] == alone_advance[0], row
            if advance[row]:
                assert values[row] == alone_values[0], row
            else:
                assert verdicts[row] == alone_verdicts[row], row
