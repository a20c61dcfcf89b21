"""Every vectorised window kernel against the scalar operator it stands for.

End-to-end parity (``test_dataplane_vectorized.py``, ``test_parity_fuzz.py``)
only exercises the features the trained trees happen to pick, on the windows
they happen to see.  Here each stateful feature's
``_WindowAggregator.compute`` is pinned, bit for bit, to a fresh
:func:`~repro.features.stateful.make_operator` fed the same packets, over
arbitrary sub-windows of a flow — and the NumPy IAT sweep to a literal loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataplane import kernels
from repro.dataplane.vectorized import _WindowAggregator
from repro.datasets import SyntheticTrafficGenerator, get_profile
from repro.datasets.flows import FiveTuple, Flow, Packet, PacketArrays
from repro.features.definitions import FEATURES
from repro.features.flowmeter import BURST_GAP_SECONDS
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
    flows = generator.generate(150).flows + [_bursty_flow()]
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
    # packet column; a gathered view inherits the answer (its own packets
    # could all be whole) and only bounds its total.  Either way the segment
    # sums equal the scalar operators bit for bit.
    from repro.dataplane import vectorized as vz
    from repro.dataplane.slot_stream import _packet_view

    def flow(sizes, payload):
        packets = [Packet(timestamp=0.1 * j, size=size, flags=0x10, direction=1, payload=payload)
                   for j, size in enumerate(sizes)]
        return Flow(five_tuple=FiveTuple(1, 2, 3, 4, 6), packets=packets, label=0,
                    class_name="", flow_id=0)

    fractional = PacketArrays.from_flows([flow([100, 250.5, 300, 40, 41], 10)])
    assert not vz.whole_valued(fractional, "sizes") and vz.whole_valued(fractional, "payloads")
    view = _packet_view(fractional, np.array([0, 2, 3]))  # whole-valued packets only
    for soa in (fractional, view):
        assert vz._prefix_column(soa, "sizes") is None
        assert vz._prefix_column(soa, "sizes_sq") is None
        assert vz._prefix_column(soa, "payloads") is not None
        assert vz._prefix_column(soa, "large") is not None  # a 0/1 indicator
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
