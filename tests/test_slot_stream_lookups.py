"""The slot-stream plane's next-event lookups against brute force.

Each round of :func:`repro.dataplane.slot_stream.replay_slot_stream` reads a
row's next reclaim, eviction and window-boundary packet from next-event
columns instead of scanning for it.  Every lookup answers one question,
"the first position in ``[lo, hi)`` where ...", and is held here to a
literal loop over that range on random streams: repeated five-tuple ids,
interleaved advertised flow sizes, random eviction masks, empty ranges,
ranges that start at a run head, and runs headed by a held open window's
packets (``flow == -1``: tuple id -1, advertised size 0).  The size-class
index the boundary search falls back on is held to the same loop on runs of
many distinct, spoofed sizes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dataplane import slot_stream as ss
from repro.features.window import window_boundaries

#: Advertised flow sizes: small ones interleave window ends, ``2**40`` never closes.
SIZES = (1, 2, 3, 5, 8, 13, 21, 2**40)

@st.composite
def streams(draw, classes: str = "stretches"):
    """``(starts, tuples, sizes, evicting, queries)`` of a random slot stream.

    ``queries`` are ``(lo, hi, owner, run)`` inside run ``run`` each, empty
    ranges included; ``owner`` is a five-tuple id of the run, or -2, one
    that no packet carries.  Advertised sizes come in stretches of one to
    four packets (``classes="stretches"``), alternate between two sizes at
    every packet (``"mixed"``: the stretch lookup rarely answers), or are one
    per run (``"one"``: each run a single size class).
    """
    lengths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    starts = np.append(0, np.cumsum(lengths))
    n = int(starts[-1])
    column = lambda values: st.lists(values, min_size=n, max_size=n)  # noqa: E731
    tuples = np.array(draw(column(st.integers(0, 2))), dtype=np.int64)
    if classes == "one":
        sizes = np.repeat(draw(st.lists(st.sampled_from(SIZES), min_size=len(lengths),
                                        max_size=len(lengths))), lengths).astype(np.int64)
    elif classes == "mixed":
        pair = draw(st.lists(st.sampled_from(SIZES), min_size=2, max_size=2, unique=True))
        sizes = np.array(pair * n, dtype=np.int64)[:n]
    else:
        stretches = draw(st.lists(st.tuples(st.sampled_from(SIZES), st.integers(1, 4)),
                                  min_size=n))
        sizes = np.repeat(*map(np.array, zip(*stretches)))[:n].astype(np.int64)
    evicting = np.array(draw(column(st.booleans())), dtype=bool)
    for run, length in enumerate(lengths):
        held = slice(int(starts[run]), int(starts[run]) + draw(st.integers(0, length - 1)))
        tuples[held], sizes[held] = -1, 0
    queries = []
    for run in range(len(lengths)):
        head, end = int(starts[run]), int(starts[run + 1])
        owners = [-2] + [int(t) for t in tuples[head:end] if t >= 0]
        for _ in range(draw(st.integers(1, 3))):
            lo = draw(st.sampled_from([head, draw(st.integers(head, end))]))
            queries.append(
                (lo, draw(st.integers(lo, end)), draw(st.sampled_from(owners)), run)
            )
    return starts, tuples, sizes, evicting, queries


@st.composite
def size_classes(draw):
    """``(starts, sizes, queries)``: runs of many distinct advertised sizes.

    Sizes are spoofed (anything from 0 to well past the run's length, and
    ``2**40``), come in stretches that repeat a size later in the run, and
    a run may be headed by held packets (size 0).  ``queries`` are
    ``(lo, hi, run, window, seen)``.
    """
    lengths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    starts = np.append(0, np.cumsum(lengths))
    palette = draw(st.lists(st.sampled_from(range(0, 61)) | st.just(2**40), min_size=1,
                            max_size=12))
    stretches = draw(st.lists(st.tuples(st.sampled_from(palette), st.integers(1, 5)),
                              min_size=int(starts[-1])))
    sizes = np.repeat(*map(np.array, zip(*stretches)))[: starts[-1]].astype(np.int64)
    queries = []
    for run, length in enumerate(lengths):
        head, end = int(starts[run]), int(starts[run + 1])
        sizes[head:head + draw(st.integers(0, length - 1))] = 0
        for _ in range(draw(st.integers(1, 4))):
            lo = draw(st.integers(head, end))
            hi = draw(st.integers(lo, end))
            queries.append((lo, hi, run, draw(st.integers(0, 3)), draw(st.integers(0, 60))))
    return starts, sizes, queries


def _brute(lo: int, hi: int, test) -> int:
    """The first position in ``[lo, hi)`` where ``test`` holds, else ``hi``."""
    return next((p for p in range(lo, hi) if test(p)), hi)


def _columns(queries) -> tuple[np.ndarray, ...]:
    """``queries`` as columns."""
    return tuple(np.array(column, dtype=np.int64) for column in zip(*queries))


class TestNextEventLookups:
    @settings(max_examples=200, deadline=None)
    @given(stream=streams())
    def test_reclaim_is_the_first_packet_of_another_tuple(self, stream):
        starts, tuples, _, _, queries = stream
        lo, hi, owner, _ = _columns(queries)
        found = ss._first_other_tuple(tuples, ss._next_change(tuples, starts), lo, hi, owner)
        for i, (a, b, resident, _) in enumerate(queries):
            assert found[i] == _brute(a, b, lambda p: tuples[p] != resident), queries[i]

    @settings(max_examples=200, deadline=None)
    @given(stream=streams())
    def test_eviction_is_the_first_evicting_packet_of_another_tuple(self, stream):
        starts, tuples, _, evicting, queries = stream
        lo, hi, owner, _ = _columns(queries)
        found = ss._Evictions(evicting, tuples, starts).first(tuples, lo, hi, owner)
        for i, (a, b, resident, _) in enumerate(queries):
            want = _brute(a, b, lambda p: evicting[p] and tuples[p] != resident)
            assert found[i] == want, queries[i]

    @settings(max_examples=400, deadline=None)
    @given(
        stream=st.sampled_from(("stretches", "mixed", "one")).flatmap(streams),
        n_partitions=st.integers(1, 4),
        rows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 14)), min_size=18),
    )
    def test_boundary_is_the_first_packet_reaching_its_window_end(
        self, stream, n_partitions, rows
    ):
        # A row has seen ``seen`` packets at ``lo``; the packet at p closes its
        # window iff seen + (p - lo + 1) reaches the window's end.  Runs mix
        # size classes in stretches or at every packet, or hold one class.
        starts, tuples, sizes, _, queries = stream
        lo, hi, _, runs = _columns(queries)
        window = np.array([w % n_partitions for w, _ in rows[:lo.size]], dtype=np.int64)
        quota = np.array([seen for _, seen in rows[:lo.size]], dtype=np.int64) - lo + 1
        found, indexed = ss._first_boundary(
            runs, lo, hi, quota, window, ss.StreamEvents(tuples, sizes, starts), n_partitions
        )
        assert 0 <= indexed <= lo.size
        for i, (a, b, _, _) in enumerate(queries):
            end = lambda p: window_boundaries(int(sizes[p]), n_partitions)[window[i]]  # noqa: E731
            assert found[i] == _brute(a, b, lambda p: end(p) - p <= quota[i]), queries[i]

    @settings(max_examples=400, deadline=None)
    @given(stream=size_classes(), n_partitions=st.integers(1, 4))
    def test_the_size_class_index_finds_the_first_closing_packet(self, stream, n_partitions):
        # The index answers any range of a run, whatever stretches precede it.
        starts, sizes, queries = stream
        lo, hi, runs, window, seen = _columns(queries)
        window %= n_partitions
        quota = seen - lo + 1
        events = ss.StreamEvents(np.zeros(sizes.size, dtype=np.int64), sizes, starts)
        found = events.classes.first(runs, lo, hi, quota, window, n_partitions)
        for i, (a, b, _, _, _) in enumerate(queries):
            end = lambda p: window_boundaries(int(sizes[p]), n_partitions)[window[i]]  # noqa: E731
            assert found[i] == _brute(a, b, lambda p: end(p) - p <= quota[i]), queries[i]


@settings(max_examples=200, deadline=None)
@given(
    stream=streams("one"),
    n_partitions=st.integers(1, 4),
    rows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 14)), min_size=18),
)
def test_a_run_of_one_size_class_is_answered_by_arithmetic(stream, n_partitions, rows):
    # Every run advertises one size (held packets aside): the stretch at a
    # row's position reaches the end of its range, so no row needs the index.
    starts, tuples, sizes, _, queries = stream
    lo, hi, _, runs = _columns(queries)
    # Rows start past their run's held packets, as the plane's scans do.
    lo = np.maximum(lo, [next((p for p in range(int(starts[r]), int(starts[r + 1]))
                               if sizes[p] > 0), int(starts[r + 1])) for r in runs])
    hi = np.maximum(hi, lo)
    window = np.array([w % n_partitions for w, _ in rows[:lo.size]], dtype=np.int64)
    quota = np.array([seen for _, seen in rows[:lo.size]], dtype=np.int64) - lo + 1
    events = ss.StreamEvents(tuples, sizes, starts)
    found, indexed = ss._first_boundary(runs, lo, hi, quota, window, events, n_partitions)
    assert indexed == 0 and "classes" not in vars(events)
    for i in range(lo.size):
        end = lambda p: window_boundaries(int(sizes[p]), n_partitions)[window[i]]  # noqa: E731
        assert found[i] == _brute(int(lo[i]), int(hi[i]), lambda p: end(p) - p <= quota[i])


@st.composite
def flow_runs(draw):
    """``(flow, tuples, sizes, starts)`` of a stream: runs of flows' packets, held packets first."""
    n_runs = draw(st.integers(1, 4))
    flow, tuples, sizes, starts = [], [], [], [0]
    for _ in range(n_runs):
        run = [-1] * draw(st.integers(0, 2))  # held packets
        run += draw(st.lists(st.sampled_from(range(6)), min_size=1 if not run else 0,
                             max_size=16))
        flow += run
        starts.append(len(flow))
    flow = np.array(flow, dtype=np.int64)
    # A flow's five-tuple (two flows may share one) and advertised size.
    tuple_of = np.array(draw(st.lists(st.integers(0, 4), min_size=6, max_size=6)))
    size_of = np.array(draw(st.lists(st.integers(0, 8), min_size=6, max_size=6)))
    held = flow < 0
    tuples = np.where(held, -1, tuple_of[flow])
    sizes = np.where(held, 0, size_of[flow])
    return flow, tuples, sizes, np.array(starts)


@settings(max_examples=300, deadline=None)
@given(stream=flow_runs(), n_partitions=st.integers(1, 4))
def test_solo_cuts_follow_runs_of_solo_blocks(stream, n_partitions):
    # Literally: walk each run block by block (a block is a stretch of one
    # flow's packets); a run is cut before a block of another five-tuple
    # than the block before it while every block so far is solo — all of
    # its flow's packets, at least max(size, P) of them.
    flow, tuples, sizes, starts = stream
    want = []
    for run in range(starts.size - 1):
        head, end = int(starts[run]), int(starts[run + 1])
        blocks = [p for p in range(head, end) if p == head or flow[p] != flow[p - 1]]
        for block, following in zip(blocks, blocks[1:]):
            size = following - block
            owner = int(flow[block])
            solo = owner >= 0 and np.count_nonzero(flow == owner) == size and size >= max(
                int(sizes[block]), n_partitions)
            if not solo or tuples[following] == tuples[block]:
                break
            want.append(following)
    events = ss.StreamEvents(tuples, sizes, starts)
    assert ss._solo_cuts(flow, events, n_partitions).tolist() == want


def test_next_change_stops_at_run_heads():
    # Runs [0, 3) and [3, 5) of one value: every position reads its run's end.
    starts = np.array([0, 3, 5])
    assert ss._next_change(np.zeros(5, dtype=np.int64), starts).tolist() == [3, 3, 3, 5, 5]


def _events(sizes: np.ndarray) -> ss.StreamEvents:
    """The next-event columns of one run advertising ``sizes``."""
    return ss.StreamEvents(np.zeros(sizes.size, dtype=np.int64), sizes, np.array([0, sizes.size]))


def test_the_size_class_index_serves_only_rows_past_the_stretches():
    # Sizes alternate every packet, so a row whose window closes late in the
    # run outlives the stretch lookups and the index answers it; one closing
    # in its first stretch is not indexed.
    sizes = np.array([30, 24] * 6, dtype=np.int64)
    lo, hi = np.array([0, 0]), np.array([12, 12])
    # Window 0 ends at 10 packets (size 30) or 8 (size 24).
    found, indexed = ss._first_boundary(
        np.array([0, 0]), lo, hi, np.array([1, 20]), np.array([0, 0]), _events(sizes), 3
    )
    assert found.tolist() == [7, 0] and indexed == 1


def test_a_window_end_at_a_stretch_end_belongs_to_the_next_stretch():
    # One window (P = 1) ends at the advertised size.  Two packets advertise
    # 3, whose end would fall at p = 2, but p = 2 advertises 13: the stretch
    # lookup does not claim p = 2, and the size-class index finds the close
    # at p = 12.
    sizes = np.array([3, 3] + [13] * 12, dtype=np.int64)
    found, indexed = ss._first_boundary(
        np.array([0]), np.array([0]), np.array([14]), np.array([1]), np.array([0]),
        _events(sizes), 1,
    )
    assert found.tolist() == [12] and indexed == 1


def test_a_range_of_one_advertised_size_is_answered_by_arithmetic():
    # A row whose range advertises one size (a solo row) closes where its
    # stretch says, or not at all; the size-class index is never built.
    sizes = np.full(10, 9, dtype=np.int64)
    events = _events(sizes)
    # Windows 0, 1 and 2 end at 3, 6 and 9 packets; the rows have seen 0, 3
    # and 5 packets at lo = 0, 4 and 2 (quota = seen - lo + 1).
    found, indexed = ss._first_boundary(
        np.array([0, 0, 0]), np.array([0, 4, 2]), np.array([10, 10, 5]), np.array([1, 0, 4]),
        np.array([0, 1, 2]), events, 3,
    )
    assert found.tolist() == [2, 6, 5] and indexed == 0
    assert "classes" not in vars(events)


def test_the_index_skips_a_class_stretch_ending_at_the_window_end():
    # One window (P = 1) of quota 1 closes under size 9 from p = 8 on.  The
    # stretch of 9 at p = 4..7 ends exactly there (p = 8 advertises 20), so
    # the class's first closing packet is p = 9, past the stretch lookups.
    sizes = np.array([9, 20, 9, 20, 9, 9, 9, 9, 20, 9, 9], dtype=np.int64)
    events = _events(sizes)
    found, indexed = ss._first_boundary(
        np.array([0]), np.array([0]), np.array([11]), np.array([1]), np.array([0]), events, 1
    )
    assert found.tolist() == [9] and indexed == 1
    assert events.classes.sizes.tolist() == [9, 20]
