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
def streams(draw):
    """``(starts, tuples, sizes, evicting, queries)`` of a random slot stream.

    ``queries`` are ``(lo, hi, owner, run)`` inside run ``run`` each, empty
    ranges included; ``owner`` is a five-tuple id of the run, or -2, one
    that no packet carries.
    """
    lengths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    starts = np.append(0, np.cumsum(lengths))
    n = int(starts[-1])
    column = lambda values: st.lists(values, min_size=n, max_size=n)  # noqa: E731
    tuples = np.array(draw(column(st.integers(0, 2))), dtype=np.int64)
    # Advertised sizes come in stretches of one to four packets.
    stretches = draw(st.lists(st.tuples(st.sampled_from(SIZES), st.integers(1, 4)), min_size=n))
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
        stream=streams(),
        n_partitions=st.integers(1, 4),
        rows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 14)), min_size=18),
    )
    def test_boundary_is_the_first_packet_reaching_its_window_end(
        self, stream, n_partitions, rows
    ):
        # A row has seen ``seen`` packets at ``lo``; the packet at p closes its
        # window iff seen + (p - lo + 1) reaches the window's end.
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
    # 3, whose end would fall at p = 2, but p = 2 advertises 13: the window
    # closes at p = 12.
    sizes = np.array([3, 3] + [13] * 12, dtype=np.int64)
    found, indexed = ss._first_boundary(
        np.array([0]), np.array([0]), np.array([14]), np.array([1]), np.array([0]),
        _events(sizes), 1,
    )
    assert found.tolist() == [12] and indexed == 0


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
