"""Unit tests for window segmentation."""

from __future__ import annotations

import numpy as np
import pytest

from feature_reference import split_packets
from repro.datasets.flows import Packet
from repro.features.window import window_boundaries, window_bounds


def _packets(n: int) -> list[Packet]:
    return [Packet(timestamp=i * 0.1, size=100 + i) for i in range(n)]


class TestWindowBoundaries:
    def test_even_division(self):
        assert window_boundaries(12, 3) == [4, 8, 12]

    def test_remainder_goes_to_early_windows(self):
        assert window_boundaries(10, 3) == [4, 7, 10]

    def test_single_window(self):
        assert window_boundaries(7, 1) == [7]

    def test_more_windows_than_packets(self):
        boundaries = window_boundaries(2, 4)
        assert boundaries[-1] == 2
        assert len(boundaries) == 4

    def test_zero_packets(self):
        assert window_boundaries(0, 3) == [0, 0, 0]

    def test_last_boundary_equals_packet_count(self):
        for n in (1, 5, 17, 100):
            for windows in (1, 2, 3, 7):
                assert window_boundaries(n, windows)[-1] == n

    def test_boundaries_non_decreasing(self):
        boundaries = window_boundaries(23, 5)
        assert all(a <= b for a, b in zip(boundaries, boundaries[1:]))

    def test_invalid_windows(self):
        with pytest.raises(ValueError):
            window_boundaries(10, 0)

    def test_negative_packets(self):
        with pytest.raises(ValueError):
            window_boundaries(-1, 2)


class TestWindowBounds:
    def test_equals_window_boundaries(self):
        counts = np.arange(301)
        for windows in range(1, 9):
            bounds = window_bounds(counts, windows)
            assert bounds.shape == (301, windows)
            assert bounds.tolist() == [window_boundaries(n, windows) for n in counts]

    def test_rejects_what_window_boundaries_rejects(self):
        with pytest.raises(ValueError):
            window_bounds(np.array([3]), 0)
        with pytest.raises(ValueError):
            window_bounds(np.array([3, -1]), 2)


class TestSplitPackets:
    def test_windows_cover_all_packets(self):
        packets = _packets(13)
        windows = split_packets(packets, 4)
        assert sum(len(w) for w in windows) == 13
        flattened = [p for w in windows for p in w]
        assert flattened == packets

    def test_window_count(self):
        windows = split_packets(_packets(9), 3)
        assert len(windows) == 3

    def test_uniformity(self):
        windows = split_packets(_packets(12), 3)
        assert [len(w) for w in windows] == [4, 4, 4]

    def test_empty_flow(self):
        windows = split_packets([], 3)
        assert [len(w) for w in windows] == [0, 0, 0]

    def test_windows_preserve_order(self):
        windows = split_packets(_packets(10), 2)
        assert windows[0][-1].timestamp < windows[1][0].timestamp

