"""Shared-memory lifecycle tests for :mod:`repro.datasets.shm`.

The process-sharded serving engine depends on three properties checked
here: attach is a bit-exact zero-copy view of every column, close/unlink
are idempotent in any order, and an unlinked segment leaves no trace under
``/dev/shm``.
"""

from __future__ import annotations

import os
from dataclasses import fields

import numpy as np
import pytest

from repro.datasets.flows import PacketArrays
from repro.datasets.shm import SEGMENT_PREFIX, SharedPacketArrays


def _segment_exists(name: str) -> bool:
    return os.path.exists(os.path.join("/dev/shm", name))


@pytest.fixture()
def soa(small_dataset) -> PacketArrays:
    return small_dataset.packet_arrays()


class TestRoundTrip:
    def test_every_column_is_bit_identical(self, soa):
        shared = SharedPacketArrays.create(soa)
        try:
            view = SharedPacketArrays.attach(shared.layout)
            for field_ in fields(PacketArrays):
                if not field_.init:
                    continue  # process-local caches are not shared columns
                original = getattr(soa, field_.name)
                copy = getattr(view.arrays, field_.name)
                assert copy.dtype == original.dtype, field_.name
                assert np.array_equal(copy, original), field_.name
            view.close()
        finally:
            shared.unlink()
            shared.close()

    def test_attached_view_is_zero_copy(self, soa):
        # Writing through the owner's segment must be visible to the
        # attacher: both sides map the same pages.
        shared = SharedPacketArrays.create(soa)
        try:
            writer = SharedPacketArrays.attach(shared.layout)
            reader = SharedPacketArrays.attach(shared.layout)
            writer.arrays.timestamps[0] = 123.456
            assert reader.arrays.timestamps[0] == 123.456
            writer.close()
            reader.close()
        finally:
            shared.unlink()
            shared.close()

    def test_layout_is_picklable(self, soa):
        import pickle

        shared = SharedPacketArrays.create(soa)
        try:
            layout = pickle.loads(pickle.dumps(shared.layout))
            view = SharedPacketArrays.attach(layout)
            assert view.arrays.n_packets == soa.n_packets
            view.close()
        finally:
            shared.unlink()
            shared.close()

    def test_empty_dataset(self):
        shared = SharedPacketArrays.create(PacketArrays.from_flows([]))
        try:
            view = SharedPacketArrays.attach(shared.layout)
            assert view.arrays.n_flows == 0 and view.arrays.n_packets == 0
            view.close()
        finally:
            shared.unlink()
            shared.close()


class TestLifetime:
    def test_segment_named_and_removed_on_unlink(self, soa):
        shared = SharedPacketArrays.create(soa)
        name = shared.layout.segment
        assert name.startswith(SEGMENT_PREFIX)
        assert _segment_exists(name)
        shared.unlink()
        shared.close()
        assert not _segment_exists(name)

    def test_close_and_unlink_are_idempotent(self, soa):
        shared = SharedPacketArrays.create(soa)
        shared.unlink()
        shared.unlink()
        shared.close()
        shared.close()
        assert shared._shm is None
        with pytest.raises(RuntimeError, match="closed"):
            shared.arrays

    def test_unlink_after_close_still_removes_the_name(self, soa):
        # Reverse order: the mapping is gone but the name must still be
        # reclaimable (the crash-cleanup path can hit this ordering).
        shared = SharedPacketArrays.create(soa)
        name = shared.layout.segment
        shared.close()
        assert _segment_exists(name)
        shared.unlink()
        assert not _segment_exists(name)

    def test_attacher_cannot_unlink(self, soa):
        shared = SharedPacketArrays.create(soa)
        try:
            view = SharedPacketArrays.attach(shared.layout)
            view.unlink()  # non-owner: must be a no-op
            assert _segment_exists(shared.layout.segment)
            view.close()
        finally:
            shared.unlink()
            shared.close()

    def test_context_manager_owner_unlinks(self, soa):
        with SharedPacketArrays.create(soa) as shared:
            name = shared.layout.segment
            assert _segment_exists(name)
        assert not _segment_exists(name)


class TestCapacityPreflight:
    def test_oversized_segment_raises_clear_error(self, soa, monkeypatch):
        from repro.datasets import shm as shm_module

        monkeypatch.setattr(shm_module, "_shm_bytes_available", lambda: 1024)
        with pytest.raises(shm_module.SharedMemoryCapacityError) as excinfo:
            SharedPacketArrays.create(soa)
        assert excinfo.value.available == 1024
        assert excinfo.value.requested > 1024
        assert "/dev/shm" in str(excinfo.value)
        # Subclasses MemoryError so generic OOM handling still applies.
        assert isinstance(excinfo.value, MemoryError)

    def test_unknown_capacity_skips_preflight(self, soa, monkeypatch):
        from repro.datasets import shm as shm_module

        monkeypatch.setattr(shm_module, "_shm_bytes_available", lambda: None)
        with SharedPacketArrays.create(soa) as shared:
            assert shared.arrays.n_packets == soa.n_packets

    def test_fitting_segment_passes_preflight(self, soa):
        with SharedPacketArrays.create(soa) as shared:
            assert shared.arrays.n_packets == soa.n_packets
