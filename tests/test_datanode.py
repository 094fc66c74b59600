"""Datanode storage: buffer cache, persistence, metering."""

import numpy as np
import pytest

from repro.cluster.metrics import IOMetrics
from repro.dfs import datanode
from repro.dfs.datanode import BufferCacheFullError, ChunkNotFoundError, Datanode


def make():
    metrics = IOMetrics()
    return Datanode("dn0", metrics), metrics


class TestBufferCache:
    def test_memory_receive_costs_no_disk_io(self):
        dn, metrics = make()
        dn.receive_to_memory("c1", np.ones(100, np.uint8), src="client")
        assert metrics.node("dn0").disk_bytes_written == 0
        assert metrics.node("dn0").net_bytes_in == 100
        assert dn.has_chunk("c1")
        assert not dn.chunk_on_disk("c1")

    def test_persist_charges_disk_write(self):
        dn, metrics = make()
        dn.receive_to_memory("c1", np.ones(100, np.uint8), src="client")
        dn.persist("c1")
        assert metrics.node("dn0").disk_bytes_written == 100
        assert dn.chunk_on_disk("c1")
        assert metrics.node("dn0").memory_in_use_bytes == 0

    def test_drop_from_memory_is_free(self):
        dn, metrics = make()
        dn.receive_to_memory("c1", np.ones(64, np.uint8), src="client")
        dn.drop_from_memory("c1")
        assert metrics.node("dn0").disk_bytes_written == 0
        assert not dn.has_chunk("c1")

    def test_cache_capacity_enforced(self, monkeypatch):
        monkeypatch.setattr(datanode, "BUFFER_CACHE_BYTES", 150)
        dn, _ = make()
        dn.receive_to_memory("c1", np.ones(100, np.uint8), src="client")
        with pytest.raises(BufferCacheFullError):
            dn.receive_to_memory("c2", np.ones(100, np.uint8), src="client")

    def test_memory_peak_tracked(self):
        dn, metrics = make()
        dn.receive_to_memory("c1", np.ones(300, np.uint8), src="client")
        dn.receive_to_memory("c2", np.ones(200, np.uint8), src="client")
        dn.drop_from_memory("c1")
        assert metrics.node("dn0").memory_peak_bytes == 500
        assert metrics.node("dn0").memory_in_use_bytes == 200

    def test_persist_idempotent_for_disk_chunks(self):
        dn, metrics = make()
        dn.receive_to_disk("c1", np.ones(50, np.uint8), src="client")
        dn.persist("c1")  # already on disk: no-op
        assert metrics.node("dn0").disk_bytes_written == 50

    def test_persist_missing_raises(self):
        dn, _ = make()
        with pytest.raises(ChunkNotFoundError):
            dn.persist("nope")


class TestReads:
    def test_disk_read_metered(self):
        dn, metrics = make()
        dn.receive_to_disk("c1", np.arange(80, dtype=np.uint8), src="client")
        out = dn.read("c1")
        assert np.array_equal(out, np.arange(80, dtype=np.uint8))
        assert metrics.node("dn0").disk_bytes_read == 80

    def test_memory_read_free(self):
        dn, metrics = make()
        dn.receive_to_memory("c1", np.ones(80, np.uint8), src="client")
        dn.read("c1")
        assert metrics.node("dn0").disk_bytes_read == 0

    def test_range_read_metered_at_length(self):
        dn, metrics = make()
        dn.receive_to_disk("c1", np.arange(100, dtype=np.uint8), src="client")
        out = dn.read_range("c1", 10, 20)
        assert out.tolist() == list(range(10, 30))
        assert metrics.node("dn0").disk_bytes_read == 20

    def test_dead_node_unreadable(self):
        dn, _ = make()
        dn.receive_to_disk("c1", np.ones(10, np.uint8), src="client")
        dn.fail()
        with pytest.raises(ChunkNotFoundError):
            dn.read("c1")
        dn.recover()
        assert dn.read("c1") is not None

    def test_missing_chunk_raises(self):
        dn, _ = make()
        with pytest.raises(ChunkNotFoundError):
            dn.read("ghost")


class TestCapacity:
    def test_bytes_at_rest(self):
        dn, _ = make()
        dn.receive_to_disk("c1", np.ones(100, np.uint8), src="client")
        dn.receive_to_memory("c2", np.ones(50, np.uint8), src="client")
        assert dn.bytes_at_rest() == 100
        assert dn.memory_bytes() == 50

    def test_delete_frees_capacity(self):
        dn, _ = make()
        dn.receive_to_disk("c1", np.ones(100, np.uint8), src="client")
        dn.delete("c1")
        assert dn.bytes_at_rest() == 0

    def test_store_local_no_network(self):
        dn, metrics = make()
        dn.store_local("c1", np.ones(40, np.uint8))
        assert metrics.node("dn0").net_bytes_in == 0
        assert metrics.node("dn0").disk_bytes_written == 40
