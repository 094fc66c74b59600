"""DFS read paths: replica-first, striped, degraded (§4.3).

One reader serves the client, repair, the transcoder and the sealer. A
degraded read fetches each survivor once — the data chunks it already
delivered are decode survivors, never fetched again — and a stripe's
checks are one call: a rotten home, two rotten homes, a rotten replica
range and a rotten decode survivor are each caught, every delivered
chunk checked once into its slice. Bytes a replica read serves
unchecked are counted (``ClientReader.unverified_bytes``)."""

import numpy as np
import pytest

from repro.core.schemes import CodeKind, ECScheme, HybridScheme, Replication
from repro.dfs import BaselineDFS, MorphFS
from repro.dfs.filesystem import REPLICATION_BLOCK_CHUNKS
from repro.dfs.client import ReadError

KB = 1024


def hybrid_fs(n_bytes=96 * KB, seed=1, copies=1):
    fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
    data = np.random.default_rng(seed).integers(0, 256, n_bytes, dtype=np.uint8)
    fs.write_file("f", data, HybridScheme(copies, ECScheme(CodeKind.CC, 6, 9)))
    return fs, data


class TestBasicReads:
    def test_full_read_roundtrip(self):
        fs, data = hybrid_fs()
        assert np.array_equal(fs.read_file("f"), data)

    def test_range_read(self):
        fs, data = hybrid_fs()
        out = fs.read_file("f", offset=5000, length=9000)
        assert np.array_equal(out, data[5000:14000])

    def test_range_validation(self):
        fs, data = hybrid_fs()
        with pytest.raises(ValueError):
            fs.read_file("f", offset=-1, length=10)
        with pytest.raises(ValueError):
            fs.read_file("f", offset=0, length=len(data) + 1)

    def test_replication_read(self):
        fs = BaselineDFS(chunk_size=4 * KB)
        data = np.random.default_rng(2).integers(0, 256, 64 * KB, dtype=np.uint8)
        fs.write_file("f", data, Replication(3))
        assert np.array_equal(fs.read_file("f"), data)

    @pytest.mark.parametrize("system", [MorphFS, BaselineDFS], ids=["morph", "baseline"])
    def test_replicated_file_is_cut_into_blocks_of_eight_chunks(self, system):
        fs = system(chunk_size=4 * KB)
        data = np.random.default_rng(4).integers(0, 256, 84 * KB + 100, dtype=np.uint8)
        fs.write_file("f", data, Replication(3))
        blocks = fs.namenode.lookup("f").replica_blocks
        assert REPLICATION_BLOCK_CHUNKS == 8
        assert [(b.first_chunk, b.n_chunks) for b in blocks] == [(0, 8), (8, 8), (16, 6)]
        for block in blocks:
            assert len({copy.node_id for copy in block.copies}) == 3
        assert np.array_equal(fs.read_file("f"), data)

    def test_ec_read(self):
        fs = BaselineDFS(chunk_size=4 * KB)
        data = np.random.default_rng(3).integers(0, 256, 96 * KB, dtype=np.uint8)
        fs.write_file("f", data, ECScheme(CodeKind.RS, 6, 9))
        assert np.array_equal(fs.read_file("f"), data)


class TestStrategySelection:
    def test_small_hybrid_read_prefers_replica(self):
        """A sub-stripe read should touch only the replica's node."""
        fs, data = hybrid_fs()
        before = {nid: m.disk_bytes_read for nid, m in fs.metrics.nodes.items()}
        fs.read_file("f", offset=0, length=4 * KB)
        touched = [
            nid
            for nid, m in fs.metrics.nodes.items()
            if m.disk_bytes_read > before.get(nid, 0)
        ]
        assert len(touched) == 1
        meta = fs.namenode.lookup("f")
        replica_nodes = {c.node_id for b in meta.replica_blocks for c in b.copies}
        assert touched[0] in replica_nodes

    def test_large_read_uses_stripe(self):
        fs, data = hybrid_fs()
        before = fs.metrics.disk_bytes_read
        out = fs.read_file("f", prefer_striped=True)
        assert np.array_equal(out, data)
        meta = fs.namenode.lookup("f")
        data_nodes = {c.node_id for s in meta.stripes for c in s.data}
        touched = {
            nid for nid, m in fs.metrics.nodes.items() if m.disk_bytes_read > 0
        }
        assert touched <= data_nodes

    def test_replica_dead_falls_to_stripe(self):
        fs, data = hybrid_fs()
        meta = fs.namenode.lookup("f")
        for block in meta.replica_blocks:
            for copy in block.copies:
                fs.cluster.fail_node(copy.node_id)
        assert np.array_equal(fs.read_file("f"), data)


class TestDegradedReads:
    def test_hybrid_degraded_served_from_replica(self):
        """Dead data-chunk node: hybrid reads the replica range (§4.3)."""
        fs, data = hybrid_fs()
        meta = fs.namenode.lookup("f")
        victim = meta.stripes[0].data[2].node_id
        fs.cluster.fail_node(victim)
        out = fs.read_file("f", prefer_striped=True)
        assert np.array_equal(out, data)
        # No decode CPU should have been charged to the client.
        assert fs.metrics.node("client").cpu_seconds == 0

    def test_pure_ec_degraded_decodes(self):
        fs = BaselineDFS(chunk_size=4 * KB)
        data = np.random.default_rng(4).integers(0, 256, 96 * KB, dtype=np.uint8)
        fs.write_file("f", data, ECScheme(CodeKind.RS, 6, 9))
        meta = fs.namenode.lookup("f")
        fs.cluster.fail_node(meta.stripes[0].data[0].node_id)
        out = fs.read_file("f")
        assert np.array_equal(out, data)
        assert fs.metrics.node("client").cpu_seconds > 0  # decode happened

    def test_beyond_tolerance_raises(self):
        fs = BaselineDFS(chunk_size=4 * KB)
        data = np.random.default_rng(5).integers(0, 256, 24 * KB, dtype=np.uint8)
        fs.write_file("f", data, ECScheme(CodeKind.RS, 6, 9))
        meta = fs.namenode.lookup("f")
        for chunk in meta.stripes[0].all_chunks()[:4]:
            fs.cluster.fail_node(chunk.node_id)
        with pytest.raises(ReadError):
            fs.read_file("f")

    def test_hybrid_tolerates_c_plus_r_failures(self):
        """Hy(1, CC(6,9)) survives any 4 chunk losses of one block (§4.4)."""
        fs, data = hybrid_fs()
        meta = fs.namenode.lookup("f")
        stripe = meta.stripes[0]
        block = meta.hybrid_blocks()[0].replicas[0]
        fs.cluster.fail_node(block.copies[0].node_id)  # the replica
        for chunk in stripe.all_chunks()[:3]:  # 3 = n - k stripe chunks
            fs.cluster.fail_node(chunk.node_id)
        assert np.array_equal(fs.read_file("f"), data)

    def test_lrc_degraded_read_local(self):
        fs = MorphFS(chunk_size=4 * KB, future_widths=[12])
        data = np.random.default_rng(6).integers(0, 256, 96 * KB, dtype=np.uint8)
        lrcc = ECScheme(CodeKind.LRCC, 12, 16, local_groups=2, r_global=2)
        fs.write_file("f", data, lrcc)
        meta = fs.namenode.lookup("f")
        fs.cluster.fail_node(meta.stripes[0].data[1].node_id)
        before = fs.metrics.disk_bytes_read
        out = fs.read_file("f")
        assert np.array_equal(out, data)


class TestDeletion:
    def test_delete_frees_everything(self):
        fs, data = hybrid_fs()
        assert fs.capacity_used() > 0
        fs.delete_file("f")
        assert fs.capacity_used() == 0
        with pytest.raises(KeyError):
            fs.read_file("f")
