"""Checksums, corruption detection and the scrubber (§6.1)."""

import numpy as np

from repro.core.schemes import CodeKind, ECScheme, HybridScheme
from repro.dfs import BaselineDFS, MorphFS
from repro.dfs.integrity import ChecksumRegistry, Scrubber, chunk_checksum, corrupt_chunk

KB = 1024


def hybrid_fs(seed=1):
    fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
    data = np.random.default_rng(seed).integers(0, 256, 96 * KB, dtype=np.uint8)
    fs.write_file("f", data, HybridScheme(1, ECScheme(CodeKind.CC, 6, 9)))
    return fs, data


class TestRegistry:
    def test_record_and_verify(self):
        reg = ChecksumRegistry()
        data = np.arange(100, dtype=np.uint8)
        reg.record("c1", data)
        assert reg.verify("c1", data)
        assert not reg.verify("c1", data[::-1].copy())

    def test_unknown_chunk_cannot_be_disputed(self):
        reg = ChecksumRegistry()
        assert reg.verify("ghost", np.zeros(4, np.uint8))

    def test_forget(self):
        reg = ChecksumRegistry()
        reg.record("c1", np.zeros(4, np.uint8))
        reg.forget("c1")
        assert len(reg) == 0
        assert reg.expected("c1") is None

    def test_checksum_sensitivity(self):
        a = np.zeros(64, np.uint8)
        b = a.copy()
        b[63] = 1
        assert chunk_checksum(a) != chunk_checksum(b)


class TestChecksumValue:
    """``chunk_checksum`` is CRC32 of the chunk's bytes in index order,
    whatever the memory layout of the array handed in."""

    def test_contiguous_sliced_and_empty_inputs(self):
        import zlib

        base = np.random.default_rng(3).integers(0, 256, 1 << 16, dtype=np.uint8)
        square = base.reshape(256, 256)
        for arr in (base, base[5:], base[::3], base[::-1], square[:, 7], base[:0]):
            assert chunk_checksum(arr) == zlib.crc32(bytes(arr.tolist()))
        assert chunk_checksum(base[:0]) == 0


class TestWritePathsRegisterChecksums:
    def test_hybrid_write_registers_everything(self):
        fs, data = hybrid_fs()
        meta = fs.namenode.lookup("f")
        for chunk in meta.all_chunks():
            assert fs.checksums.expected(chunk.chunk_id) is not None

    def test_transcode_registers_new_parities(self):
        fs, data = hybrid_fs()
        fs.transcode("f", ECScheme(CodeKind.CC, 6, 9))
        fs.transcode("f", ECScheme(CodeKind.CC, 12, 15))
        meta = fs.namenode.lookup("f")
        for stripe in meta.stripes:
            for parity in stripe.parities:
                assert fs.checksums.expected(parity.chunk_id) is not None

    def test_delete_forgets(self):
        fs, data = hybrid_fs()
        fs.delete_file("f")
        assert len(fs.checksums) == 0


class TestVerifyOnRead:
    def test_corrupt_data_chunk_detected_and_served_elsewhere(self):
        fs, data = hybrid_fs()
        meta = fs.namenode.lookup("f")
        victim = meta.stripes[0].data[1]
        corrupt_chunk(fs, victim)
        out = fs.read_file("f", prefer_striped=True)
        assert np.array_equal(out, data)  # silently healed via replica
        # The corrupt copy was quarantined.
        assert not fs.datanodes[victim.node_id].has_chunk(victim.chunk_id)

    def test_pure_ec_corruption_triggers_decode(self):
        fs = BaselineDFS(chunk_size=4 * KB)
        data = np.random.default_rng(2).integers(0, 256, 96 * KB, dtype=np.uint8)
        fs.write_file("f", data, ECScheme(CodeKind.RS, 6, 9))
        meta = fs.namenode.lookup("f")
        corrupt_chunk(fs, meta.stripes[0].data[0])
        assert np.array_equal(fs.read_file("f"), data)


class TestScrubber:
    def test_clean_sweep(self):
        fs, data = hybrid_fs()
        report = Scrubber(fs).scan()
        assert report.chunks_scanned > 0
        assert report.corrupt == []

    def test_detects_and_repairs(self):
        fs, data = hybrid_fs()
        meta = fs.namenode.lookup("f")
        victims = [meta.stripes[0].data[2], meta.stripes[1].parities[0]]
        for v in victims:
            corrupt_chunk(fs, v)
        report = Scrubber(fs).scan_and_repair()
        assert len(report.corrupt) == 2
        assert report.repaired == 2
        assert np.array_equal(fs.read_file("f"), data)
        # And a second sweep is clean.
        assert Scrubber(fs).scan().corrupt == []

    def test_repaired_parity_matches_original(self):
        fs, data = hybrid_fs()
        meta = fs.namenode.lookup("f")
        parity = meta.stripes[0].parities[1]
        original = fs.datanodes[parity.node_id].read(parity.chunk_id).copy()
        corrupt_chunk(fs, parity, flip_byte=7)
        Scrubber(fs).scan_and_repair()
        fresh = meta.stripes[0].parities[1]
        rebuilt = fs.datanodes[fresh.node_id].read(fresh.chunk_id)
        assert np.array_equal(rebuilt, original)

    def test_replica_corruption(self):
        fs, data = hybrid_fs()
        meta = fs.namenode.lookup("f")
        corrupt_chunk(fs, meta.replica_blocks[0].copies[0])
        report = Scrubber(fs).scan_and_repair()
        assert report.repaired == 1
        assert np.array_equal(fs.read_file("f"), data)
