"""Stored bytes are immutable: one snapshot at the door, no copy after it.

``write_file`` / ``append_file`` take one private, read-only snapshot of
the caller's buffer; every array a datanode keeps is a view of that
snapshot or a producer's own output, kept read-only and never copied.
These tests alias on purpose — the caller scribbles on what it passed
in, on what it read back, on what a datanode hands out — and pin the
copy count as an exact count of distinct buffers.
"""

import numpy as np
import pytest

from repro.core.schemes import CodeKind, ECScheme, HybridScheme, Replication
from repro.dfs import BaselineDFS, MorphFS
from repro.dfs.audit import audit
from repro.dfs.integrity import Scrubber, corrupt_chunk
from repro.dfs.recovery import RecoveryManager

KB = 1024
CHUNK = 4 * KB
CC69 = ECScheme(CodeKind.CC, 6, 9)
CC1215 = ECScheme(CodeKind.CC, 12, 15)
LRCC1222 = ECScheme(CodeKind.LRCC, 12, 16, local_groups=2, r_global=2)
HY = HybridScheme(1, CC69)


def payload(n_bytes, seed=3):
    return np.random.default_rng(seed).integers(0, 256, n_bytes, dtype=np.uint8)


def morph(**options):
    return MorphFS(chunk_size=CHUNK, future_widths=[6, 12], **options)


DOORS = {
    **{
        f"hybrid-{mode}-{'spanning' if spanning else 'small'}": (
            lambda mode=mode, spanning=spanning: morph(
                parity_mode=mode, spanning_protocol=spanning
            ),
            HY,
        )
        for mode in ("async", "sync", "none")
        for spanning in (False, True)
    },
    "morph-replication3": (morph, Replication(3)),
    "morph-cc69": (morph, CC69),
    "baseline-replication3": (lambda: BaselineDFS(chunk_size=CHUNK), Replication(3)),
    "baseline-rs69": (lambda: BaselineDFS(chunk_size=CHUNK), ECScheme(CodeKind.RS, 6, 9)),
}


def assert_every_read_path(fs, name, want):
    """Replica-first, striped, and degraded with one and two nodes down:
    each returns ``want``. Dead nodes come back before the next case."""
    meta = fs.namenode.lookup(name)
    assert np.array_equal(fs.read_file(name), want)
    assert np.array_equal(fs.read_file(name, 5, CHUNK + 11), want[5 : CHUNK + 16])
    if not meta.stripes:
        homes = [c.node_id for c in meta.replica_blocks[0].copies]
    else:
        assert np.array_equal(fs.read_file(name, prefer_striped=True), want)
        homes = [c.node_id for c in meta.stripes[0].data]
    for down in (homes[:1], homes[:2]):
        for node_id in down:
            fs.cluster.fail_node(node_id)
        assert np.array_equal(fs.read_file(name, prefer_striped=True), want)
        assert np.array_equal(fs.read_file(name, 0, CHUNK), want[:CHUNK])
        for node_id in down:
            fs.cluster.recover_node(node_id)


class TestTheCallersBufferIsTheCallers:
    @pytest.mark.parametrize("door", sorted(DOORS))
    def test_overwriting_the_buffer_after_write_file_changes_nothing(self, door):
        make, scheme = DOORS[door]
        fs = make()
        buffer = payload(53 * KB + 17)  # two stripes, the second padded
        want = buffer.copy()
        fs.write_file("f", buffer, scheme)
        buffer[:] = 0xAA
        assert buffer.flags.writeable  # the door froze its snapshot, not this
        assert audit(fs) == []
        assert_every_read_path(fs, "f", want)

    @pytest.mark.parametrize("mode", ["async", "sync", "none"])
    @pytest.mark.parametrize("spanning", [False, True])
    def test_overwriting_the_buffer_after_append_file_changes_nothing(self, mode, spanning):
        fs = morph(parity_mode=mode, spanning_protocol=spanning)
        first, extra = payload(30 * KB, seed=4), payload(47 * KB + 5, seed=5)
        want = np.concatenate([first, extra])
        fs.write_file("f", first, HY)
        first[:] = 0x55
        fs.append_file("f", extra)  # re-opens the short tail, adds full stripes
        extra[:] = 0x55
        assert audit(fs) == []
        assert_every_read_path(fs, "f", want)
        fs.close_file("f")
        assert audit(fs) == []
        assert_every_read_path(fs, "f", want)

    def test_a_non_array_buffer_is_snapshotted_too(self):
        fs = morph()
        raw = bytearray(payload(24 * KB).tobytes())
        want = np.frombuffer(bytes(raw), dtype=np.uint8)
        fs.write_file("f", np.frombuffer(raw, dtype=np.uint8), HY)
        raw[:] = bytes(len(raw))
        assert np.array_equal(fs.read_file("f"), want)
        assert audit(fs) == []


class TestWhatAReadHandsOut:
    @pytest.mark.parametrize("scheme", [HY, CC69, Replication(3)], ids=str)
    def test_read_file_returns_a_private_writable_array(self, scheme):
        fs = morph()
        want = payload(48 * KB)
        fs.write_file("f", want.copy(), scheme)
        for kwargs in ({}, {"prefer_striped": True}, {"offset": 3, "length": CHUNK}):
            out = fs.read_file("f", **kwargs)
            assert out.flags.writeable and out.flags.owndata
            out[:] = 0
        assert np.array_equal(fs.read_file("f"), want)
        assert audit(fs) == []

    def test_writing_through_a_datanode_read_raises(self):
        fs = morph()
        fs.write_file("f", payload(48 * KB), HY)
        meta = fs.namenode.lookup("f")
        for chunk in meta.all_chunks():
            datanode = fs.datanodes[chunk.node_id]
            with pytest.raises(ValueError, match="read-only"):
                datanode.read(chunk.chunk_id)[0] = 1
            with pytest.raises(ValueError, match="read-only"):
                datanode.read_range(chunk.chunk_id, 8, 16)[0] = 1
        assert audit(fs) == []

    def test_an_array_handed_to_a_datanode_is_handed_over_for_good(self):
        fs = morph()
        datanode = fs.datanodes["dn000"]
        for store in (
            lambda cid, a: datanode.store_local(cid, a),
            lambda cid, a: datanode.receive_to_disk(cid, a, src="client"),
            lambda cid, a: datanode.receive_to_memory(cid, a, src="client"),
        ):
            mine = payload(CHUNK)
            store("c", mine)
            assert datanode.read("c") is mine  # kept, not copied
            with pytest.raises(ValueError, match="read-only"):
                mine[0] ^= 1
            datanode.delete("c")


class TestDamageStaysWhereItWasInjected:
    """A replica block and its stripe's data chunks are views of one
    buffer; ``corrupt_chunk`` is copy-on-write, so rot in one is not rot
    in the other."""

    @staticmethod
    def _fs():
        fs = morph()
        want = payload(24 * KB)  # one full stripe, one replica block
        fs.write_file("f", want, HY)
        meta = fs.namenode.lookup("f")
        (block,), (stripe,) = meta.replica_blocks, meta.stripes
        return fs, want, block.copies[0], stripe

    def test_the_block_and_its_data_chunks_share_one_buffer(self):
        fs, _want, copy, stripe = self._fs()
        block_bytes = fs.datanodes[copy.node_id].read(copy.chunk_id)
        for chunk in stripe.data:
            assert np.shares_memory(
                block_bytes, fs.datanodes[chunk.node_id].read(chunk.chunk_id)
            )

    @pytest.mark.parametrize("victim", ["data", "replica"])
    def test_scrub_finds_exactly_the_one_injected(self, victim):
        fs, want, copy, stripe = self._fs()
        target = stripe.data[2] if victim == "data" else copy
        injected = target.chunk_id  # the repair re-homes it under a fresh id
        corrupt_chunk(fs, target, flip_byte=2 * CHUNK + 9)
        report = Scrubber(fs).scan_and_repair()
        assert report.corrupt == [("f", injected)]
        assert report.repaired == 1
        assert Scrubber(fs).scan().corrupt == []
        assert audit(fs) == []
        assert np.array_equal(fs.read_file("f"), want)
        assert np.array_equal(fs.read_file("f", prefer_striped=True), want)


class TestEveryProducerHandsOverForGood:
    """Rebuilt, merged and moved chunks are stored as the arrays their
    producers made: after each, every stored array is read-only and
    carries its recorded sum."""

    @staticmethod
    def _two_down(fs):
        stripe = fs.namenode.lookup("f").stripes[0]
        down = [stripe.data[1].node_id, stripe.parities[0].node_id]
        for node_id in down:
            fs.cluster.fail_node(node_id)
        return down

    @pytest.mark.parametrize("stage", ["hybrid", "cc69", "cc1215"])
    def test_after_a_repair(self, stage):
        fs = morph()
        want = payload(96 * KB)
        fs.write_file("f", want, HY)
        if stage != "hybrid":
            fs.transcode("f", CC69)
        if stage == "cc1215":
            fs.transcode("f", CC1215)
        self._two_down(fs)
        assert RecoveryManager(fs).recover_all() >= 2
        rebuilt = [
            c for c in fs.namenode.lookup("f").all_chunks() if "/recovered#" in c.chunk_id
        ]
        assert len(rebuilt) >= 2
        assert audit(fs) == []
        assert np.array_equal(fs.read_file("f"), want)

    @pytest.mark.parametrize("target", [CC1215, LRCC1222], ids=["CC(12,15)", "LRCC(12,2,2)"])
    def test_after_a_merge(self, target):
        fs = morph()
        want = payload(96 * KB)
        fs.write_file("f", want, HY)
        fs.transcode("f", CC69)
        assert audit(fs) == []
        fs.transcode("f", target)
        meta = fs.namenode.lookup("f")
        assert meta.scheme == target
        assert audit(fs) == []
        assert Scrubber(fs).scan().corrupt == []
        assert np.array_equal(fs.read_file("f"), want)
        # ... and the merged file still repairs from what it stored.
        fs.cluster.fail_node(meta.stripes[0].data[0].node_id)
        assert RecoveryManager(fs).recover_all() >= 1
        assert audit(fs) == []
        assert np.array_equal(fs.read_file("f"), want)

    def test_after_a_merge_that_relocates_colliding_chunks(self):
        fs = morph(transcode_aware=False)  # unplanned: merge partners collide
        want = payload(96 * KB)
        fs.write_file("f", want, HY)
        fs.transcode("f", CC69)
        fs.transcode("f", CC1215)
        moved = [c for c in fs.namenode.lookup("f").all_chunks() if "/moved#" in c.chunk_id]
        assert moved, "the fixture no longer relocates anything"
        assert audit(fs) == []
        assert np.array_equal(fs.read_file("f"), want)


def distinct_buffer_bytes(arrays):
    """Bytes of memory under ``arrays``, counting shared bytes once:
    the union of their address ranges."""
    spans = sorted(
        (a.__array_interface__["data"][0], a.__array_interface__["data"][0] + a.nbytes)
        for a in arrays
    )
    total, reach = 0, 0
    for start, end in spans:
        total += max(end, reach) - max(start, reach)
        reach = max(end, reach)
    return total


class TestCopyCount:
    def test_one_hybrid_stripe_is_nine_chunks_of_buffer_not_fifteen(self):
        fs = morph()
        fs.write_file("f", payload(6 * CHUNK), HY)  # one full Hy(1,CC(6,9)) stripe
        stored = [a for dn in fs.datanodes.values() for a in dn._disk.values()]
        # 6 data chunks + 1 persisted replica block of 6 + 3 parities ...
        assert len(stored) == 10
        assert sum(a.nbytes for a in stored) == 15 * CHUNK == fs.capacity_used()
        # ... over the door's snapshot (6) and the codec's parities (3).
        assert distinct_buffer_bytes(stored) == 9 * CHUNK
        # The temporary replica left no buffer behind.
        assert all(not dn._memory for dn in fs.datanodes.values())
        assert fs.memory_used() == 0

    @pytest.mark.parametrize("door", sorted(DOORS))
    def test_deleting_every_file_leaves_no_array_behind(self, door):
        make, scheme = DOORS[door]
        fs = make()
        for i in range(3):
            fs.write_file(f"f{i}", payload(30 * KB + i, seed=i), scheme)
        if scheme is HY:
            fs.append_file("f1", payload(20 * KB, seed=9))
            fs.transcode("f2", CC69)
        for i in range(3):
            fs.delete_file(f"f{i}")
        for datanode in fs.datanodes.values():
            assert not datanode._disk and not datanode._memory
        assert fs.memory_used() == 0 and fs.capacity_used() == 0
        assert len(fs.checksums) == 0
