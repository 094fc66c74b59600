"""Checksums, corruption detection and the scrubber (§6.1)."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schemes import CodeKind, ECScheme, HybridScheme, Replication
from repro.dfs import BaselineDFS, MorphFS, integrity
from repro.dfs.client import ReadError
from repro.dfs.integrity import (
    ChecksumRegistry,
    Scrubber,
    chunk_checksum,
    corrupt_chunk,
    crc32_concat,
)
from repro.dfs.recovery import RecoveryError, RecoveryManager
from repro.gf import kernels
from tests.test_kernel_split import force_split

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


class TestVerifyMany:
    """One verdict per ``(chunk_id, data, into or None)`` item, each what
    ``verify`` answers alone, whether the call runs inline or split — a
    whole chunk a part, a long chunk's ranges folded — and a batch with a
    chunk under ``SPLIT_MIN_BYTES`` never splits: its parts would be
    groups of small chunks."""

    SIZES = [20 * KB + 3, 4 * KB, 6 * KB, 9 * KB, 4 * KB, 17 * KB]

    def check(self, monkeypatch, sizes):
        splits = []
        crc_split = integrity.split
        monkeypatch.setattr(
            integrity, "split", lambda fn, n, nbytes: splits.append(n) or crc_split(fn, n, nbytes)
        )
        rng = np.random.default_rng(7)
        data = [rng.integers(0, 256, n, dtype=np.uint8) for n in sizes]
        reg = ChecksumRegistry()
        for i, chunk in enumerate(data):
            if i != 3:  # chunk 3 has nothing recorded: it cannot be disputed
                reg.record(f"c{i}", chunk)
        served = [chunk.copy() for chunk in data]
        served[0][-1] ^= 1  # the last range of the long chunk
        served[4][0] ^= 1
        intos = [np.zeros(n, np.uint8) if i % 2 else None for i, n in enumerate(sizes)]
        items = [(f"c{i}", chunk, into) for i, (chunk, into) in enumerate(zip(served, intos))]
        del splits[:]  # the records' splits
        assert reg.verify_many(items) == [False, True, True, True, False, True][: len(sizes)]
        for chunk, into in zip(served, intos):
            assert into is None or np.array_equal(into, chunk)
        return splits

    @pytest.mark.parametrize("cores", [2, 3])
    def test_a_mixed_batch_answers_item_by_item(self, monkeypatch, cores):
        force_split(monkeypatch, cores, 4 * KB)  # a chunk of 8 KiB or more is cut
        # the long chunks' ranges and the whole ones, the sum-less one left out
        assert self.check(monkeypatch, self.SIZES) == [5 + 1 + 1 + 1 + 4]

    def test_a_chunk_under_a_part_keeps_the_batch_inline(self, monkeypatch):
        force_split(monkeypatch, 2, 4 * KB)
        # only the long cold chunk splits, by ``chunk_checksum``'s own rule
        assert self.check(monkeypatch, self.SIZES[:5] + [3 * KB]) == [5]
        assert self.check(monkeypatch, [3 * KB] + self.SIZES[1:]) == []

    def test_unsplit_and_empty(self, monkeypatch):
        assert self.check(monkeypatch, self.SIZES) == []
        assert ChecksumRegistry().verify_many([]) == []


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


class TestCrc32Concat:
    """``crc32_concat`` is zlib's ``crc32_combine``: the sum of a
    concatenation from the sums of its parts, no byte touched."""

    @given(data=st.binary(max_size=3000), cuts=st.lists(st.integers(0, 3000), max_size=11))
    @settings(max_examples=200, deadline=None)
    def test_chain_of_parts_equals_crc_of_the_whole(self, data, cuts):
        # 1-12 parts, empty ones on either side included
        bounds = [0] + sorted(min(c, len(data)) for c in cuts) + [len(data)]
        crc = 0
        for lo, hi in zip(bounds, bounds[1:]):
            crc = crc32_concat(crc, zlib.crc32(data[lo:hi]), hi - lo)
        assert crc == zlib.crc32(data)

    @pytest.mark.parametrize("len2", [0, 1, 4 * KB, 1024 * KB])
    @pytest.mark.parametrize("len1", [0, 1, 4 * KB, 1024 * KB])
    def test_chunk_sized_parts(self, len1, len2):
        rng = np.random.default_rng([len1, len2])
        a = rng.integers(0, 256, len1, dtype=np.uint8).tobytes()
        b = rng.integers(0, 256, len2, dtype=np.uint8).tobytes()
        assert crc32_concat(zlib.crc32(a), zlib.crc32(b), len2) == zlib.crc32(a + b)

    def test_record_concat_is_record_of_the_concatenation(self):
        from repro.dfs.blocks import ChunkKind, ChunkMeta

        rng = np.random.default_rng(4)
        reg = ChecksumRegistry()
        parts, arrays = [], []
        for i, n in enumerate([4 * KB, 1, 0, 4 * KB, 777]):
            arrays.append(rng.integers(0, 256, n, dtype=np.uint8))
            parts.append(ChunkMeta(f"p{i}", "dn000", ChunkKind.DATA, n))
            reg.record(f"p{i}", arrays[-1])
        reg.record_concat("derived", parts)
        reg.record("computed", np.concatenate(arrays))
        assert reg.expected("derived") == reg.expected("computed")
        reg.record_concat("copy", parts[:1])  # one part: the same bytes again
        assert reg.expected("copy") == reg.expected("p0")


class _CountingZlib:
    """Stands in for the ``zlib`` module inside ``repro.dfs.integrity``:
    every byte that goes through a CRC there is counted."""

    def __init__(self):
        self.nbytes = 0

    def crc32(self, data, *args):
        self.nbytes += memoryview(data).nbytes
        return zlib.crc32(data, *args)


def _ingest_cases():
    hy = HybridScheme(1, ECScheme(CodeKind.CC, 6, 9))

    def plain(size):
        def ingest():
            fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
            data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8)
            fs.write_file("f", data, hy)
            return fs, data
        return ingest

    def reopened():
        fs, data = plain(30 * KB)()  # a full stripe and an open one
        extra = np.random.default_rng(2).integers(0, 256, 50 * KB, dtype=np.uint8)
        fs.append_file("f", extra)  # re-opens the tail: two more full, one open
        return fs, np.concatenate([data, extra])

    def open_tail():
        fs, _ = plain(0)()
        data = np.random.default_rng(3).integers(0, 256, 20 * KB, dtype=np.uint8)
        fs.append_file("f", data)  # one open 5-chunk tail: replicas, no parities
        return fs, data

    def closed_tail():
        fs, data = reopened()
        fs.close_file("f")  # the open tail is trimmed and sealed
        return fs, data

    def two_copies():
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
        data = np.random.default_rng(4).integers(0, 256, 53 * KB + 17, dtype=np.uint8)
        fs.write_file("f", data, HybridScheme(2, ECScheme(CodeKind.CC, 6, 9)))
        return fs, data

    return {
        "unpadded": plain(48 * KB),
        "padded_final_stripe": plain(53 * KB + 17),
        "append_reopen": reopened,
        "append_open_tail": open_tail,
        "append_closed": closed_tail,
        "two_replica_copies": two_copies,
    }


class TestDerivedSums:
    """A hybrid stripe's replica block is its data chunks end to end, so
    its sum is derived from theirs — and is, bit for bit, the CRC-32 of
    the bytes the block's datanodes hold."""

    @pytest.mark.parametrize("case", sorted(_ingest_cases()))
    def test_every_recorded_sum_is_the_crc_of_the_stored_bytes(self, case):
        fs, data = _ingest_cases()[case]()
        meta = fs.namenode.lookup("f")
        assert meta.replica_blocks and all(b.copies for b in meta.replica_blocks)
        for chunk in meta.all_chunks():
            stored = fs.datanodes[chunk.node_id]._disk[chunk.chunk_id]
            assert fs.checksums.expected(chunk.chunk_id) == zlib.crc32(stored.tobytes())
        assert len(fs.checksums) == len(list(meta.all_chunks()))
        assert np.array_equal(fs.read_file("f"), data)
        assert Scrubber(fs).scan().corrupt == []

    @pytest.mark.parametrize("case", sorted(_ingest_cases()))
    def test_a_flipped_replica_byte_is_found_by_scrub_and_refused_by_a_read(self, case):
        for check in ("scrub", "read"):
            fs, data = _ingest_cases()[case]()
            meta = fs.namenode.lookup("f")
            copy = meta.replica_blocks[-1].copies[0]
            corrupt_chunk(fs, copy, flip_byte=4 * KB + 3)  # in the block's chunk 1
            if check == "scrub":
                assert Scrubber(fs).scan().corrupt == [("f", copy.chunk_id)]
            else:
                # with the chunk's home down its replica range serves it:
                # refused, quarantined, and the next source tried
                fs.datanodes[meta.stripes[-1].data[1].node_id].fail()
                assert np.array_equal(fs.read_file("f"), data)
            assert not fs.datanodes[copy.node_id].has_chunk(copy.chunk_id)

    def test_hybrid_ingest_crcs_one_and_a_half_bytes_per_user_byte(self, monkeypatch):
        """Data chunks once, three parities over six: 1.5. The replica
        block's own pass (2.5) is derived instead."""
        counter = _CountingZlib()
        monkeypatch.setattr(integrity, "zlib", counter)
        fs, data = _ingest_cases()["unpadded"]()
        assert counter.nbytes == 1.5 * data.nbytes

    @pytest.mark.parametrize(
        "scheme, per_byte",
        [
            (HybridScheme(2, ECScheme(CodeKind.CC, 6, 9)), 1.5),
            (HybridScheme(1, ECScheme(CodeKind.CC, 12, 15)), 1.25),
            (HybridScheme(1, ECScheme(CodeKind.CC, 4, 8)), 2.0),
        ],
        ids=str,
    )
    def test_hybrid_ingest_crcs_n_over_k_bytes_per_user_byte(self, monkeypatch, scheme, per_byte):
        """Whatever the replica count: every copy's sum is derived."""
        counter = _CountingZlib()
        monkeypatch.setattr(integrity, "zlib", counter)
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
        data = np.random.default_rng(7).integers(0, 256, 48 * KB, dtype=np.uint8)
        fs.write_file("f", data, scheme)
        assert counter.nbytes == per_byte * data.nbytes

    def test_an_open_append_tail_crcs_each_user_byte_once(self, monkeypatch):
        """No parities yet: the data chunks only."""
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
        fs.write_file("f", np.zeros(0, np.uint8), HybridScheme(1, ECScheme(CodeKind.CC, 6, 9)))
        counter = _CountingZlib()
        monkeypatch.setattr(integrity, "zlib", counter)
        data = np.random.default_rng(8).integers(0, 256, 20 * KB, dtype=np.uint8)
        fs.append_file("f", data)
        assert fs.namenode.lookup("f").stripes[-1].parities == []
        assert counter.nbytes == data.nbytes

    def test_replicated_ingest_crcs_each_user_byte_once(self, monkeypatch):
        """One pass per block, not one per persisted copy."""
        counter = _CountingZlib()
        monkeypatch.setattr(integrity, "zlib", counter)
        fs = BaselineDFS(chunk_size=4 * KB)
        data = np.random.default_rng(6).integers(0, 256, 70 * KB + 5, dtype=np.uint8)
        meta = fs.write_file("f", data, Replication(3))
        assert counter.nbytes == data.nbytes
        copies = [c for block in meta.replica_blocks for c in block.copies]
        assert len(copies) == 3 * len(meta.replica_blocks) > 3
        for copy in copies:
            stored = fs.datanodes[copy.node_id]._disk[copy.chunk_id]
            assert fs.checksums.expected(copy.chunk_id) == zlib.crc32(stored.tobytes())


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


# -- every delivered or rebuilt chunk is checked against the sum it fills ------

CC69 = ECScheme(CodeKind.CC, 6, 9)
LRCC1222 = ECScheme(CodeKind.LRCC, 12, 16, local_groups=2, r_global=2)
HY = HybridScheme(1, CC69)


def build(scheme, size, chunk_size=4 * KB, seed=5):
    fs = MorphFS(chunk_size=chunk_size, future_widths=[6, 12], seed=seed)
    data = np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8)
    fs.write_file("f", data, scheme)
    return fs, data, fs.namenode.lookup("f")


def slot_bytes(fs, meta):
    """Stored bytes per chunk slot, in layout order (None = not on disk)."""
    return [
        fs.datanodes[c.node_id]._disk[c.chunk_id].tobytes()
        if fs.datanodes[c.node_id].chunk_on_disk(c.chunk_id)
        else None
        for c in meta.all_chunks()
    ]


def rotten_parity(fs, meta):
    corrupt_chunk(fs, meta.stripes[0].parities[0])


def rotten_local_parity_of_group_0(fs, meta):
    stripe = meta.stripes[0]
    corrupt_chunk(fs, stripe.all_chunks()[stripe.k], flip_byte=11)


def rotten_replica_range(fs, meta):
    # byte 5 of the replica block lies in data chunk 0's range
    corrupt_chunk(fs, meta.replica_blocks[0].copies[0], flip_byte=5)


ROT_CASES = {
    # two faults under CC(6,9): the decode's survivors include the rot
    "cc-rotten-survivor": (CC69, rotten_parity),
    # the k/l local-repair set includes the rot
    "lrcc-rotten-local-peer": (LRCC1222, rotten_local_parity_of_group_0),
    # the lost chunk is served by a clean replica range; the parity rots on
    "hybrid-replica-range-source": (HY, rotten_parity),
    # the replica range that would serve the lost chunk is the rot
    "hybrid-rotten-replica-range": (HY, rotten_replica_range),
}


@pytest.fixture(params=sorted(ROT_CASES))
def rot_case(request):
    scheme, rot = ROT_CASES[request.param]
    fs, data, meta = build(scheme, 96 * KB)
    pristine = slot_bytes(fs, meta)
    ids = [c.chunk_id for c in meta.all_chunks()]
    rot(fs, meta)
    fs.datanodes[meta.stripes[0].data[0].node_id].fail()
    return fs, data, meta, pristine, ids


class TestRottenSources:
    """One rotten chunk plus one dead node: reads and repairs that source
    from the rot must notice, not pass it on."""

    def test_degraded_read_is_exact(self, rot_case):
        fs, data, meta, _, _ = rot_case
        assert np.array_equal(fs.read_file("f", prefer_striped=True), data)

    def test_repair_never_commits_rot_and_scrub_finishes_the_job(self, rot_case):
        fs, data, meta, pristine, ids = rot_case
        RecoveryManager(fs).recover_all()
        # Whatever repair stored is what the slot held before the damage.
        rebuilt = 0
        for chunk, old_id, was, now in zip(
            meta.all_chunks(), ids, pristine, slot_bytes(fs, meta)
        ):
            if chunk.chunk_id != old_id:
                rebuilt += 1
                assert now == was
        assert rebuilt
        assert RecoveryManager(fs).lost_chunks() == []
        Scrubber(fs).scan_and_repair()
        assert slot_bytes(fs, meta) == pristine
        assert np.array_equal(fs.read_file("f", prefer_striped=True), data)
        report = Scrubber(fs).scan()
        assert report.corrupt == [] and report.quarantined == []

    def test_repair_rebuilds_the_rotten_survivor_it_caught(self):
        fs, data, meta = build(CC69, 96 * KB)
        pristine = slot_bytes(fs, meta)
        stripe = meta.stripes[0]
        rotten_parity(fs, meta)
        fs.datanodes[stripe.data[0].node_id].fail()
        lost = [(meta, stripe.data[0])]
        # the rotten parity joined the erased set: two chunks rebuilt
        assert RecoveryManager(fs).recover_chunks(lost) == 2
        assert slot_bytes(fs, meta)[: stripe.n] == pristine[: stripe.n]

    def test_unrecoverable_rot_raises_instead_of_returning_bytes(self):
        # CC(6,9) survives three faults; three dead nodes plus one rotten
        # survivor is four.
        fs, data, meta = build(CC69, 24 * KB)
        stripe = meta.stripes[0]
        for chunk in stripe.data[:3]:
            fs.datanodes[chunk.node_id].fail()
        rotten_parity(fs, meta)
        with pytest.raises(ReadError):
            fs.read_file("f")
        with pytest.raises(RecoveryError):
            RecoveryManager(fs).recover_all()


class TestQuarantinedByRead:
    def test_scrub_rebuilds_a_chunk_verify_on_read_quarantined(self):
        fs, data = hybrid_fs()
        meta = fs.namenode.lookup("f")
        victim = meta.stripes[0].data[1]
        corrupt_chunk(fs, victim)
        fs.read_file("f", prefer_striped=True)
        assert not fs.datanodes[victim.node_id].has_chunk(victim.chunk_id)
        assert RecoveryManager(fs).lost_chunks() == []  # its node is alive
        report = Scrubber(fs).scan_and_repair()
        assert report.corrupt == []  # nothing left on disk to mismatch
        assert [c for _m, c in report.quarantined] == [victim]
        assert report.repaired == 1
        assert fs.datanodes[victim.node_id].has_chunk(victim.chunk_id)
        assert Scrubber(fs).scan().quarantined == []
        assert np.array_equal(fs.read_file("f", prefer_striped=True), data)

    def test_buffered_chunks_are_not_mistaken_for_quarantined(self):
        fs, data = hybrid_fs()
        fs.append_file("f", np.ones(5 * KB, np.uint8))  # open tail stripe
        assert Scrubber(fs).scan().quarantined == []


# -- the fused read against a fetch-verify-copy reference ----------------------

def reference_read(fs, meta, offset, length):
    """Fetch whole chunks (home, else replica range, else decode from
    verified survivors), CRC each through a bytes copy, then slice them
    into a zero-filled result. Reads only; quarantines nothing."""
    cs = meta.chunk_size
    expected = fs.checksums.expected

    def sound(chunk_id, data):
        return data is not None and chunk_checksum(data) == expected(chunk_id)

    def stored(chunk, start=0, n=None):
        if not fs.chunk_readable(chunk):
            return None
        datanode = fs.datanodes[chunk.node_id]
        held = datanode._disk.get(chunk.chunk_id, datanode._memory.get(chunk.chunk_id))
        return held[start : start + (n or len(held))]

    out = np.zeros(length, dtype=np.uint8)
    first = 0
    for stripe in meta.stripes:
        wanted = [
            i for i in range(stripe.k)
            if (first + i) * cs < offset + length and (first + i + 1) * cs > offset
        ]
        fetched = {}
        for i in wanted:
            slot = stripe.data[i]
            data = stored(slot)
            if not sound(slot.chunk_id, data):
                data = None
                for block in meta.replica_blocks:
                    if block.first_chunk <= first + i < block.first_chunk + block.n_chunks:
                        start = (first + i - block.first_chunk) * cs
                        for copy in block.copies:
                            piece = stored(copy, start, cs)
                            if sound(slot.chunk_id, piece):
                                data = piece
                                break
            if data is not None:
                fetched[i] = data
        missing = [i for i in wanted if i not in fetched]
        if missing:
            survivors = {
                idx: stored(c)
                for idx, c in enumerate(stripe.all_chunks())
                if idx not in missing and sound(c.chunk_id, stored(c))
            }
            fetched.update(fs.codec_for_stripe(meta, stripe).decode(survivors, missing))
        for i in wanted:
            c_start = (first + i) * cs
            a, b = max(offset, c_start), min(offset + length, c_start + cs)
            out[a - offset : b - offset] = fetched[i][a - c_start : b - c_start]
        first += stripe.k
    return out


def spy_on_verify(fs):
    """Every check ``fs.checksums`` makes, as ``(chunk_id, into)``, in
    order. ``verify`` is the one-item ``verify_many``, so the batch call
    is the one seam."""
    calls = []
    verify_many = fs.checksums.verify_many

    def spy(items):
        calls.extend((chunk_id, into) for chunk_id, _data, into in items)
        return verify_many(items)

    fs.checksums.verify_many = spy
    return calls


#: How a test cuts the CRCs a read makes, whatever the runner: as the
#: machine would; one whole chunk a part, a stripe's checks across two
#: cores; every chunk also cut into ranges of a quarter chunk.
SPLITS = ["machine", "chunk-parts", "range-parts"]


def force_crc_split(monkeypatch, split, chunk_size):
    """Force ``split`` (one of :data:`SPLITS`) and count the CRC calls
    that reach ``kernels.split`` with two parts or more."""
    splits = []
    if split == "machine":
        return splits
    force_split(monkeypatch, 2, chunk_size if split == "chunk-parts" else chunk_size // 4)
    crc_split = integrity.split

    def spy(fn, n, nbytes_read):
        if min(n, nbytes_read // kernels.SPLIT_MIN_BYTES) >= 2:
            splits.append(n)
        return crc_split(fn, n, nbytes_read)

    monkeypatch.setattr(integrity, "split", spy)
    return splits


def ranges(size, cs):
    """Whole file; mid-chunk to mid-chunk; into the padded tail; one byte."""
    return [
        (0, size),
        (cs // 2, 3 * cs),
        (cs + 7, size - cs - 7),
        (size - cs // 3, cs // 3),
        (2 * cs - 1, 1),
        (cs, 2 * cs),
    ]


FUSED_SCHEMES = {"hybrid": HY, "cc": CC69, "lrcc": LRCC1222}


def build_padded(scheme, chunk_size):
    """Two stripes, the second ending in a part-filled chunk and padding."""
    k = 12 if scheme == "lrcc" else 6
    size = (k + k // 2) * chunk_size + chunk_size // 5
    return (*build(FUSED_SCHEMES[scheme], size, chunk_size), size)


class TestFusedReadDifferential:
    @pytest.mark.parametrize(
        "chunk_size,split",
        [(4 * KB, split) for split in SPLITS]
        + [(64 * KB, split) for split in SPLITS]
        + [(1024 * KB, "machine")],
    )
    @pytest.mark.parametrize("scheme", sorted(FUSED_SCHEMES))
    def test_healthy_reads_match_and_verify_once_per_chunk(
        self, monkeypatch, scheme, chunk_size, split
    ):
        splits = force_crc_split(monkeypatch, split, chunk_size)
        fs, data, meta, size = build_padded(scheme, chunk_size)
        calls = spy_on_verify(fs)
        for offset, length in ranges(size, chunk_size):
            want = reference_read(fs, meta, offset, length)
            assert np.array_equal(want, data[offset : offset + length])
            del calls[:]
            out = fs.read_file("f", offset, length, prefer_striped=True)
            assert out.tobytes() == want.tobytes()
            first, last = offset // chunk_size, (offset + length - 1) // chunk_size
            assert len(calls) == last - first + 1
            # Whole chunks land in the result itself; a chunk wanted only
            # in part — the padded final chunk always — gets a scratch.
            for index, (_chunk_id, into) in zip(range(first, last + 1), calls):
                whole = offset <= index * chunk_size and (index + 1) * chunk_size <= offset + length
                assert np.shares_memory(into, out) == whole
        assert bool(splits) == (split != "machine")

    @pytest.mark.parametrize("split", SPLITS)
    @pytest.mark.parametrize("chunk_size", [4 * KB, 64 * KB])
    @pytest.mark.parametrize(
        "source,scheme",
        [
            (source, scheme)
            for source in ("home", "two-homes", "survivor")
            for scheme in sorted(FUSED_SCHEMES)
        ]
        + [("replica-range", "hybrid")],  # only hybrid files have replica ranges
    )
    def test_one_corruption_at_each_source(self, monkeypatch, source, scheme, chunk_size, split):
        splits = force_crc_split(monkeypatch, split, chunk_size)
        size = build_padded(scheme, chunk_size)[-1]
        for offset, length in ranges(size, chunk_size):
            # a fresh file per range: the first read to meet the rot heals it
            fs, data, meta, _ = build_padded(scheme, chunk_size)
            stripe = meta.stripes[0]
            if source in ("home", "two-homes"):
                # the last byte: the last range of a chunk cut in ranges
                corrupt_chunk(fs, stripe.data[2], flip_byte=chunk_size - 1)
                if source == "two-homes":
                    corrupt_chunk(fs, stripe.data[3], flip_byte=chunk_size // 3)
            else:
                # the home copy is gone: the next source serves data chunk 2
                fs.datanodes[stripe.data[2].node_id].fail()
                if source == "replica-range":
                    corrupt_chunk(
                        fs, meta.replica_blocks[0].copies[0], flip_byte=2 * chunk_size
                    )
                else:
                    for block in meta.replica_blocks:
                        for copy in block.copies:
                            fs.datanodes[copy.node_id].fail()
                    # among the first k survivors, and (LRCC) a local peer
                    corrupt_chunk(fs, stripe.parities[0])
            want = reference_read(fs, meta, offset, length)
            assert np.array_equal(want, data[offset : offset + length])
            out = fs.read_file("f", offset, length, prefer_striped=True)
            assert out.tobytes() == want.tobytes()
        assert bool(splits) == (split != "machine")


class TestUnverifiedReplicaBytes:
    def test_a_replica_range_counts_and_a_whole_file_read_does_not(self):
        """A replica-first read serves a range no recorded sum need
        cover: its bytes are counted, a striped read's are not."""
        from repro.obs import Observability

        obs = Observability()
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12], obs=obs)
        data = np.random.default_rng(3).integers(0, 256, 96 * KB, dtype=np.uint8)
        fs.write_file("f", data, HY)
        assert fs.read_file("f", 5 * KB + 3, 1).tobytes() == data[5 * KB + 3 :][:1].tobytes()
        assert fs.reader.unverified_bytes == 1
        assert np.array_equal(fs.read_file("f"), data)
        assert fs.reader.unverified_bytes == 1
        assert obs.registry.value("dfs_unverified_read_bytes_total") == 1
