"""Decode once per process, fetch once per read.

A codec is a process-wide value of its scheme (``ECScheme.make_code``):
every filesystem shares its encode plan and its failure-pattern LRU, so
a pattern one filesystem decoded is found, not rebuilt, by the next. And
a degraded read decodes from the data chunks it has already delivered
and verified (``rebuild_slots``'s ``held``), so one lost data chunk of a
whole-stripe read costs k datanode reads, not 2k - 1.
"""

import numpy as np
import pytest

from repro.core.schemes import CodeKind, ECScheme
from repro.dfs import MorphFS
from repro.dfs.datanode import Datanode
from repro.dfs.integrity import corrupt_chunk
from repro.gf import kernels

KB = 1024
CC69 = ECScheme(CodeKind.CC, 6, 9)
CC1215 = ECScheme(CodeKind.CC, 12, 15)
LRCC = ECScheme(CodeKind.LRCC, 12, 16, local_groups=2, r_global=2)


def written(scheme=CC69, n_bytes=72 * KB, seed=1):
    fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
    data = np.random.default_rng(seed).integers(0, 256, n_bytes, dtype=np.uint8)
    fs.write_file("f", data, scheme)
    return fs, data


def degraded_read(fs):
    """Read ``f`` whole with the nodes of its first stripe's first data
    chunk down, and of the second too for an LRC-family code: two lost
    in one group is a pattern for the decode, not for local repair."""
    meta = fs.namenode.lookup("f")
    lost = 2 if meta.scheme.kind is CodeKind.LRCC else 1
    for chunk in meta.stripes[0].data[:lost]:
        fs.cluster.fail_node(chunk.node_id)
    return fs.read_file("f")


class TestOneCodecPerScheme:
    @pytest.mark.parametrize("scheme", [CC69, LRCC], ids=str)
    def test_equal_schemes_give_one_codec_every_filesystem_shares(self, scheme):
        twin = ECScheme(scheme.kind, scheme.k, scheme.n, scheme.local_groups, scheme.r_global)
        assert twin is not scheme and twin.make_code() is scheme.make_code()
        first, second = MorphFS(chunk_size=4 * KB), MorphFS(chunk_size=4 * KB)
        assert first.codec_for(scheme) is second.codec_for(twin) is scheme.make_code()

    def test_a_tail_stripe_shares_the_code_of_its_width(self):
        tails = []
        for _ in range(2):
            fs, _ = written(n_bytes=60 * KB)
            fs.transcode("f", CC1215)
            meta = fs.namenode.lookup("f")
            assert [(s.k, s.n) for s in meta.stripes] == [(12, 15), (6, 9)]
            tails.append(fs.codec_for_stripe(meta, meta.stripes[1]))
        assert tails[0] is tails[1] is CC69.make_code()

    def test_different_schemes_give_different_codecs(self):
        assert CC69.make_code() is not CC1215.make_code()
        bwo = ECScheme(CodeKind.CC, 6, 9, anticipate_parities=4)
        assert bwo.make_code() is not CC69.make_code()
        assert bwo.make_code() is ECScheme(CodeKind.CC, 6, 9, anticipate_parities=4).make_code()


    def test_parity_growing_merges_of_one_shape_share_their_code(self, monkeypatch):
        """Two BWO merges, two groups each, in two filesystems: one code,
        the scheme's own."""
        from repro.codes.bandwidth import BandwidthOptimalCC
        from repro.core.schemes import HybridScheme

        src = ECScheme(CodeKind.CC, 6, 7, anticipate_parities=2)
        used = []
        convert_merge = BandwidthOptimalCC.convert_merge

        def spy(code, *args, **kwargs):
            used.append(code)
            return convert_merge(code, *args, **kwargs)

        monkeypatch.setattr(BandwidthOptimalCC, "convert_merge", spy)
        for seed in (1, 2):
            fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
            data = np.random.default_rng(seed).integers(0, 256, 96 * KB, dtype=np.uint8)
            fs.write_file("f", data, HybridScheme(1, src))
            fs.transcode("f", src)
            fs.transcode("f", ECScheme(CodeKind.CC, 12, 14))
            assert np.array_equal(fs.read_file("f"), data)
        assert len(used) == 4 and all(code is src.make_code() for code in used)


class TestPatternsOutliveAFilesystem:
    @pytest.mark.parametrize("scheme", [CC69, LRCC], ids=str)
    def test_a_second_filesystem_finds_the_first_ones_patterns(self, scheme):
        kernels.clear_plan_caches()
        patterns = scheme.make_code()._pattern_cache._entries
        fs, data = written(scheme)
        first = degraded_read(fs)
        misses = kernels.cache_stats()["pattern_misses"]
        built = list(patterns.items())
        assert misses > 0 and built
        second = degraded_read(written(scheme)[0])
        # Every transform is found, not rebuilt. Only an undecodable try
        # (the LRC family's first k survivors here) misses again: there
        # is nothing to keep for it.
        retried = 1 if scheme.kind is CodeKind.LRCC else 0
        assert kernels.cache_stats()["pattern_misses"] == misses + retried
        assert [(key, id(fused)) for key, fused in patterns.items()] == [
            (key, id(fused)) for key, fused in built
        ]
        assert np.array_equal(first, data) and np.array_equal(second, first)

    def test_clear_plan_caches_empties_every_live_codes_patterns(self):
        kernels.clear_plan_caches()
        for scheme in (CC69, LRCC):
            degraded_read(written(scheme)[0])
        codes = [CC69.make_code(), LRCC.make_code()]
        assert all(len(code._pattern_cache) for code in codes)
        kernels.clear_plan_caches()
        assert not any(len(code._pattern_cache) for code in codes)
        assert kernels.cache_stats()["pattern_entries"] == 0
        # ... and the next read rebuilds what it needs, correctly.
        fs, data = written()
        assert np.array_equal(degraded_read(fs), data)
        assert kernels.cache_stats()["pattern_misses"] > 0


class TestFetchOncePerRead:
    @pytest.fixture
    def reads(self, monkeypatch):
        """Chunk ids read off a datanode, in order, once armed."""
        log = []
        read = Datanode.read

        def spy(datanode, chunk_id):
            log.append(chunk_id)
            return read(datanode, chunk_id)

        monkeypatch.setattr(Datanode, "read", spy)
        return log

    def _one_stripe_down(self):
        fs, data = written(n_bytes=24 * KB)
        (stripe,) = fs.namenode.lookup("f").stripes
        fs.cluster.fail_node(stripe.data[0].node_id)
        return fs, data, stripe

    def test_one_lost_data_chunk_costs_k_reads(self, reads):
        fs, data, stripe = self._one_stripe_down()
        assert np.array_equal(fs.read_file("f"), data)
        # The five live data chunks once each, for the result and the
        # decode alike, plus the first parity: k reads, not 2k - 1.
        expected = [c.chunk_id for c in stripe.data[1:]] + [stripe.parities[0].chunk_id]
        assert reads == expected and len(reads) == stripe.k

    def test_a_rotten_fetched_parity_is_quarantined_and_no_held_chunk(self, reads):
        fs, data, stripe = self._one_stripe_down()
        rotten = stripe.parities[0]
        corrupt_chunk(fs, rotten)
        assert np.array_equal(fs.read_file("f"), data)
        assert not fs.datanodes[rotten.node_id].has_chunk(rotten.chunk_id)
        for chunk in stripe.data[1:] + stripe.parities[1:]:
            assert fs.datanodes[chunk.node_id].has_chunk(chunk.chunk_id), chunk.chunk_id
        # The retry fetched the next parity only: no held chunk twice.
        held = [c.chunk_id for c in stripe.data[1:]]
        assert reads == held + [rotten.chunk_id, stripe.parities[1].chunk_id]

    def test_a_sub_stripe_range_fetches_only_the_chunks_it_lacks(self, reads):
        fs, data, stripe = self._one_stripe_down()
        # Chunks 0..2: chunk 0 is lost, 1 and 2 are delivered and held.
        assert np.array_equal(fs.read_file("f", 0, 12 * KB), data[: 12 * KB])
        ids = [c.chunk_id for c in stripe.all_chunks()]
        assert reads == ids[1:3] + ids[3:7]
