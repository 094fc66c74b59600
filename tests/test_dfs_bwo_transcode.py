"""Native parity-growth transcodes via bandwidth-optimal vector codes.

The paper's Fig 15 case B — EC(6,7) -> EC(12,14) — as a first-class DFS
operation: stripes ingested with ``anticipate_parities`` carry the
piggybacked pre-computation, and the native transcoder reads only the
parities plus the contiguous tail fraction of each data chunk.
"""

import numpy as np
import pytest

from repro.core.planner import TranscodeKind, TranscodePlanner
from repro.core.schemes import CodeKind, ECScheme, HybridScheme
from repro.dfs import MorphFS
from repro.dfs.audit import audit
from repro.dfs.transcoder import TranscodeError

KB = 1024
SRC = ECScheme(CodeKind.CC, 6, 7, anticipate_parities=2)
TGT = ECScheme(CodeKind.CC, 12, 14)


def bwo_fs(n_kb=96, seed=1):
    fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
    data = np.random.default_rng(seed).integers(0, 256, n_kb * KB, dtype=np.uint8)
    fs.write_file("f", data, HybridScheme(1, SRC))
    fs.transcode("f", SRC)  # free transition
    return fs, data


class TestSchemeDeclaration:
    def test_validation(self):
        with pytest.raises(ValueError):
            ECScheme(CodeKind.RS, 6, 7, anticipate_parities=2)
        with pytest.raises(ValueError):
            ECScheme(CodeKind.CC, 6, 9, anticipate_parities=3)  # not a growth

    def test_make_code_returns_vector_code(self):
        from repro.codes.bandwidth import BandwidthOptimalCC

        code = SRC.make_code()
        assert isinstance(code, BandwidthOptimalCC)
        assert code.r_initial == 1 and code.r_final == 2

    def test_footprint_unchanged(self):
        assert SRC.storage_overhead == pytest.approx(7 / 6)


class TestPlanner:
    def test_anticipated_growth_is_convertible(self):
        step = TranscodePlanner().plan(SRC, TGT)
        assert step.kind is TranscodeKind.CONVERTIBLE
        # Read multiplier: (r_I + k_I * (r_F-r_I)/r_F) * lam / span = 8/12.
        assert step.cost.read == pytest.approx(8 / 12)

    def test_unanticipated_growth_falls_back_to_rrw(self):
        plain = ECScheme(CodeKind.CC, 6, 7)
        step = TranscodePlanner().plan(plain, TGT)
        assert step.kind is TranscodeKind.RRW


class TestNativeBwoTranscode:
    def test_io_matches_fig8(self):
        fs, data = bwo_fs()
        r0 = fs.metrics.disk_bytes_read
        fs.transcode("f", TGT)
        reads = fs.metrics.disk_bytes_read - r0
        # Per 2-stripe group: 2 full parities + 12 half data chunks = 8
        # chunk-equivalents; 2 groups in a 24-chunk file. RS reads 24.
        assert reads == pytest.approx(16 * 4 * KB)

    def test_result_byte_identical_to_direct_encode(self):
        fs, data = bwo_fs()
        fs.transcode("f", TGT)
        assert fs.namenode.lookup("f").scheme == TGT
        assert audit(fs) == []  # every parity is the encode of its stripe's data

    def test_readback_and_degraded_read(self):
        fs, data = bwo_fs()
        fs.transcode("f", TGT)
        assert np.array_equal(fs.read_file("f"), data)
        meta = fs.namenode.lookup("f")
        for victim in (meta.stripes[0].data[5].node_id,
                       meta.stripes[1].parities[0].node_id):
            fs.cluster.fail_node(victim)
            fs.datanodes[victim].fail()
        assert np.array_equal(fs.read_file("f"), data)

    def test_bwo_stripe_decodes_before_transcode(self):
        """The piggybacked stripes tolerate r_I failures while stored."""
        fs, data = bwo_fs()
        meta = fs.namenode.lookup("f")
        victim = meta.stripes[0].data[2].node_id
        fs.cluster.fail_node(victim)
        fs.datanodes[victim].fail()
        assert np.array_equal(fs.read_file("f"), data)

    def test_growth_without_anticipation_uses_rrw(self):
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
        data = np.random.default_rng(2).integers(0, 256, 96 * KB, dtype=np.uint8)
        fs.write_file("f", data, ECScheme(CodeKind.CC, 6, 7))
        r0 = fs.metrics.disk_bytes_read
        fs.transcode("f", TGT)  # falls back to RRW
        assert fs.metrics.disk_bytes_read - r0 >= len(data)
        assert np.array_equal(fs.read_file("f"), data)

    def test_tail_misalignment_completes_by_rrw(self):
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
        data = np.random.default_rng(3).integers(0, 256, 72 * KB, dtype=np.uint8)
        fs.write_file("f", data, SRC)  # 3 stripes: not divisible by lam=2
        r0 = fs.metrics.disk_bytes_read
        fs.transcode("f", TGT)
        assert fs.metrics.disk_bytes_read - r0 >= len(data)  # the client read it all
        assert fs.namenode.lookup("f").scheme == TGT
        assert np.array_equal(fs.read_file("f"), data)
        assert audit(fs) == []


class TestParityHomes:
    """Every parity of a parity-growth merge on its own node. Parity 4 of
    CC(6,9, ap=5) -> CC(12,17) has no old parity to follow and no slot
    in a window reserving r* = 4, and used to fall back to parity 0's
    home (10 of 10 final stripes shared a node); without k*-aware
    placement a drawn parity node could be a data home, and collision
    relocation never separated two parities (10 of 40)."""

    @pytest.mark.parametrize(
        "source, target, n_chunks, aware",
        [
            (ECScheme(CodeKind.CC, 6, 9, anticipate_parities=5),
             ECScheme(CodeKind.CC, 12, 17), 12, True),
            (ECScheme(CodeKind.CC, 6, 8, anticipate_parities=4),
             ECScheme(CodeKind.CC, 12, 16), 48, False),
        ],
        ids=["beyond-r*", "unplanned"],
    )
    def test_no_final_stripe_shares_a_node(self, source, target, n_chunks, aware):
        chunk = 20 * KB  # divisible by r_F = 4 and 5
        stripes = 0
        for seed in range(10):
            fs = MorphFS(chunk_size=chunk, future_widths=[6, 12], seed=seed,
                         transcode_aware=aware)
            data = np.random.default_rng(seed).integers(
                0, 256, n_chunks * chunk, dtype=np.uint8
            )
            fs.write_file("f", data, HybridScheme(1, source))
            fs.transcode("f", source)
            fs.transcode("f", target)
            stripes += len(fs.namenode.lookup("f").stripes)
            assert audit(fs) == []
            assert np.array_equal(fs.read_file("f"), data)
        assert stripes == n_chunks // 12 * 10


def assert_merged_whole(fs):
    meta = fs.namenode.lookup("f")
    assert meta.scheme == TGT and [s.k for s in meta.stripes] == [12, 12]
    assert audit(fs) == []  # every parity is the encode of its stripe's data


class TestDegradedSources:
    """The BWO merge used to read its sources without asking whether
    they were readable: a dead or cut-off home raised
    ``ChunkNotFoundError`` out of a transcode the other conversions
    serve degraded."""

    def test_merge_with_a_source_node_down(self):
        fs, data = bwo_fs()
        victim = fs.namenode.lookup("f").stripes[0].data[2].node_id
        fs.cluster.fail_node(victim)
        fs.transcode("f", TGT)
        assert np.array_equal(fs.read_file("f"), data)  # degraded
        fs.cluster.recover_node(victim)
        assert_merged_whole(fs)

    def test_merge_across_a_partition_cut(self):
        fs, data = bwo_fs()
        stripe = fs.namenode.lookup("f").stripes[1]
        far = stripe.data[4].node_id
        assert far not in {p.node_id for p in stripe.parities}
        fs.partition.isolate([far])
        node = fs.metrics.node(far)
        before = node.disk_bytes_read, node.net_bytes_out
        fs.transcode("f", TGT)
        assert (node.disk_bytes_read, node.net_bytes_out) == before
        fs.partition.heal()
        assert np.array_equal(fs.read_file("f"), data)
        assert_merged_whole(fs)

    def test_merge_after_the_spare_nodes_die(self):
        """Every node the file does not use but one is dead, so the
        file's k*-window narrows and parity 1 of each final stripe has
        no old parity to follow: the merge still commits, each final
        parity on a live node outside its stripe's data homes."""
        fs, data = bwo_fs()
        listed = {c.node_id for s in fs.namenode.lookup("f").stripes for c in s.all_chunks()}
        spares = [n.node_id for n in fs.cluster.nodes if n.node_id not in listed]
        for node_id in spares[1:]:
            fs.cluster.fail_node(node_id)
        fs.transcode("f", TGT)
        for stripe in fs.namenode.lookup("f").stripes:
            homes = [p.node_id for p in stripe.parities]
            assert all(fs.node_reachable(n, "namenode") for n in homes)
            assert not set(homes) & {c.node_id for c in stripe.data}
        assert np.array_equal(fs.read_file("f"), data)
        assert_merged_whole(fs)

    def test_a_stripe_that_cannot_decode_its_source_names_the_chunk(self):
        fs, data = bwo_fs()
        stripe = fs.namenode.lookup("f").stripes[0]
        for chunk in stripe.data[:2]:  # CC(6,7) survives one loss
            fs.cluster.fail_node(chunk.node_id)
        with pytest.raises(TranscodeError, match=stripe.data[0].chunk_id):
            fs.transcode("f", TGT)
        # Nothing switched: the old stripes are still the file.
        assert fs.namenode.lookup("f").scheme == SRC


class TestNoNativePath:
    """Where no native conversion exists the planner says RRW, and the
    transcode completes by it — inline, or scheduled and drained.

    A parity-growing split or general conversion: BWO in the DFS is
    merge-only, yet the planner priced both as convertible and the
    transcoder raised ``TranscodeError: BWO conversion supports the merge
    regime only``. A parity-keeping merge of BWO-coded stripes, or into a
    BWO-coded target, ran the access-optimal merge and wrote parities the
    audit rejects; CC(6,8) -> CC(12,13) crosses point families (r = 1
    stands apart) and raised ``ValueError``."""

    @pytest.mark.parametrize("scheduled", [False, True], ids=["inline", "scheduled"])
    @pytest.mark.parametrize(
        "source, target",
        [
            (ECScheme(CodeKind.CC, 12, 15, anticipate_parities=4), ECScheme(CodeKind.CC, 6, 10)),
            (ECScheme(CodeKind.CC, 6, 9, anticipate_parities=4), ECScheme(CodeKind.CC, 9, 13)),
            (ECScheme(CodeKind.CC, 6, 8, anticipate_parities=4), ECScheme(CodeKind.CC, 12, 14)),
            (ECScheme(CodeKind.CC, 6, 9), ECScheme(CodeKind.CC, 12, 15, anticipate_parities=4)),
            (ECScheme(CodeKind.CC, 6, 8), ECScheme(CodeKind.CC, 12, 13)),
        ],
        ids=["bwo-split", "bwo-general", "bwo-source-kept-r", "bwo-target", "r1-family"],
    )
    def test_completes_by_rrw_and_reads_back(self, source, target, scheduled):
        assert TranscodePlanner().plan(source, target).kind is TranscodeKind.RRW
        chunk = 12 * KB  # divisible by r_F = 4
        fs = MorphFS(chunk_size=chunk, future_widths=[6, 12])
        data = np.random.default_rng(5).integers(0, 256, 36 * chunk, dtype=np.uint8)
        fs.write_file("f", data, HybridScheme(1, source))
        fs.transcode("f", source)
        read = fs.metrics.disk_bytes_read
        if scheduled:
            fs.schedule_transcode("f", target)
            fs.scheduler.run_until_drained()
        else:
            fs.transcode("f", target)
        assert fs.metrics.disk_bytes_read - read >= len(data)  # the client read it all
        assert fs.namenode.lookup("f").scheme == target
        assert np.array_equal(fs.read_file("f"), data)
        assert audit(fs) == []
