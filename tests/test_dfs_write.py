"""DFS write paths: exact IO accounting per ingest scheme (§4.2)."""

import numpy as np
import pytest

from repro.core.schemes import CodeKind, ECScheme, HybridScheme, Replication
from repro.dfs import BaselineDFS, MorphFS
from repro.dfs.audit import audit

KB = 1024


def data_of(n_bytes, seed=0):
    return np.random.default_rng(seed).integers(0, 256, n_bytes, dtype=np.uint8)


class TestReplicatedWrite:
    def test_three_copies_on_disk(self):
        fs = BaselineDFS(chunk_size=4 * KB)
        data = data_of(96 * KB)
        fs.write_file("f", data, Replication(3))
        assert fs.capacity_used() == 3 * len(data)
        assert fs.metrics.disk_bytes_written == 3 * len(data)

    def test_pipeline_network_three_hops(self):
        fs = BaselineDFS(chunk_size=4 * KB)
        data = data_of(96 * KB)
        fs.write_file("f", data, Replication(3))
        assert fs.metrics.net_bytes_total == 3 * len(data)

    def test_copies_on_distinct_nodes(self):
        fs = BaselineDFS(chunk_size=4 * KB)
        fs.write_file("f", data_of(32 * KB), Replication(3))
        meta = fs.namenode.lookup("f")
        for block in meta.replica_blocks:
            nodes = [c.node_id for c in block.copies]
            assert len(set(nodes)) == 3


class TestECWrite:
    def test_capacity_is_n_over_k(self):
        fs = BaselineDFS(chunk_size=4 * KB)
        data = data_of(96 * KB)  # 24 chunks = 4 stripes of RS(6,9)
        fs.write_file("f", data, ECScheme(CodeKind.RS, 6, 9))
        assert fs.capacity_used() == pytest.approx(1.5 * len(data))

    def test_stripe_nodes_distinct(self):
        fs = BaselineDFS(chunk_size=4 * KB)
        fs.write_file("f", data_of(96 * KB), ECScheme(CodeKind.RS, 6, 9))
        assert audit(fs) == []

    def test_client_cpu_charged_for_encode(self):
        fs = BaselineDFS(chunk_size=4 * KB)
        fs.write_file("f", data_of(96 * KB), ECScheme(CodeKind.RS, 6, 9))
        assert fs.metrics.node("client").cpu_seconds > 0

    def test_partial_stripe_zero_padded(self):
        fs = BaselineDFS(chunk_size=4 * KB)
        data = data_of(30 * KB)  # 7.5 chunks -> padded to 2 stripes of 6
        fs.write_file("f", data, ECScheme(CodeKind.RS, 6, 9))
        meta = fs.namenode.lookup("f")
        assert len(meta.stripes) == 2
        assert np.array_equal(fs.read_file("f"), data)


class TestHybridWrite:
    def test_resting_state_matches_paper(self):
        """Hy(1, CC(6,9)): 1 replica + 6 data + 1.5x parities on disk."""
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
        data = data_of(96 * KB)
        fs.write_file("f", data, HybridScheme(1, ECScheme(CodeKind.CC, 6, 9)))
        assert fs.capacity_used() == pytest.approx(2.5 * len(data))
        # 150% overhead vs 3-r's 200% (paper §7.1: 25% overhead cut).
        overhead = fs.capacity_used() / len(data) - 1
        assert overhead == pytest.approx(1.5)

    def test_temporary_replicas_never_touch_disk(self):
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6])
        data = data_of(48 * KB)
        fs.write_file("f", data, HybridScheme(1, ECScheme(CodeKind.CC, 6, 9)))
        # Disk writes = replica (1x) + data (1x) + parities (0.5x): 2.5x.
        assert fs.metrics.disk_bytes_written == pytest.approx(2.5 * len(data))
        assert fs.memory_used() == 0  # all temporaries dropped

    def test_hy2_persists_both_replicas(self):
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6])
        data = data_of(48 * KB)
        fs.write_file("f", data, HybridScheme(2, ECScheme(CodeKind.CC, 6, 9)))
        assert fs.capacity_used() == pytest.approx(3.5 * len(data))

    def test_network_accounting(self):
        """Small-write protocol: 2 mirror hops + stripe + parities (§4.2)."""
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6])
        data = data_of(48 * KB)
        fs.write_file("f", data, HybridScheme(1, ECScheme(CodeKind.CC, 6, 9)))
        expected = 2 * len(data) + len(data) + 0.5 * len(data)
        assert fs.metrics.net_bytes_total == pytest.approx(expected)

    def test_replicas_exclude_ec_nodes(self):
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6])
        fs.write_file("f", data_of(48 * KB), HybridScheme(1, ECScheme(CodeKind.CC, 6, 9)))
        meta = fs.namenode.lookup("f")
        for hybrid in meta.hybrid_blocks():
            ec_nodes = set(hybrid.stripe.node_ids())
            for block in hybrid.replicas:
                for copy in block.copies:
                    assert copy.node_id not in ec_nodes

    def test_parity_encode_charged_to_striper_not_client(self):
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6])
        fs.write_file("f", data_of(48 * KB), HybridScheme(1, ECScheme(CodeKind.CC, 6, 9)))
        assert fs.metrics.node("client").cpu_seconds == 0
        assert fs.metrics.cpu_seconds_total > 0

    def test_hybrid_block_nesting(self):
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6])
        fs.write_file("f", data_of(96 * KB), HybridScheme(1, ECScheme(CodeKind.CC, 6, 9)))
        meta = fs.namenode.lookup("f")
        assert meta.is_hybrid
        blocks = meta.hybrid_blocks()
        assert len(blocks) == len(meta.stripes)
        for hb in blocks:
            assert len(hb.replicas) == 1


class TestPlacementIntegration:
    def test_kstar_separation_across_future_widths(self):
        """Chunks that will merge into CC(12,15) stripes never share nodes."""
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
        fs.write_file("f", data_of(192 * KB), HybridScheme(1, ECScheme(CodeKind.CC, 6, 9)))
        meta = fs.namenode.lookup("f")
        data_chunks = [c for s in meta.stripes for c in s.data]
        for w in range(0, len(data_chunks), 12):
            window = [c.node_id for c in data_chunks[w : w + 12]]
            assert len(set(window)) == len(window)

    def test_merge_partner_parities_colocated(self):
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
        fs.write_file("f", data_of(192 * KB), HybridScheme(1, ECScheme(CodeKind.CC, 6, 9)))
        meta = fs.namenode.lookup("f")
        for pair in range(0, len(meta.stripes) - 1, 2):
            for j in range(3):
                assert (
                    meta.stripes[pair].parities[j].node_id
                    == meta.stripes[pair + 1].parities[j].node_id
                )


class TestWriteValidation:
    def test_baseline_rejects_hybrid(self):
        fs = BaselineDFS(chunk_size=4 * KB)
        with pytest.raises(ValueError):
            fs.write_file("f", data_of(8 * KB), HybridScheme(1, ECScheme(CodeKind.CC, 6, 9)))

    def test_duplicate_name_rejected(self):
        fs = BaselineDFS(chunk_size=4 * KB)
        fs.write_file("f", data_of(8 * KB), Replication(3))
        with pytest.raises(ValueError):
            fs.write_file("f", data_of(8 * KB), Replication(3))


class TestOneCodecPerScheme:
    """One cache, one construction rule: ``write_file`` used to force a
    width-40 family (no r = 4 family is that wide) where the transcoder's
    constructor took the default, and each kept its own CC(6,9) object."""

    CC610 = ECScheme(CodeKind.CC, 6, 10)

    @pytest.mark.parametrize("scheme", [CC610, HybridScheme(1, CC610)], ids=str)
    def test_four_parity_cc_is_written_read_degraded_and_repaired(self, scheme):
        from repro.dfs.recovery import RecoveryManager

        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
        data = data_of(48 * KB)
        meta = fs.write_file("f", data, scheme)
        fs.cluster.fail_node(meta.stripes[0].data[2].node_id)
        assert np.array_equal(fs.read_file("f", prefer_striped=True), data)
        assert RecoveryManager(fs).recover_all() > 0
        assert RecoveryManager(fs).lost_chunks() == []
        assert np.array_equal(fs.read_file("f"), data)

    def test_every_path_shares_the_scheme_s_codec_object(self):
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
        cc69 = ECScheme(CodeKind.CC, 6, 9)
        meta = fs.write_file("f", data_of(24 * KB), cc69)
        code = fs.codec_for(cc69)
        assert code is fs.cc_codec(6, 9) is fs.codec_for_stripe(meta, meta.stripes[0])
        assert self.CC610.make_code().family_width == fs.codec_for(self.CC610).family_width == 24
        rs = BaselineDFS(chunk_size=4 * KB)
        tail = rs.write_file("f", data_of(24 * KB), ECScheme(CodeKind.RS, 6, 9)).stripes[0]
        tail.k, tail.n = 4, 7  # a tail stripe at its own width
        assert rs.codec_for_stripe(rs.namenode.lookup("f"), tail) is rs.codec_for_stripe(
            rs.namenode.lookup("f"), tail
        )

