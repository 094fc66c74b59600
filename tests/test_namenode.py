"""Namenode: namespace and the ATQ/UTM transcode lifecycle."""

import pytest

from repro.core.schemes import CodeKind, ECScheme
from repro.dfs.audit import full_scan as _full_scan
from repro.dfs.blocks import ChunkKind, ChunkMeta, ECStripeMeta, FileMeta, FileState
from repro.dfs.namenode import (
    ConversionGroup,
    FileNotFoundError_,
    Namenode,
    TranscodeStateError,
)


def file_meta(name="f", stripes=2, k=6, n=9):
    meta = FileMeta(name=name, size=k * stripes * 64, chunk_size=64,
                    scheme=ECScheme(CodeKind.CC, k, n))
    for s in range(stripes):
        stripe = ECStripeMeta(stripe_index=s, k=k, n=n)
        for t in range(k):
            stripe.data.append(ChunkMeta(f"{name}/s{s}d{t}", f"dn{t:03d}", ChunkKind.DATA, 64))
        for j in range(n - k):
            stripe.parities.append(
                ChunkMeta(f"{name}/s{s}p{j}", f"dn{20+j:03d}", ChunkKind.PARITY, 64))
        meta.stripes.append(stripe)
    return meta


def groups_for(meta, target, group_size=2, n_finals=1):
    out = []
    for gi, start in enumerate(range(0, len(meta.stripes), group_size)):
        out.append(ConversionGroup(
            file_name=meta.name, group_index=gi,
            initial_stripe_indices=list(range(start, min(start + group_size, len(meta.stripes)))),
            n_final_stripes=n_finals, target_scheme=target))
    return out


class TestNamespace:
    def test_register_lookup_unregister(self):
        nn = Namenode()
        meta = file_meta()
        nn.register_file(meta)
        assert nn.lookup("f") is meta
        nn.unregister_file("f")
        with pytest.raises(FileNotFoundError_):
            nn.lookup("f")

    def test_duplicate_rejected(self):
        nn = Namenode()
        nn.register_file(file_meta())
        with pytest.raises(ValueError):
            nn.register_file(file_meta())

    def test_rename(self):
        nn = Namenode()
        nn.register_file(file_meta())
        nn.rename("f", "g")
        assert nn.lookup("g").name == "g"
        with pytest.raises(FileNotFoundError_):
            nn.lookup("f")

    def test_rename_onto_existing_name_loses_nothing(self):
        """Regression: rename used to unregister ``old`` and then fail
        in register_file, dropping the file from the namespace."""
        nn = Namenode()
        a, b = file_meta("a"), file_meta("b")
        nn.register_file(a)
        nn.register_file(b)
        target = ECScheme(CodeKind.CC, 12, 15)
        nn.enqueue_transcode("a", target, groups_for(a, target), 3)
        with pytest.raises(ValueError, match="file exists"):
            nn.rename("a", "b")
        assert nn.lookup("a") is a and a.name == "a"
        assert nn.lookup("b") is b
        assert list(nn.files) == ["a", "b"]
        # Nothing was touched on the way to the refusal: not the
        # registration order, not the in-flight transcode.
        assert nn._file_order["a"] < nn._file_order["b"]
        assert "a" in nn.utm and a.state is FileState.TRANSCODING
        with pytest.raises(FileNotFoundError_):
            nn.rename("ghost", "c")
        assert "c" not in nn.files

    def test_chunk_ids_unique(self):
        nn = Namenode()
        ids = {nn.next_chunk_id("x") for _ in range(100)}
        assert len(ids) == 100

    def test_chunks_on_node(self):
        nn = Namenode()
        nn.register_file(file_meta())
        found = nn.chunks_on_node("dn000")
        assert len(found) == 2  # one data chunk per stripe


class TestNodeIndexVsOracle:
    """The per-node index against a full namespace scan, on the
    namespace-churn paths where stale entries could survive."""

    def _all_nodes(self, nn):
        return {c.node_id for m in nn.files.values() for c in m.all_chunks()}

    def test_rename_then_query(self):
        nn = Namenode()
        nn.register_file(file_meta("a"))
        nn.register_file(file_meta("b"))
        nn.rename("a", "a2")
        for node in self._all_nodes(nn):
            assert nn.chunks_on_node(node) == _full_scan(nn, node)
        # Nothing is left under the old name.
        for index in nn._node_files.values():
            assert "a" not in index

    def test_delete_then_reregister_same_name(self):
        nn = Namenode()
        nn.register_file(file_meta("a"))  # chunks on dn000..dn022
        nn.unregister_file("a")
        # Same name comes back with entirely different placements; the
        # index entries from the first life must not leak into answers.
        fresh = file_meta("a")
        for chunk in [c for s in fresh.stripes for c in s.data + s.parities]:
            chunk.node_id = f"dn{int(chunk.node_id[2:]) + 50:03d}"
        nn.register_file(fresh)
        for node in self._all_nodes(nn) | {"dn000", "dn020"}:
            assert nn.chunks_on_node(node) == _full_scan(nn, node)
        assert nn.chunks_on_node("dn000") == []

    def test_rename_mid_transcode_drops_job(self):
        nn = Namenode()
        meta = file_meta("a")
        nn.register_file(meta)
        target = ECScheme(CodeKind.CC, 12, 15)
        nn.enqueue_transcode("a", target, groups_for(meta, target), 3)
        nn.rename("a", "b")
        # The job was keyed by the old name; keeping it would leave UTM
        # and ATQ entries no worker can ever resolve.
        assert nn.utm == {}
        assert len(nn.atq) == 0
        assert nn.lookup("b").state is FileState.HEALTHY

    def test_unregister_mid_transcode_drops_job(self):
        nn = Namenode()
        meta = file_meta("a")
        nn.register_file(meta)
        target = ECScheme(CodeKind.CC, 12, 15)
        nn.enqueue_transcode("a", target, groups_for(meta, target), 3)
        other = file_meta("keep", stripes=2)
        nn.register_file(other)
        nn.enqueue_transcode("keep", target, groups_for(other, target), 3)
        dropped = nn.unregister_file("a")
        assert dropped.state is FileState.HEALTHY
        assert "a" not in nn.utm and "keep" in nn.utm
        assert all(g.file_name == "keep" for g in nn.atq)


class TestTranscodeLifecycle:
    def _setup(self):
        nn = Namenode()
        meta = file_meta()
        nn.register_file(meta)
        target = ECScheme(CodeKind.CC, 12, 15)
        groups = groups_for(meta, target)
        job = nn.enqueue_transcode("f", target, groups, parities_per_final_stripe=3)
        return nn, meta, target, groups, job

    def test_enqueue_populates_atq_and_utm(self):
        nn, meta, target, groups, job = self._setup()
        assert meta.state is FileState.TRANSCODING
        assert len(nn.atq) == 1
        assert job.total_bits == 3
        assert not job.is_complete()

    def test_double_enqueue_rejected(self):
        nn, meta, target, groups, _ = self._setup()
        with pytest.raises(TranscodeStateError):
            nn.enqueue_transcode("f", target, groups, 3)

    def test_poll_respects_budget(self):
        nn = Namenode()
        meta = file_meta(stripes=8)
        nn.register_file(meta)
        target = ECScheme(CodeKind.CC, 12, 15)
        groups = groups_for(meta, target)
        nn.enqueue_transcode("f", target, groups, 3)
        first = nn.poll_work(max_items=2)
        assert len(first) == 2
        rest = nn.poll_work(max_items=10)
        assert len(rest) == 2

    def test_finalize_requires_all_bits(self):
        nn, meta, target, groups, job = self._setup()
        assert nn.try_finalize("f") is None
        new_stripe = ECStripeMeta(stripe_index=0, k=12, n=15)
        for t in range(12):
            new_stripe.data.append(ChunkMeta(f"n/d{t}", "dn000", ChunkKind.DATA, 64))
        for j in range(3):
            new_stripe.parities.append(ChunkMeta(f"n/p{j}", "dn001", ChunkKind.PARITY, 64))
            nn.complete_parity("f", 0, 0, j, 3)
        nn.record_new_stripe("f", 0, 0, new_stripe)
        old = nn.try_finalize("f")
        assert old is not None and len(old) == 6  # 2 old stripes x 3 parities
        assert meta.scheme == target
        assert meta.state is FileState.HEALTHY
        assert meta.version == 1
        assert [s.k for s in meta.stripes] == [12]

    def test_abort_clears_state_keeps_metadata(self):
        nn, meta, target, groups, job = self._setup()
        nn.complete_parity("f", 0, 0, 0, 3)
        nn.abort_transcode("f")
        assert "f" not in nn.utm
        assert len(nn.atq) == 0
        assert meta.state is FileState.HEALTHY
        assert meta.scheme == ECScheme(CodeKind.CC, 6, 9)  # unchanged

    def test_complete_parity_unknown_file(self):
        nn = Namenode()
        with pytest.raises(TranscodeStateError):
            nn.complete_parity("ghost", 0, 0, 0, 3)

    def test_bitmap_tracks_multi_group_jobs(self):
        nn = Namenode()
        meta = file_meta(stripes=4)
        nn.register_file(meta)
        target = ECScheme(CodeKind.CC, 12, 15)
        groups = groups_for(meta, target)
        job = nn.enqueue_transcode("f", target, groups, 3)
        assert job.total_bits == 6
        for g in range(2):
            for j in range(3):
                nn.complete_parity("f", g, 0, j, 3)
        assert job.is_complete()
