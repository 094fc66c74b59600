"""Namenode: namespace and the UTM transcode lifecycle."""

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

    def test_rename_mid_transcode_carries_the_job(self):
        nn = Namenode()
        meta = file_meta("a")
        nn.register_file(meta)
        target = ECScheme(CodeKind.CC, 12, 15)
        nn.enqueue_transcode("a", target, groups_for(meta, target))
        nn.rename("a", "b")
        # The job follows the file, re-keyed: no UTM entry is left under
        # the old name, which no worker could ever resolve, and none of
        # its staged stripes is left stored for no one.
        assert list(nn.utm) == ["b"]
        job = nn.utm["b"]
        assert job.file_name == "b" and {g.file_name for g in job.groups} == {"b"}
        assert nn.lookup("b").state is FileState.TRANSCODING

    def test_unregister_mid_transcode_drops_job(self):
        nn = Namenode()
        meta = file_meta("a")
        nn.register_file(meta)
        target = ECScheme(CodeKind.CC, 12, 15)
        nn.enqueue_transcode("a", target, groups_for(meta, target))
        other = file_meta("keep", stripes=2)
        nn.register_file(other)
        nn.enqueue_transcode("keep", target, groups_for(other, target))
        dropped = nn.unregister_file("a")
        assert dropped.state is FileState.HEALTHY
        assert "a" not in nn.utm and "keep" in nn.utm
        assert nn.utm["keep"].pending_groups() == groups_for(other, target)


def final_stripe(tag="n"):
    stripe = ECStripeMeta(stripe_index=0, k=12, n=15)
    for t in range(12):
        stripe.data.append(ChunkMeta(f"{tag}/d{t}", "dn000", ChunkKind.DATA, 64))
    for j in range(3):
        stripe.parities.append(ChunkMeta(f"{tag}/p{j}", "dn001", ChunkKind.PARITY, 64))
    return stripe


class TestTranscodeLifecycle:
    def _setup(self, stripes=2, n_finals=1):
        nn = Namenode()
        meta = file_meta(stripes=stripes)
        nn.register_file(meta)
        target = ECScheme(CodeKind.CC, 12, 15)
        groups = groups_for(meta, target, n_finals=n_finals)
        job = nn.enqueue_transcode("f", target, groups)
        return nn, meta, target, groups, job

    def test_enqueue_opens_a_job_with_every_group_pending(self):
        nn, meta, target, groups, job = self._setup()
        assert meta.state is FileState.TRANSCODING
        assert nn.utm["f"] is job and job.pending_groups() == groups
        assert not job.is_complete()

    def test_double_enqueue_rejected(self):
        nn, meta, target, groups, _ = self._setup()
        with pytest.raises(TranscodeStateError):
            nn.enqueue_transcode("f", target, groups)

    def test_a_group_is_pending_until_its_last_final_stripe_is_staged(self):
        nn, meta, target, groups, job = self._setup(stripes=8, n_finals=2)
        assert job.pending_groups() == groups
        nn.record_new_stripe("f", 1, 0, final_stripe("a"))
        assert job.pending_groups() == groups  # group 1 still lacks final 1
        nn.record_new_stripe("f", 1, 1, final_stripe("b"))
        assert job.pending_groups() == [groups[0], groups[2], groups[3]]

    def test_finalize_requires_every_final_stripe_staged(self):
        nn, meta, target, groups, job = self._setup()
        assert nn.try_finalize("f") is None
        nn.record_new_stripe("f", 0, 0, final_stripe())
        old = nn.try_finalize("f")
        assert old is not None and len(old) == 6  # 2 old stripes x 3 parities
        assert meta.scheme == target
        assert meta.state is FileState.HEALTHY
        assert meta.version == 1
        assert [s.k for s in meta.stripes] == [12]

    def test_a_staged_final_stripe_is_never_replaced(self):
        nn, meta, target, groups, job = self._setup()
        first = final_stripe("a")
        nn.record_new_stripe("f", 0, 0, first)
        with pytest.raises(TranscodeStateError):
            nn.record_new_stripe("f", 0, 0, final_stripe("b"))
        assert job.new_stripes == {(0, 0): first}

    @pytest.mark.parametrize("group_index, final_idx", [(1, 0), (0, 1), (0, -1)])
    def test_staging_a_final_stripe_outside_the_job_is_rejected(self, group_index, final_idx):
        nn, meta, target, groups, job = self._setup()
        with pytest.raises(TranscodeStateError):
            nn.record_new_stripe("f", group_index, final_idx, final_stripe())
        assert job.new_stripes == {}

    def test_staging_for_a_file_not_transcoding_is_rejected(self):
        nn = Namenode()
        with pytest.raises(TranscodeStateError):
            nn.record_new_stripe("ghost", 0, 0, final_stripe())

    def test_multi_group_job_completes_when_every_group_is_staged(self):
        nn, meta, target, groups, job = self._setup(stripes=4)
        nn.record_new_stripe("f", 1, 0, final_stripe("b"))
        assert not job.is_complete() and job.pending_groups() == [groups[0]]
        nn.record_new_stripe("f", 0, 0, final_stripe("a"))
        assert job.is_complete()
        nn.try_finalize("f")
        # Final stripes land in group order, whatever order they staged in.
        assert [s.data[0].chunk_id for s in meta.stripes] == ["a/d0", "b/d0"]
        assert [s.stripe_index for s in meta.stripes] == [0, 1]
