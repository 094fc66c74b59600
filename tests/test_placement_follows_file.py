"""Placement follows the file, not its name.

A file's k*-windows are where its chunks are. A policy is built for one
placing operation (a write, an append, a seal pass) and kept by no one
after it: built for a file that is already registered — renamed since
its chunks were placed — it takes its windows from the chunks the file
lists and draws only the slots nothing occupies yet, away from every
listed node; a new file starts a new policy, and a deleted or renamed
one leaves none behind.
"""

import numpy as np
import pytest

from repro.cluster.placement import TranscodeAwarePlacement
from repro.cluster.topology import Cluster, ClusterSpec
from repro.core.schemes import CodeKind, ECScheme, HybridScheme
from repro.dfs import MorphFS
from repro.dfs.audit import audit

KB = 1024
CHUNK = 4 * KB
CC69 = ECScheme(CodeKind.CC, 6, 9)
HY = HybridScheme(1, CC69)
SEEDS = range(40)


def _fs(seed):
    return MorphFS(chunk_size=CHUNK, future_widths=[6, 12], seed=seed)


def _data(seed, n_chunks):
    return np.random.default_rng(seed).integers(0, 256, n_chunks * CHUNK, dtype=np.uint8)


def _window_violations(meta):
    """Does one 12-chunk window break its promise: its data chunks not on
    12 distinct nodes, or a parity j of its two stripes not co-located?
    (A stripe with two chunks on one node is the audit's to find.)"""
    data = [c.node_id for s in meta.stripes for c in s.data]
    homes = [[c.node_id for c in s.parities] for s in meta.stripes]
    return len(set(data)) != len(data) or any(len(set(column)) != 1 for column in zip(*homes))


class TestRenameThenAppend:
    def test_appended_stripe_joins_the_files_window(self):
        violations = 0
        for seed in SEEDS:
            fs = _fs(seed)
            fs.write_file("f", _data(seed, 6), HY)
            fs.namenode.rename("f", "g")
            fs.append_file("g", _data(seed + 1000, 6))
            meta = fs.namenode.lookup("g")
            assert [s.k for s in meta.stripes] == [6, 6]
            violations += _window_violations(meta)
            assert audit(fs) == []
            assert np.array_equal(
                fs.read_file("g"),
                np.concatenate([_data(seed, 6), _data(seed + 1000, 6)]),
            )
        assert violations == 0

    def test_a_policy_left_under_the_new_name_is_not_inherited(self):
        """``g`` placed and renamed away used to leave its policy under
        ``g``; the file renamed onto ``g`` next appends by its own chunks."""
        violations = 0
        for seed in SEEDS[:10]:
            fs = _fs(seed)
            fs.write_file("g", _data(seed, 6), HY)
            fs.append_file("g", _data(seed + 1, 6))
            fs.namenode.rename("g", "h")
            fs.write_file("f", _data(seed + 2, 6), HY)
            fs.namenode.rename("f", "g")
            fs.append_file("g", _data(seed + 3, 6))
            violations += _window_violations(fs.namenode.lookup("g"))
            assert not _window_violations(fs.namenode.lookup("h"))
            assert audit(fs) == []
        assert violations == 0

    def test_without_rename_nothing_changes(self):
        for seed in SEEDS[:5]:
            fs = _fs(seed)
            fs.write_file("f", _data(seed, 6), HY)
            fs.append_file("f", _data(seed + 1000, 6))
            assert not _window_violations(fs.namenode.lookup("f"))
            assert audit(fs) == []


class TestRenameThenSeal:
    def test_sealed_parities_avoid_the_stripes_nodes(self):
        """The free transition seals the open appended tail of a renamed
        file; no parity lands beside a chunk of its stripe, and parity j
        of both stripes shares one node."""
        stripes = 0
        for seed in SEEDS:
            fs = _fs(seed)
            fs.write_file("f", _data(seed, 6), HY)
            fs.append_file("f", _data(seed + 1000, 4))
            fs.namenode.rename("f", "g")
            fs.transcode("g", CC69)
            meta = fs.namenode.lookup("g")
            stripes += len(meta.stripes)
            assert [len(stripe.parities) for stripe in meta.stripes] == [3, 3]
            assert not _window_violations(meta) and audit(fs) == []
            assert np.array_equal(
                fs.read_file("g"), np.concatenate([_data(seed, 6), _data(seed + 1000, 4)])
            )
        assert stripes == 80


class TestAppendDraws:
    def test_a_window_aligned_append_draws_a_new_window(self):
        """A 48 KiB file fills its 12-chunk window; an appended 48 KiB
        opens window 1, the append's first draw. Drawn from the name's
        seed alone it was window 0's draw again, node for node, in 10 of
        10 seeds."""
        reused = 0
        for seed in SEEDS[:10]:
            fs = _fs(seed)
            fs.write_file("f", _data(seed, 12), HY)
            fs.append_file("f", _data(seed + 1, 12))
            meta = fs.namenode.lookup("f")
            window = [[c.node_id for s in meta.stripes[w : w + 2] for c in s.data] for w in (0, 2)]
            reused += window[0] == window[1]
            assert np.array_equal(
                fs.read_file("f"), np.concatenate([_data(seed, 12), _data(seed + 1, 12)])
            )
        assert reused == 0


    def test_an_append_does_not_stack_a_stripe_on_its_parity_home(self):
        """A data repair can land on a node the window keeps for a parity
        (ROADMAP item 10): here stripe 1's open tail has its first chunk
        moved onto stripe 0's parity-1 home. The append that completes
        the stripe draws that slot afresh; it used to write the stripe's
        parity 1 beside it — 9 chunks on 8 nodes, which the audit found
        in a deep run of the stateful model."""
        for seed in SEEDS[:10]:
            fs = _fs(seed)
            fs.write_file("f", _data(seed, 6), HY)
            fs.append_file("f", _data(seed + 1, 2))
            meta = fs.namenode.lookup("f")
            chunk, home = meta.stripes[1].data[0], meta.stripes[0].parities[1].node_id
            was = chunk.node_id
            data = dict(fs.datanodes[was].held())[chunk.chunk_id]
            fs.rehome_chunks(meta, [(chunk, home, data)], was, "recovered")
            fs.drop_unlisted(was)
            assert audit(fs) == []
            fs.append_file("f", _data(seed + 2, 4))
            assert audit(fs) == []
            assert np.array_equal(fs.read_file("f"), np.concatenate(
                [_data(seed, 6), _data(seed + 1, 2), _data(seed + 2, 4)]
            ))


class TestShrunkenCluster:
    def test_a_seal_commits_when_no_window_fits(self):
        """Eleven nodes, the five that hold nothing of the file dead: no
        k*-window of 6 or 12 data and 4 parity slots fits the six left.
        The free transition still seals the file's open 4-chunk tail, on
        live nodes off its kept replica copy (five nodes for seven
        chunks), instead of failing to build the file's placement."""
        fs = MorphFS(
            Cluster(ClusterSpec(n_datanodes=11)), chunk_size=CHUNK, future_widths=[6, 12]
        )
        fs.write_file("f", np.zeros(0, np.uint8), HY)
        fs.append_file("f", _data(3, 4))
        meta = fs.namenode.lookup("f")
        listed = {c.node_id for c in meta.stripes[0].data}
        listed |= {c.node_id for block in meta.replica_blocks for c in block.copies}
        spares = [n.node_id for n in fs.cluster.nodes if n.node_id not in listed]
        assert len(spares) == 5
        for node_id in spares:
            fs.cluster.fail_node(node_id)
            fs.datanodes[node_id].fail()
        fs.transcode("f", CC69)
        stripe = fs.namenode.lookup("f").stripes[0]
        assert len(stripe.parities) == 3
        assert len(set(stripe.node_ids())) == 5
        assert all(fs.node_reachable(n, "namenode") for n in stripe.node_ids())
        assert np.array_equal(fs.read_file("f"), _data(3, 4))

    def test_an_undrawable_reserved_slot_is_no_preference(self):
        """Too few live nodes to draw a window: ``reserved`` offers none
        (a fresh node is picked) rather than raise out of a merge."""
        cluster = Cluster(ClusterSpec(n_datanodes=16))
        policy = TranscodeAwarePlacement(cluster, k_star=12, r_star=3)
        for node in cluster.nodes[:2]:
            cluster.fail_node(node.node_id)
        assert policy.reserved("f", 0, 0) == []
        assert policy.reserved("f", 0, 3) == []


class TestPolicyLifetime:
    def test_no_policy_outlives_its_operation(self):
        """A policy is built per placing operation and held by its caller:
        the file system keeps none, by name or otherwise."""
        fs = _fs(0)
        for i in range(50):
            fs.write_file(f"f{i}", _data(i, 6), HY)
            fs.append_file(f"f{i}", _data(i + 50, 6))
            fs.delete_file(f"f{i}")
        assert not hasattr(fs, "_placements")
        assert "delete_file" not in vars(MorphFS)

    @pytest.mark.parametrize("away", ["rename", "delete"])
    def test_a_new_file_under_a_used_name_starts_fresh(self, away):
        """The policy an earlier file left under the name is not the next
        file's: it reserved r* = 4 parity slots, and CC(6,11) needs five."""
        fs = _fs(3)
        fs.write_file("f", _data(3, 6), HY)
        if away == "rename":
            fs.namenode.rename("f", "g")
        else:
            fs.delete_file("f")
        fs.write_file("f", _data(4, 6), HybridScheme(1, ECScheme(CodeKind.CC, 6, 11)))
        stripe = fs.namenode.lookup("f").stripes[0]
        assert len(set(stripe.node_ids())) == 11
        assert np.array_equal(fs.read_file("f"), _data(4, 6))


class TestAdopt:
    def cluster(self):
        return Cluster(ClusterSpec(n_datanodes=23))

    def test_listed_slots_kept_and_the_rest_drawn_elsewhere(self):
        p = TranscodeAwarePlacement(self.cluster(), k_star=12, r_star=4, seed=1)
        data = [f"dn{i:03d}" for i in range(6)]
        parity = ["dn010", "dn011", "dn012"]
        p.adopt("f", [(0, data, parity)])
        window = [p.data_node("f", t) for t in range(12)]
        parities = [p.parity_node("f", 6, j) for j in range(4)]
        assert window[:6] == data and parities[:3] == parity
        assert len(set(window + parities)) == 16

    def test_first_listed_parity_of_a_window_wins(self):
        p = TranscodeAwarePlacement(self.cluster(), k_star=12, r_star=3, seed=2)
        p.adopt("f", [
            (0, [f"dn{i:03d}" for i in range(6)], ["dn020", "dn021"]),
            (6, [f"dn{i:03d}" for i in range(6, 12)], ["dn022", "dn021", "dn019"]),
        ])
        assert [p.parity_node("f", 0, j) for j in range(3)] == ["dn020", "dn021", "dn019"]

    def test_unlisted_windows_draw_as_before(self):
        fresh = TranscodeAwarePlacement(self.cluster(), k_star=6, r_star=3, seed=3)
        adopted = TranscodeAwarePlacement(self.cluster(), k_star=6, r_star=3, seed=3)
        adopted.adopt("other", [(0, ["dn000"] * 6, [])])
        assert [fresh.data_node("f", t) for t in range(12)] == [
            adopted.data_node("f", t) for t in range(12)
        ]

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_width_stripes_map_by_first_chunk(self, seed):
        p = TranscodeAwarePlacement(self.cluster(), k_star=12, r_star=3, seed=seed)
        homes = [f"dn{i:03d}" for i in range(14)]
        p.adopt("f", [(0, homes[:6], []), (6, homes[6:12], []), (12, homes[12:14], [])])
        assert [p.data_node("f", t) for t in range(14)] == homes
        window1 = [p.data_node("f", t) for t in range(12, 24)]
        assert window1[:2] == homes[12:] and len(set(window1)) == 12
        assert not set(window1[2:]) & set(homes[12:])
