"""Native transcode through the DFS: free transitions, CC merges,
LRCC targets, RRW baseline, crash consistency (§4.5, §6.2).

Every DFS conversion returns its plan's io, and a healthy merge's disk
bytes are exactly the plan's. One rule per file: a file with a group no
plan covers, or a hybrid target, completes by RRW, inline and scheduled
alike; a k*-window that does not fit falls back to a multiple of the
file's width. An inline transcode is a call, not a scheduler tick: its
ledger row equals the per-node deltas, and an unrebuildable source
raises and leaves the job for a heartbeat."""

import numpy as np
import pytest

from repro.core.schemes import CodeKind, ECScheme, HybridScheme, Replication
from repro.dfs import BaselineDFS, MorphFS
from repro.dfs.audit import audit
from repro.dfs.blocks import FileState
from repro.dfs.journal import JournaledNamenode

KB = 1024
CC69 = ECScheme(CodeKind.CC, 6, 9)
CC1215 = ECScheme(CodeKind.CC, 12, 15)


@pytest.fixture(autouse=True)
def conversions_return_their_plans_io(monkeypatch):
    """Every conversion in this file returns the IO its plan prices:
    ``plan.io()``, the one ``ConversionIO`` there is."""
    from repro.dfs import transcoder

    for name in ("convert", "convert_cc_to_lrcc", "convert_lrcc_to_lrcc"):
        def checked(initial, final, stripes, plan, _convert=getattr(transcoder, name)):
            out, io = _convert(initial, final, stripes, plan)
            assert io == plan.io()
            return out, io

        monkeypatch.setattr(transcoder, name, checked)


def morph_with_file(n_kb=96, seed=1, scheme=None, widths=(6, 12), namenode=None):
    fs = MorphFS(chunk_size=4 * KB, future_widths=list(widths), namenode=namenode)
    data = np.random.default_rng(seed).integers(0, 256, n_kb * KB, dtype=np.uint8)
    fs.write_file("f", data, scheme or HybridScheme(1, CC69))
    return fs, data


class TestFreeTransition:
    def test_zero_io(self):
        fs, data = morph_with_file()
        before = fs.metrics.summary()
        fs.transcode("f", CC69)
        after = fs.metrics.summary()
        io_keys = ("disk_read", "disk_write", "disk_total", "network", "cpu_seconds")
        for key in io_keys:
            assert after[key] == before[key]  # literally no IO
        # Deletion is ledger movement, not IO: the replicas leave disk.
        assert after["disk_deleted"] - before["disk_deleted"] == pytest.approx(len(data))

    def test_capacity_drops_by_replica(self):
        fs, data = morph_with_file()
        cap = fs.capacity_used()
        fs.transcode("f", CC69)
        assert fs.capacity_used() == pytest.approx(cap - len(data))

    def test_metadata_flipped(self):
        fs, data = morph_with_file()
        fs.transcode("f", CC69)
        meta = fs.namenode.lookup("f")
        assert meta.scheme == CC69
        assert meta.replica_blocks == []
        assert meta.version == 1

    def test_readable_after(self):
        fs, data = morph_with_file()
        fs.transcode("f", CC69)
        assert np.array_equal(fs.read_file("f"), data)


class TestNativeCcMerge:
    def test_merge_reads_parities_only(self):
        fs, data = morph_with_file()
        fs.transcode("f", CC69)
        reads_before = fs.metrics.disk_bytes_read
        fs.transcode("f", CC1215)
        reads = fs.metrics.disk_bytes_read - reads_before
        meta = fs.namenode.lookup("f")
        n_initial_stripes = 96 // 24  # 24 chunks / 6 per stripe... see below
        # 96 KB / 4 KB = 24 chunks = 4 stripes of CC(6,9): 12 parity chunks.
        assert reads == pytest.approx(12 * 4 * KB)

    def test_merge_is_network_free_with_colocation(self):
        fs, data = morph_with_file()
        fs.transcode("f", CC69)
        net_before = fs.metrics.net_bytes_total
        fs.transcode("f", CC1215)
        assert fs.metrics.net_bytes_total == net_before  # §5.3 co-location

    def test_result_matches_direct_encode(self):
        fs, data = morph_with_file()
        fs.transcode("f", CC69)
        fs.transcode("f", CC1215)
        assert fs.namenode.lookup("f").scheme == CC1215
        assert audit(fs) == []  # every parity is the encode of its stripe's data

    def test_old_parities_deleted_after_switch(self):
        fs, data = morph_with_file()
        fs.transcode("f", CC69)
        cap_before = fs.capacity_used()
        fs.transcode("f", CC1215)
        # 12 old parities deleted, 3 new written per 2 merged stripes (6).
        expected = cap_before - 12 * 4 * KB + 6 * 4 * KB
        assert fs.capacity_used() == pytest.approx(expected)

    def test_degraded_read_after_merge(self):
        fs, data = morph_with_file()
        fs.transcode("f", CC69)
        fs.transcode("f", CC1215)
        meta = fs.namenode.lookup("f")
        victim = meta.stripes[0].data[3].node_id
        fs.cluster.fail_node(victim)
        fs.datanodes[victim].fail()
        assert np.array_equal(fs.read_file("f"), data)

    def test_short_tail_group(self):
        """A stripe count not divisible by lambda leaves a narrower tail."""
        fs, data = morph_with_file(n_kb=72)  # 18 chunks = 3 stripes of 6
        fs.transcode("f", CC69)
        fs.transcode("f", CC1215)
        meta = fs.namenode.lookup("f")
        assert [s.k for s in meta.stripes] == [12, 6]
        assert np.array_equal(fs.read_file("f"), data)

    def test_hybrid_directly_to_wider_cc(self):
        """Hybrid -> CC(12,15): replicas dropped, then parities merged."""
        fs, data = morph_with_file()
        fs.transcode("f", CC1215)
        meta = fs.namenode.lookup("f")
        assert meta.scheme == CC1215
        assert meta.replica_blocks == []
        assert np.array_equal(fs.read_file("f"), data)

    def test_chain_of_merges(self):
        fs, data = morph_with_file(
            n_kb=160, scheme=HybridScheme(1, ECScheme(CodeKind.CC, 5, 8)),
            widths=(5, 10, 20))
        for scheme in (ECScheme(CodeKind.CC, 5, 8), ECScheme(CodeKind.CC, 10, 13),
                       ECScheme(CodeKind.CC, 20, 23)):
            fs.transcode("f", scheme)
            assert np.array_equal(fs.read_file("f"), data)
        meta = fs.namenode.lookup("f")
        assert meta.stripes[0].k == 20


class TestLrccTargets:
    def test_cc_to_lrcc(self):
        fs, data = morph_with_file(n_kb=96, widths=(6, 24))
        fs.transcode("f", CC69)
        lrcc = ECScheme(CodeKind.LRCC, 24, 30, local_groups=4, r_global=2)
        before = fs.metrics.disk_bytes_read, fs.metrics.disk_bytes_written
        fs.transcode("f", lrcc)
        reads = fs.metrics.disk_bytes_read - before[0]
        writes = fs.metrics.disk_bytes_written - before[1]
        # 3 parities x 4 stripes read and 6 parities written, plus one
        # read and one write per data chunk the merge had to move: 30
        # chunks on 23 nodes cannot all sit apart (k* falls back to 6,
        # so the stripes' windows overlap), and the commit spreads them
        # as far as the cluster allows. The parities take nodes that
        # hold no data chunk of the stripe, so only data chunks move.
        stripe = fs.namenode.lookup("f").stripes[0]
        moved = sum("/moved#" in c.chunk_id for c in stripe.data)
        assert moved > 0
        assert reads == pytest.approx((12 + moved) * 4 * KB)
        assert writes == pytest.approx((6 + moved) * 4 * KB)
        assert len(set(stripe.node_ids())) == len(fs.cluster.nodes)
        assert np.array_equal(fs.read_file("f"), data)

    def test_cc_to_lrcc_keeps_the_locals_apart(self):
        """CC(6,9) -> LRCC(12,2,2) over seeds 0-9: every final stripe on
        12 + 4 distinct nodes (both local parities used to share the
        co-located parity-0 node: 20 of 20 stripes), metering what the
        cost model predicts per stripe — 6 parity reads and 4 writes —
        plus one chunk of network: the second local's source shares a
        node with the first's, so it ships to a fresh node (l - 1 = 1;
        old parity j used to ship to final parity j's home, 4)."""
        from repro.core.planner import TranscodePlanner

        lrcc = ECScheme(CodeKind.LRCC, 12, 16, local_groups=2, r_global=2)
        cost = TranscodePlanner().plan(CC69, lrcc).cost
        stripes = 0
        for seed in range(10):
            fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12], seed=seed)
            data = np.random.default_rng(seed).integers(0, 256, 96 * KB, dtype=np.uint8)
            fs.write_file("f", data, HybridScheme(1, CC69))
            fs.transcode("f", CC69)
            m = fs.metrics
            before = m.disk_bytes_read, m.disk_bytes_written, m.net_bytes_total
            fs.transcode("f", lrcc)
            finals = fs.namenode.lookup("f").stripes
            per_stripe = [
                (after - was) / (4 * KB) / len(finals)
                for after, was in zip(
                    (m.disk_bytes_read, m.disk_bytes_written, m.net_bytes_total), before
                )
            ]
            assert per_stripe == [cost.read * 12, cost.write * 12, 1] == [6, 4, 1]
            stripes += len(finals)
            assert audit(fs) == []
            assert np.array_equal(fs.read_file("f"), data)
        assert stripes == 20

    def test_lrcc_to_lrcc(self):
        fs = MorphFS(chunk_size=4 * KB, future_widths=[12, 24])
        data = np.random.default_rng(7).integers(0, 256, 96 * KB, dtype=np.uint8)
        small = ECScheme(CodeKind.LRCC, 12, 16, local_groups=2, r_global=2)
        big = ECScheme(CodeKind.LRCC, 24, 30, local_groups=4, r_global=2)
        fs.write_file("f", data, small)
        fs.transcode("f", big)
        meta = fs.namenode.lookup("f")
        assert meta.scheme == big
        assert np.array_equal(fs.read_file("f"), data)

    def test_lrcc_to_lrcc_ships_each_source_to_the_parity_it_feeds(self):
        """LRCC(12,2,2) -> LRCC(24,4,2), both stripes in one k*-window (30
        nodes hold k* + r* = 28): locals 0 and 1 of each stripe feed final
        locals 0-3, globals j feed final global j. A final parity is
        computed where its first source sits unless a chunk of the final
        stripe is already there, and each source is metered to that node:
        the second stripe's locals ship to two fresh nodes, nothing else
        moves. (Old parity j used to be metered to final parity j.)"""
        from repro.cluster.topology import Cluster, ClusterSpec
        from repro.codes.convertible import plan_conversion

        fs = MorphFS(Cluster(ClusterSpec(n_datanodes=30)), chunk_size=4 * KB,
                     future_widths=[12, 24])
        data = np.random.default_rng(7).integers(0, 256, 96 * KB, dtype=np.uint8)
        small = ECScheme(CodeKind.LRCC, 12, 16, local_groups=2, r_global=2)
        big = ECScheme(CodeKind.LRCC, 24, 30, local_groups=4, r_global=2)
        fs.write_file("f", data, small)
        old = [[c.node_id for c in s.parities] for s in fs.namenode.lookup("f").stripes]
        assert old[0] == old[1]  # co-located by the window
        sent = []
        fetch = fs.fetch_chunk

        def spy(chunk, by, *args):
            if chunk.node_id != by:
                sent.append((chunk.node_id, by))
            return fetch(chunk, by, *args)

        fs.fetch_chunk = spy
        fs.transcode("f", big)
        (stripe,) = fs.namenode.lookup("f").stripes
        homes = [c.node_id for c in stripe.parities]
        table = plan_conversion(small, 2, big).parity_reads
        assert sorted(table) == [(i, j) for i in range(2) for j in range(4)]
        want = [(old[i][j], homes[p]) for (i, j), (_m, p) in sorted(table.items())]
        assert sorted(sent) == sorted((src, dst) for src, dst in want if src != dst)
        assert homes[:2] + homes[4:] == old[0][:2] + old[0][2:]
        assert len(sent) == 2 and audit(fs) == []
        assert not any("/moved#" in c.chunk_id for c in stripe.data)
        assert np.array_equal(fs.read_file("f"), data)


LRCC1222 = ECScheme(CodeKind.LRCC, 12, 16, local_groups=2, r_global=2)


class TestMergeWithAnUnreachableParityHome:
    """A merge never stores on a node the namenode cannot command: a
    down or cut-off parity home is replaced, before the reads, by a
    reachable node holding no chunk of the final stripe. (The new parity
    used to be written to the dead node.)"""

    @pytest.mark.parametrize("cut", ["killed", "isolated"])
    @pytest.mark.parametrize("target", [CC1215, LRCC1222], ids=["CC(12,15)", "LRCC(12,2,2)"])
    def test_new_parities_land_on_reachable_nodes(self, target, cut):
        fs, data = morph_with_file(n_kb=48)  # two CC(6,9) stripes -> one final
        fs.transcode("f", CC69)
        home = fs.namenode.lookup("f").stripes[0].parities[0].node_id
        if cut == "killed":
            fs.cluster.fail_node(home)
        else:
            fs.partition.isolate([home])
        written = fs.metrics.node(home).disk_bytes_written
        fs.transcode("f", target)
        assert fs.metrics.node(home).disk_bytes_written == written
        (stripe,) = fs.namenode.lookup("f").stripes
        assert (stripe.k, stripe.n) == (target.k, target.n)
        for parity in stripe.parities:
            assert fs.chunk_readable(parity, by="namenode"), parity
        assert audit(fs) == []  # substitutes sit apart
        assert np.array_equal(fs.read_file("f"), data)


class TestRrwBaseline:
    def test_baseline_chain(self):
        fs = BaselineDFS(chunk_size=4 * KB)
        data = np.random.default_rng(8).integers(0, 256, 96 * KB, dtype=np.uint8)
        fs.write_file("f", data, Replication(3))
        fs.transcode("f", ECScheme(CodeKind.RS, 6, 9))
        fs.transcode("f", ECScheme(CodeKind.RS, 12, 15))
        assert np.array_equal(fs.read_file("f"), data)
        assert fs.namenode.lookup("f").scheme == ECScheme(CodeKind.RS, 12, 15)

    def test_rrw_reads_all_data(self):
        fs = BaselineDFS(chunk_size=4 * KB)
        data = np.random.default_rng(9).integers(0, 256, 96 * KB, dtype=np.uint8)
        fs.write_file("f", data, ECScheme(CodeKind.RS, 6, 9))
        reads_before = fs.metrics.disk_bytes_read
        fs.transcode("f", ECScheme(CodeKind.RS, 12, 15))
        assert fs.metrics.disk_bytes_read - reads_before >= len(data)

    def test_morph_falls_back_to_rrw_for_rs_target(self):
        fs, data = morph_with_file()
        fs.transcode("f", ECScheme(CodeKind.RS, 12, 15))
        assert np.array_equal(fs.read_file("f"), data)


class TestCrashConsistency:
    def _mid_transcode(self, namenode=None):
        fs, data = morph_with_file(n_kb=192, namenode=namenode)  # 8 stripes -> 4 groups
        fs.transcode("f", CC69)
        fs.schedule_transcode("f", CC1215)
        groups = fs.namenode.utm["f"].groups
        for g in groups[: len(groups) // 2]:
            fs.transcoder.execute_group(g)
        return fs, data

    def test_reads_work_mid_transcode(self):
        fs, data = self._mid_transcode()
        assert fs.namenode.lookup("f").state is FileState.TRANSCODING
        assert np.array_equal(fs.read_file("f"), data)

    def test_old_metadata_in_effect_until_switch(self):
        fs, data = self._mid_transcode()
        meta = fs.namenode.lookup("f")
        assert meta.scheme == CC69
        assert all(s.k == 6 for s in meta.stripes)

    def test_degraded_read_mid_transcode(self):
        fs, data = self._mid_transcode()
        meta = fs.namenode.lookup("f")
        victim = meta.stripes[0].data[0].node_id
        fs.cluster.fail_node(victim)
        fs.datanodes[victim].fail()
        assert np.array_equal(fs.read_file("f"), data)

    def test_crash_and_resumed_restart(self):
        fs, data = self._mid_transcode(JournaledNamenode())
        staged = [
            p.chunk_id for s in fs.namenode.utm["f"].new_stripes.values() for p in s.parities
        ]
        # Namenode crash: a new process comes up from the journal.
        fs.restart(JournaledNamenode.recover(fs.namenode.journal))
        assert np.array_equal(fs.read_file("f"), data)
        fs.transcoder.run_pending("f")  # resumes at the unstaged groups
        meta = fs.namenode.lookup("f")
        assert meta.scheme == CC1215
        listed = [p.chunk_id for s in meta.stripes for p in s.parities]
        assert len(staged) == 6 and listed[:6] == staged  # not computed again
        assert np.array_equal(fs.read_file("f"), data)
        assert audit(fs) == []

    def test_completion_triggers_single_atomic_switch(self):
        fs, data = morph_with_file()
        fs.transcode("f", CC69)
        version = fs.namenode.lookup("f").version
        fs.transcode("f", CC1215)
        assert fs.namenode.lookup("f").version == version + 1


def per_node(fs):
    """Every node's disk read + written, network in + out and CPU."""
    return {
        node: (m.disk_bytes_total, m.net_bytes_total, m.cpu_seconds)
        for node, m in fs.metrics.nodes.items()
    }


class TestTheInlinePath:
    """``fs.transcode`` runs a merge on the caller: its ledger row is what
    the merge moved, and a failure leaves the job for a heartbeat."""

    @pytest.mark.parametrize("down", [False, True], ids=["healthy", "parity-home-down"])
    def test_the_transcode_row_is_what_the_merge_moved(self, down):
        fs, data = morph_with_file(n_kb=192)  # 8 stripes -> 4 groups
        fs.transcode("f", CC69)
        meta = fs.namenode.lookup("f")
        groups = len(meta.stripes) // 2
        if down:  # its parity 0 is rebuilt where the merge needs it
            fs.cluster.fail_node(meta.stripes[0].parities[0].node_id)
        row = fs.metrics.maintenance["transcode"]
        row0 = (row.disk_bytes, row.net_bytes, row.cpu_seconds, row.tasks_completed)
        before = per_node(fs)
        fs.transcode("f", CC1215)
        moved = [
            tuple(a - b for a, b in zip(after, before.get(node, (0.0, 0.0, 0.0))))
            for node, after in per_node(fs).items()
        ]
        disk, net, cpu = (sum(column) for column in zip(*moved))
        assert disk > 0 and cpu > 0 and (net > 0) == down
        assert row.disk_bytes - row0[0] == disk
        assert row.net_bytes - row0[1] == net
        assert row.cpu_seconds - row0[2] == pytest.approx(cpu)
        # Four groups in one intake, then one switch.
        assert row.tasks_completed - row0[3] == groups + 1
        assert fs.namenode.lookup("f").scheme == CC1215
        assert np.array_equal(fs.read_file("f"), data)

    def test_an_unrebuildable_source_raises_and_a_heartbeat_finishes_the_merge(self):
        from repro.dfs.heartbeat import HeartbeatMonitor
        from repro.dfs.transcoder import TranscodeError

        fs, data = morph_with_file(n_kb=192)
        fs.transcode("f", CC69)
        stripe = fs.namenode.lookup("f").stripes[0]
        # Parity 0 and three data chunks of stripe 0 down: five of its
        # nine chunks left, fewer than the k = 6 a rebuild needs.
        victims = [stripe.parities[0].node_id] + [c.node_id for c in stripe.data[:3]]
        for node_id in victims:
            fs.cluster.fail_node(node_id)
        failed = fs.metrics.maintenance["transcode"].tasks_failed
        with pytest.raises(TranscodeError, match="cannot decode"):
            fs.transcode("f", CC1215)
        assert fs.metrics.maintenance["transcode"].tasks_failed > failed
        assert "f" in fs.namenode.utm
        assert fs.namenode.lookup("f").scheme == CC69
        assert audit(fs) == []
        for node_id in victims:
            fs.cluster.recover_node(node_id)
        HeartbeatMonitor(fs).tick()
        assert "f" not in fs.namenode.utm
        assert fs.namenode.lookup("f").scheme == CC1215
        assert np.array_equal(fs.read_file("f"), data)
        assert audit(fs) == []


class TestCollisionRelocationAsksTheReachabilitySeam:
    """A CC merge over placement that is not k*-aware collides on nodes
    and relocates the colliding data chunks; both ends of that move go
    through ``reachable_nodes`` / ``chunk_readable``."""

    @staticmethod
    def _merge(prepare=None):
        """Returns the file system, the file's bytes, where each data
        chunk was before the merge, and the nodes that held a parity."""
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6], seed=3)
        data = np.random.default_rng(3).integers(0, 256, 48 * KB, dtype=np.uint8)
        fs.write_file("f", data, CC69)
        stripes = fs.namenode.lookup("f").stripes
        homes = {c.chunk_id: c.node_id for s in stripes for c in s.data}
        parity_nodes = {c.node_id for s in stripes for c in s.parities}
        if prepare is not None:
            prepare(fs)
        fs.transcode("f", CC1215)
        return fs, data, homes, parity_nodes

    @staticmethod
    def _moves(fs, homes):
        """(from, to) of every data chunk the merge relocated, in stripe
        order; a relocated chunk has a fresh id."""
        stripe, = fs.namenode.lookup("f").stripes
        gone = [node for cid, node in homes.items()
                if cid not in {c.chunk_id for c in stripe.data}]
        fresh = [c.node_id for c in stripe.data if c.chunk_id not in homes]
        return list(zip(gone, fresh))

    def test_an_isolated_node_is_never_the_destination(self):
        fs, _data, homes, parity_nodes = self._merge()
        moves = self._moves(fs, homes)
        # Without a partition the merge relocates onto this node, which
        # held nothing of the file.
        target = next(to for _from, to in moves
                      if to not in parity_nodes and to not in homes.values())
        written = {}

        def isolate(fs):
            fs.partition.isolate([target])
            written[target] = fs.metrics.node(target).disk_bytes_written

        fs, data, homes, _parity_nodes = self._merge(isolate)
        moved_to = [to for _from, to in self._moves(fs, homes)]
        assert len(moved_to) == len(moves) and target not in moved_to
        assert fs.metrics.node(target).disk_bytes_written == written[target]
        assert not any(
            c.node_id == target for c in fs.namenode.lookup("f").all_chunks()
        )
        assert np.array_equal(fs.read_file("f"), data)

    def test_an_unreadable_source_keeps_its_collision(self):
        fs, _data, homes, parity_nodes = self._merge()
        # Two data chunks of the file share this node, which computes no
        # parity: the merge touches it only to move one of them away.
        source = next(frm for frm, _to in self._moves(fs, homes)
                      if frm not in parity_nodes)
        assert list(homes.values()).count(source) == 2
        fs, data, homes, _parity_nodes = self._merge(
            lambda fs: fs.partition.isolate([source])
        )
        assert source not in [frm for frm, _to in self._moves(fs, homes)]
        stripe, = fs.namenode.lookup("f").stripes
        assert [c.node_id for c in stripe.data].count(source) == 2
        fs.partition.heal()
        assert np.array_equal(fs.read_file("f"), data)
