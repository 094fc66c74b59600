"""The hybrid block is the one protection group, and ``decodable`` the one
rank rule: repair urgency, repair targets, hedged reads and the audit all
ask ``FileMeta.hybrid_blocks`` which sources protect a chunk's data, and
the stripe's code whether the ones left are enough.

Each defect below was live while those four answered in their own ways:
an LRCC stripe one node from data loss queued as routine repair, a
replica group with one copy left queued as routine repair, a hedged read
that failed where the plain read succeeds, and a rebuilt chunk placed on
a node of its own hybrid block.
"""

import numpy as np
import pytest

from repro.cluster.partition import NAMENODE
from repro.core.schemes import CodeKind, ECScheme, HybridScheme, Replication
from repro.dfs import MorphFS
from repro.dfs.audit import audit
from repro.dfs.client import ReadError
from repro.dfs.recovery import RecoveryManager
from repro.sched.policies import classify_repair
from repro.sched.tasks import TaskClass

KB = 1024
CC69 = ECScheme(CodeKind.CC, 6, 9)
LRCC = ECScheme(CodeKind.LRCC, 12, 16, local_groups=2, r_global=2)
SEEDS = range(10)


def write(scheme, n_kb=96, seed=1, future_widths=(6, 12)):
    fs = MorphFS(chunk_size=4 * KB, future_widths=list(future_widths), seed=seed)
    data = np.random.default_rng(seed).integers(0, 256, n_kb * KB, dtype=np.uint8)
    fs.write_file("f", data, scheme)
    assert audit(fs) == []
    return fs, fs.namenode.lookup("f"), data


def lrcc(seed):
    return write(LRCC, seed=seed, future_widths=[12])


def down(fs, *chunks):
    for chunk in chunks:
        fs.cluster.fail_node(chunk.node_id)


def doubled(meta):
    """Hybrid blocks with two sources on one node."""
    return sum(
        len(set(nodes)) < len(nodes)
        for nodes in (
            [source.node_id for source, _slots in group.sources()]
            for group in meta.hybrid_blocks()
        )
    )


# -- the group -------------------------------------------------------------------

class TestHybridBlocks:
    def test_a_hybrid_stripe_groups_with_the_copies_covering_it(self):
        fs, meta, _ = write(HybridScheme(2, CC69))
        groups = meta.hybrid_blocks()
        assert [g.stripe for g in groups] == meta.stripes
        for group, block in zip(groups, meta.replica_blocks):
            assert group.replicas == [block]
            sources = list(group.sources())
            assert [c for c, _ in sources] == group.stripe.all_chunks() + block.copies
            assert [tuple(s) for _, s in sources] == [(i,) for i in range(9)] + [
                tuple(range(6))
            ] * 2

    def test_a_replicated_file_is_one_group_per_block(self):
        fs, meta, _ = write(Replication(3))
        groups = meta.hybrid_blocks()
        assert [(g.stripe, g.replicas) for g in groups] == [
            (None, [b]) for b in meta.replica_blocks
        ]
        assert all(g.k == b.n_chunks for g, b in zip(groups, meta.replica_blocks))

    def test_a_member_finds_its_groups_by_identity(self):
        fs, meta, _ = write(HybridScheme(1, CC69))
        second = meta.hybrid_blocks()[1]
        block = meta.replica_blocks[1]
        for member in (second.stripe, second.stripe.parities[2], block, block.copies[0]):
            (found,) = meta.hybrid_blocks(member)
            assert found.stripe is second.stripe
        assert meta.hybrid_blocks(meta.stripes[0].data[0])[0].stripe is meta.stripes[0]

    def test_an_open_tail_groups_with_its_extra_copy(self):
        fs, meta, _ = write(HybridScheme(1, CC69), n_kb=24)
        fs.append_file("f", np.ones(10 * KB, np.uint8))
        tail = meta.hybrid_blocks()[-1]
        assert not tail.stripe.parities and len(tail.replicas[0].copies) == 2
        assert fs.rank_rule(meta, tail)(tail.slots(lambda c: c.kind.value == "replica"))
        assert not fs.rank_rule(meta, tail)({0, 1})
        assert audit(fs) == []


class TestDecodable:
    def test_an_lrcc_stripe_answers_by_rank_not_by_count(self):
        code = LRCC.make_code()
        # Slots 0, 1 and global parity 14 gone: 13 rows, and they span.
        assert code.decodable(set(range(16)) - {0, 1, 14})
        # Global 15 too: 12 rows, but group 0 has one equation for two.
        assert not code.decodable(set(range(16)) - {0, 1, 14, 15})
        assert not code.decodable(set(range(16)) - {0, 1, 2, 14})
        # Five lost, one per local group plus every global: still whole.
        assert code.decodable(set(range(16)) - {0, 6, 14, 15})

    def test_a_replica_copy_brings_the_identity_rows_it_repeats(self):
        fs, meta, _ = write(HybridScheme(1, CC69))
        group = meta.hybrid_blocks()[0]
        copy = group.replicas[0].copies[0]
        assert fs.rank_rule(meta, group)(group.slots(lambda c: c is copy))
        parities = group.slots(lambda c: c in group.stripe.parities)
        assert not fs.rank_rule(meta, group)(parities)
        data = group.slots(lambda c: c in group.stripe.data[:3])
        assert fs.rank_rule(meta, group)(data | parities)


# -- repair urgency ----------------------------------------------------------------

class TestRepairUrgency:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_an_lrcc_stripe_one_rank_from_loss_is_critical(self, seed):
        """Data slots 0 and 1 and global parity 0 down leave 13 chunks —
        more than k — whose rows span the data only while global parity
        1 lives: counting said REPAIR."""
        fs, meta, data = lrcc(seed)
        stripe = meta.stripes[0]
        down(fs, stripe.data[0], stripe.data[1], stripe.parities[2])
        assert classify_repair(fs, meta, stripe.data[0]) is TaskClass.CRITICAL_REPAIR
        assert np.array_equal(fs.read_file("f"), data)
        down(fs, stripe.parities[3])
        with pytest.raises(ReadError):
            fs.read_file("f")

    def test_an_lrcc_stripe_with_rank_to_spare_is_routine(self):
        fs, meta, _ = lrcc(1)
        stripe = meta.stripes[0]
        down(fs, stripe.data[0], stripe.data[6])  # one per local group
        assert classify_repair(fs, meta, stripe.data[0]) is TaskClass.REPAIR

    @pytest.mark.parametrize("copies, lost", [(2, 1), (3, 2)])
    def test_the_last_replica_copy_is_critical(self, copies, lost):
        fs, meta, _ = write(Replication(copies))
        block = meta.replica_blocks[0]
        down(fs, *block.copies[:lost])
        assert classify_repair(fs, meta, block.copies[0]) is TaskClass.CRITICAL_REPAIR

    def test_a_replica_copy_with_another_to_spare_is_routine(self):
        fs, meta, _ = write(Replication(3))
        block = meta.replica_blocks[0]
        down(fs, block.copies[0])
        assert classify_repair(fs, meta, block.copies[0]) is TaskClass.REPAIR

    def test_a_hybrid_copy_over_a_stripe_at_its_limit_is_critical(self):
        fs, meta, _ = write(HybridScheme(1, CC69))
        group = meta.hybrid_blocks()[0]
        copy = group.replicas[0].copies[0]
        down(fs, copy, *group.stripe.all_chunks()[:3])
        assert classify_repair(fs, meta, copy) is TaskClass.CRITICAL_REPAIR
        assert classify_repair(fs, meta, group.stripe.data[0]) is TaskClass.CRITICAL_REPAIR

    def test_a_hybrid_stripe_at_its_limit_with_its_copy_alive_is_routine(self):
        fs, meta, _ = write(HybridScheme(1, CC69))
        stripe = meta.stripes[0]
        down(fs, *stripe.all_chunks()[:3])
        assert classify_repair(fs, meta, stripe.data[0]) is TaskClass.REPAIR

    @pytest.mark.parametrize("scheme", [HybridScheme(1, CC69), CC69, LRCC], ids=str)
    def test_one_question_now_and_at_most_one_per_node(self, scheme, monkeypatch):
        fs, meta, _ = write(scheme, future_widths=[scheme.ec_part.k])
        stripe = meta.stripes[0]
        down(fs, stripe.data[0])
        asked = []
        rule = fs.rank_rule

        def counted(meta, group):
            decodable = rule(meta, group)
            return lambda slots: asked.append(slots) or decodable(slots)

        monkeypatch.setattr(fs, "rank_rule", counted)
        assert classify_repair(fs, meta, stripe.data[0]) is TaskClass.REPAIR
        (group,) = meta.hybrid_blocks(stripe)
        live = {c.node_id for c, _ in group.sources() if fs.chunk_readable(c, by=NAMENODE)}
        assert 1 <= len(asked) <= 1 + len(live)


# -- hedged reads --------------------------------------------------------------------

class TestHedgedRead:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_hedge_never_leaves_a_read_undecodable(self, seed):
        """Slot 0's home is slow; slots 1 and 2 and global parity 0 are
        down. Twelve fast survivors are k, but group 0 keeps one
        equation for three unknowns: the slow home must serve."""
        for hedge in (None, 2.0):
            fs, meta, data = lrcc(seed)
            stripe = meta.stripes[0]
            fs.cluster.node(stripe.data[0].node_id).disk_multiplier = 4.0
            fs.hedge_slow_disk_multiplier = hedge
            down(fs, stripe.data[1], stripe.data[2], stripe.parities[2])
            assert np.array_equal(fs.read_file("f", 0, 4 * KB), data[: 4 * KB])
            assert fs.reader.hedged_reads == 0

    def test_a_hedge_still_skips_a_slow_home_with_a_fast_copy(self):
        fs, meta, data = write(HybridScheme(1, CC69))
        stripe = meta.stripes[0]
        fs.cluster.node(stripe.data[0].node_id).disk_multiplier = 4.0
        fs.hedge_slow_disk_multiplier = 2.0
        assert np.array_equal(fs.read_file("f", prefer_striped=True), data)
        assert fs.reader.hedged_reads == 1


# -- repair targets ------------------------------------------------------------------

class TestRepairTargets:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_repair_keeps_each_hybrid_block_on_distinct_nodes(self, seed):
        """A 192 KiB Hy(1,CC(6,9)) file holds a chunk on every live node,
        so a rebuilt chunk goes to the eligible node holding fewest: that
        used to be its own stripe's replica node in 3 of these 60 runs."""
        _, meta, data = write(HybridScheme(1, CC69), n_kb=192, seed=seed)
        for victim in sorted({c.node_id for c in meta.all_chunks()})[:6]:
            fs, meta, _ = write(HybridScheme(1, CC69), n_kb=192, seed=seed)
            fs.cluster.fail_node(victim)
            RecoveryManager(fs).recover_all()
            assert doubled(meta) == 0, victim
            assert audit(fs) == []
            assert np.array_equal(fs.read_file("f"), data)

    def test_a_rebuilt_copy_avoids_its_stripe(self):
        fs, meta, _ = write(HybridScheme(1, CC69))
        copy = meta.replica_blocks[0].copies[0]
        stripe_nodes = set(meta.stripes[0].node_ids())
        fs.cluster.fail_node(copy.node_id)
        RecoveryManager(fs).recover_all()
        assert copy.node_id not in stripe_nodes and audit(fs) == []
