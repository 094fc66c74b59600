"""Adversarial scenario suite + the three bugs it exposed (regressions).

Covers:

* ``FailureInjector.fail_fraction`` — the one victim sampler — drawing
  from the alive population only (``Cluster.fail_fraction`` used to
  re-fail already-dead nodes and under-inject);
* dead-lettered ``StripeRepairTask``s being resubmitted by the periodic
  repair sweep (they used to orphan their chunk forever);
* heartbeat tolerance for datanodes registered after the monitor was
  constructed (used to ``KeyError``), plus cancellation of stale queued
  repairs when their node returns intact;
* the scenario suite itself: seeded determinism via trace digests,
  every run ending on a clean audit (partition-heal's journal replaying
  to its live state included; ``--check`` fails on any violation), and
  the hedged-read latency win under a straggler.
"""

import numpy as np
import pytest

from repro.cluster.failure import FailureInjector
from repro.cluster.partition import NetworkPartition
from repro.cluster.topology import Cluster, ClusterSpec, NodeClass
from repro.core.schemes import CodeKind, ECScheme, HybridScheme
from repro.dfs import MorphFS
from repro.dfs.audit import audit
from repro.dfs.heartbeat import REPAIR_RESUBMIT_EVERY_TICKS, HeartbeatConfig, HeartbeatMonitor
from repro.sched.policies import SchedulerPolicy
from repro.sched.scheduler import MaintenanceScheduler
from repro.sched.tasks import StripeRepairTask

KB = 1024
CC69 = ECScheme(CodeKind.CC, 6, 9)


def hybrid_fs(seed=1, n_kb=96):
    fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
    data = np.random.default_rng(seed).integers(0, 256, n_kb * KB, dtype=np.uint8)
    fs.write_file("f", data, HybridScheme(1, CC69))
    return fs, data


# -- bugfix 1: fail_fraction samples the alive population --------------------

class TestFailFractionAliveOnly:
    def test_never_refails_dead_nodes(self):
        injector = FailureInjector(Cluster(ClusterSpec(n_datanodes=20)), seed=0)
        seen = set()
        for _ in range(5):
            victims = injector.fail_fraction(0.10)
            assert len(victims) == 2
            # Every injection produces NEW failures.
            assert not (set(victims) & seen)
            seen.update(victims)
        assert len(seen) == 10

    def test_of_alive_uses_current_population(self):
        injector = FailureInjector(Cluster(ClusterSpec(n_datanodes=20)), seed=0)
        injector.fail_fraction(0.50)  # 10 down, 10 alive
        victims = injector.fail_fraction(0.50, of_alive=True)
        assert len(victims) == 5  # half of the 10 still alive

    def test_raises_when_alive_pool_exhausted(self):
        injector = FailureInjector(Cluster(ClusterSpec(n_datanodes=4)), seed=0)
        injector.fail_fraction(0.75)
        with pytest.raises(ValueError):
            injector.fail_fraction(0.75)

    def test_injector_fraction_matches_cluster_semantics(self):
        cluster = Cluster(ClusterSpec(n_datanodes=20))
        injector = FailureInjector(cluster, seed=3)
        first = injector.fail_fraction(0.10)
        second = injector.fail_fraction(0.10)
        assert len(first) == len(second) == 2
        assert not (set(first) & set(second))


# -- bugfix 2: dead-lettered repairs are resubmitted -------------------------

class TestRepairResubmission:
    def test_dead_lettered_repair_is_eventually_resubmitted(self, monkeypatch):
        from repro.dfs import recovery as recovery_mod

        fs, data = hybrid_fs()
        victim = fs.namenode.lookup("f").stripes[0].data[0].node_id
        fs.cluster.fail_node(victim)
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=2))

        real = recovery_mod.RecoveryManager.recover_chunks
        state = {"fail": True}

        def flaky(self, pairs):
            if state["fail"]:
                raise RuntimeError("transient source error")
            return real(self, pairs)

        monkeypatch.setattr(recovery_mod.RecoveryManager, "recover_chunks", flaky)
        # Declare dead; the first repair wave fails until it dead-letters.
        for _ in range(20):
            monitor.tick()
            if fs.scheduler.dead_letter:
                break
        buried = list(fs.scheduler.dead_letter)
        assert buried and all(isinstance(t, StripeRepairTask) for t in buried)
        assert not any(isinstance(t, StripeRepairTask) for t in fs.scheduler.queue.backlog())
        n_lost = sum(len(t.chunks) for t in buried)

        # Source recovers; the periodic sweep must resubmit fresh tasks —
        # one per damaged stripe / block again, covering every lost chunk.
        state["fail"] = False
        reports = [monitor.tick() for _ in range(REPAIR_RESUBMIT_EVERY_TICKS + 2)]
        fresh = [
            t for r in reports for t in r.scheduler.executed
            if isinstance(t, StripeRepairTask)
        ]
        assert len(fresh) == len(buried) and not set(map(id, fresh)) & set(map(id, buried))
        assert sum(r.chunks_recovered for r in reports) == n_lost > 0
        assert np.array_equal(fs.read_file("f"), data)


# -- bugfix 3: late-registered datanodes + stale-repair cancellation ---------

class TestLateRegistrationAndStaleRepairs:
    def test_late_registered_datanode_does_not_keyerror(self):
        from repro.dfs.datanode import Datanode

        fs, _ = hybrid_fs()
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=2))
        monitor.tick()
        late = Datanode("late00", fs.metrics)
        late.fail()  # registered already dark: every beat missed
        fs.datanodes["late00"] = late
        report = None
        for _ in range(2):
            report = monitor.tick()  # used to KeyError on the unseen id
        assert "late00" in report.newly_dead

    def test_stale_queued_repairs_cancelled_when_node_returns(self):
        fs, data = hybrid_fs()
        # Near-zero budget: submitted repairs stay queued, never admitted.
        fs.scheduler = MaintenanceScheduler(
            fs, policy=SchedulerPolicy(disk_bytes_per_tick=1.0)
        )
        victim = fs.namenode.lookup("f").stripes[0].data[0].node_id
        fs.cluster.fail_node(victim)
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=2))
        monitor.tick(), monitor.tick()
        queued = [
            t for t in fs.scheduler.queue.backlog() if isinstance(t, StripeRepairTask)
        ]
        assert queued, "repairs should be queued but not admitted"
        assert all(c.node_id == victim for t in queued for c in t.chunks)
        n_queued_chunks = sum(len(t.chunks) for t in queued)

        fs.cluster.recover_node(victim)
        report = monitor.tick()
        assert victim in report.newly_alive
        # Every queued chunk sat on the one dead node: each counts as a
        # cancelled repair and no task is left with anything to do.
        assert report.repairs_cancelled == n_queued_chunks > 0
        assert all(t.result == "cancelled" and not t.chunks for t in queued)
        assert not fs.scheduler.queue.backlog()
        assert np.array_equal(fs.read_file("f"), data)


# -- the partition mask ------------------------------------------------------

class TestNetworkPartition:
    def test_inactive_mask_reaches_everywhere(self):
        p = NetworkPartition()
        assert p.reachable("a", "b") and not p.active

    def test_split_heal_roundtrip(self):
        p = NetworkPartition()
        p.split(["a", "b"])
        assert p.active
        assert p.reachable("a", "b")
        assert not p.reachable("a", "namenode")
        p.heal()
        assert p.reachable("a", "namenode")

    def test_duplicate_membership_rejected(self):
        p = NetworkPartition()
        with pytest.raises(ValueError):
            p.split(["a"], ["a", "b"])

    def test_partitioned_island_declared_dead_and_rehomed(self):
        fs, data = hybrid_fs()
        meta = fs.namenode.lookup("f")
        island = [meta.stripes[0].data[0].node_id]
        fs.partition.isolate(island)
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=2))
        reports = [monitor.tick() for _ in range(3)]
        assert island[0] in {n for r in reports for n in r.newly_dead}
        # The island's chunks were re-homed on the reachable side.
        assert all(c.node_id not in island for c in meta.all_chunks())
        fs.partition.heal()
        assert np.array_equal(fs.read_file("f"), data)


class TestMaskHonouredEverywhere:
    """Transcode and seal reads, and repair classification, used to test
    ``is_alive and has_chunk`` without the mask: they read across a cut
    and counted unreachable copies as spare redundancy."""

    @staticmethod
    def io_out_of(fs, node_id):
        node = fs.metrics.node(node_id)
        return node.disk_bytes_read, node.net_bytes_out

    def test_transcode_decodes_around_an_unreachable_source(self):
        from repro.codes.convertible import plan_conversion

        fs = MorphFS(chunk_size=4 * KB, future_widths=[12, 6])
        data = np.random.default_rng(1).integers(0, 256, 24 * 4 * KB, dtype=np.uint8)
        fs.write_file("f", data, ECScheme(CodeKind.CC, 12, 15))
        # The split reads some data chunks over the network: cut one off.
        plan = plan_conversion(ECScheme(CodeKind.CC, 12, 15), 1, CC69)
        stripe = fs.namenode.lookup("f").stripes[0]
        far = stripe.data[min(plan.data_reads)].node_id
        assert far != stripe.parities[0].node_id
        fs.partition.isolate([far])
        before = self.io_out_of(fs, far)
        fs.transcode("f", CC69)
        assert self.io_out_of(fs, far) == before
        assert [s.k for s in fs.namenode.lookup("f").stripes] == [6, 6, 6, 6]
        fs.partition.heal()
        assert np.array_equal(fs.read_file("f"), data)
        assert audit(fs) == []

    def test_seal_reads_replicas_around_an_unreachable_data_chunk(self):
        fs, data = hybrid_fs(n_kb=0)
        data = np.random.default_rng(1).integers(0, 256, 20 * KB, dtype=np.uint8)
        fs.append_file("f", data)  # an open 5-chunk tail: replicas, no parities
        stripe = fs.namenode.lookup("f").stripes[0]
        far = stripe.data[2].node_id
        fs.partition.isolate([far])
        before = self.io_out_of(fs, far)
        fs.transcode("f", CC69)  # the free transition seals the open tail
        assert self.io_out_of(fs, far) == before
        meta = fs.namenode.lookup("f")
        assert all(len(s.parities) == 3 for s in meta.stripes)
        fs.partition.heal()
        assert audit(fs) == []
        assert np.array_equal(fs.read_file("f"), data)

    def test_repair_is_critical_when_reachable_redundancy_is_spent(self):
        from repro.sched.policies import classify_repair
        from repro.sched.tasks import TaskClass

        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
        data = np.random.default_rng(1).integers(0, 256, 24 * KB, dtype=np.uint8)
        fs.write_file("f", data, CC69)
        meta = fs.namenode.lookup("f")
        homes = [c.node_id for c in meta.stripes[0].all_chunks()]
        lost = meta.stripes[0].data[0]
        fs.partition.isolate(homes[:2])
        assert classify_repair(fs, meta, lost) is TaskClass.REPAIR
        # A third copy behind the cut: every chunk is alive, none is spare.
        fs.partition.isolate(homes[:3])
        assert classify_repair(fs, meta, lost) is TaskClass.CRITICAL_REPAIR


class TestInjectorIsAWholeFailure:
    def test_injector_alone_fails_drains_and_returns_nodes(self):
        from repro.dfs.recovery import RecoveryManager

        fs, data = hybrid_fs()
        meta = fs.namenode.lookup("f")
        injector = FailureInjector(fs.cluster, seed=0)
        victims = injector.fail_random_nodes(2)
        assert {c.node_id for c in meta.all_chunks()} & set(victims)
        assert not any(fs.datanodes[v].is_alive for v in victims)

        monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=2))
        reports = [monitor.tick() for _ in range(4)]
        assert {n for r in reports for n in r.newly_dead} == set(victims)
        assert sum(r.chunks_recovered for r in reports) > 0
        assert not {c.node_id for c in meta.all_chunks()} & set(victims)
        assert not RecoveryManager(fs).lost_chunks(monitor.declared_dead())
        assert np.array_equal(fs.read_file("f"), data)

        injector.recover_all()
        assert all(fs.datanodes[v].is_alive for v in victims)
        assert set(monitor.tick().newly_alive) == set(victims)

    def test_recover_all_cancels_stale_queued_repairs(self):
        fs, data = hybrid_fs()
        # Near-zero budget: submitted repairs stay queued, never admitted.
        fs.scheduler = MaintenanceScheduler(
            fs, policy=SchedulerPolicy(disk_bytes_per_tick=1.0)
        )
        injector = FailureInjector(fs.cluster, seed=0)
        injector.fail_random_nodes(2)
        monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=2))
        monitor.tick(), monitor.tick()
        queued = sum(
            len(t.chunks)
            for t in fs.scheduler.queue.backlog()
            if isinstance(t, StripeRepairTask)
        )
        assert queued > 0
        injector.recover_all()
        assert monitor.tick().repairs_cancelled == queued
        assert not fs.scheduler.queue.backlog()
        assert np.array_equal(fs.read_file("f"), data)


# -- scenario suite ----------------------------------------------------------

class TestScenarioSuite:
    def test_rack_burst_deterministic_trace(self):
        from repro.cluster.scenarios import run_rack_burst

        a = run_rack_burst(seed=7, quick=True)
        b = run_rack_burst(seed=7, quick=True)
        assert a.trace_digest == b.trace_digest
        assert a.lost_chunks == 0 and a.files_verified > 0

    def test_partition_heal_converges_with_journal_replay(self):
        from repro.cluster.scenarios import run_partition_heal

        result = run_partition_heal(seed=0, quick=True)
        assert result.violations == []
        assert result.lost_chunks == 0
        assert result.files_verified > 0

    def test_check_fails_on_a_violation(self, monkeypatch, capsys):
        """A healed island that keeps the copies re-homed while it was
        away: the audit sees them, and ``--check`` exits 1."""
        from repro.cluster.scenarios import main
        from repro.dfs.filesystem import _BaseDFS

        assert main(["partition_heal", "--quick", "--check"]) == 0
        monkeypatch.setattr(_BaseDFS, "drop_unlisted", lambda fs, node_id: 0)
        assert main(["partition_heal", "--quick", "--check"]) == 1
        out = capsys.readouterr().out
        assert "5 audit violations" in out and "unlisted" in out
        assert "FAIL: audit violations in partition_heal" in out

    def test_straggler_hedged_reads_win(self):
        from repro.sched.simulate import SimConfig, run_failure_burst
        from repro.sim.cluster import SimCluster

        def straggler_cluster():
            sim = SimCluster(12, seed=0)
            sim.nodes[3].disk_multiplier = 8.0
            return sim

        base = dict(n_nodes=12, n_repairs=16, duration_s=14.0, seed=0)
        unhedged = run_failure_burst(
            None, SimConfig(**base), cluster=straggler_cluster()
        )
        hedged = run_failure_burst(
            None, SimConfig(**base, hedge_after_s=0.05), cluster=straggler_cluster()
        )
        assert hedged.hedged_reads > 0
        assert hedged.p99_latency_s < unhedged.p99_latency_s

    def test_functional_hedge_avoids_slow_home(self):
        fs, data = hybrid_fs()
        meta = fs.namenode.lookup("f")
        slow = meta.stripes[0].data[0].node_id
        fs.cluster.node(slow).disk_multiplier = 8.0
        fs.hedge_slow_disk_multiplier = 4.0
        assert np.array_equal(fs.read_file("f"), data)
        assert fs.reader.hedged_reads > 0

    def test_tier_classes_interleave_across_racks(self):
        ssd = NodeClass("ssd", count=12, disk_multiplier=0.25)
        hdd = NodeClass("hdd", count=12)
        cluster = Cluster(
            ClusterSpec(n_datanodes=24, n_racks=4, node_classes=[ssd, hdd])
        )
        for rack in cluster.racks():
            classes = {n.node_class for n in cluster.nodes_in_rack(rack)}
            assert classes == {"ssd", "hdd"}
        # A node starts at its class's multiplier.
        fast = cluster.nodes_in_class("ssd")[0]
        assert fast.disk_multiplier == 0.25

    def test_tiered_placement_prefers_fast_class(self):
        ssd = NodeClass("ssd", count=12, disk_multiplier=0.25)
        hdd = NodeClass("hdd", count=12)
        cluster = Cluster(
            ClusterSpec(n_datanodes=24, n_racks=4, node_classes=[ssd, hdd])
        )
        fs = MorphFS(cluster=cluster, chunk_size=4 * KB, future_widths=[6, 12])
        fs.placement_prefer_class = "ssd"
        data = np.random.default_rng(0).integers(0, 256, 96 * KB, dtype=np.uint8)
        fs.write_file("hot", data, HybridScheme(1, CC69))
        ssd_ids = {n.node_id for n in cluster.nodes_in_class("ssd")}
        placed = [c.node_id for c in fs.namenode.lookup("hot").all_chunks()]
        assert sum(1 for p in placed if p in ssd_ids) / len(placed) > 0.5
        assert np.array_equal(fs.read_file("hot"), data)

    def test_cli_lists_unknown_scenario(self):
        from repro.cluster.scenarios import run_scenarios

        with pytest.raises(KeyError):
            run_scenarios(["nope"])
