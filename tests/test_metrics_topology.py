"""IO metrics accounting and cluster topology/failure plumbing."""

import numpy as np
import pytest

from repro.cluster.failure import FailureInjector
from repro.cluster.metrics import IOMetrics, NodeMetrics
from repro.cluster.topology import Cluster, ClusterSpec


class TestNodeMetrics:
    def test_totals(self):
        m = NodeMetrics()
        m.disk_bytes_read = 10
        m.disk_bytes_written = 5
        m.net_bytes_in = 3
        m.net_bytes_out = 4
        assert m.disk_bytes_total == 15
        assert m.net_bytes_total == 7

    def test_memory_watermark(self):
        m = NodeMetrics()
        m.use_memory(100)
        m.use_memory(50)
        m.free_memory(120)
        m.use_memory(10)
        assert m.memory_peak_bytes == 150
        assert m.memory_in_use_bytes == 40

    def test_free_never_negative(self):
        m = NodeMetrics()
        m.free_memory(10)
        assert m.memory_in_use_bytes == 0


class TestIOMetrics:
    def test_transfer_counts_once(self):
        metrics = IOMetrics()
        metrics.record_transfer("a", "b", 100)
        assert metrics.net_bytes_total == 100
        assert metrics.node("a").net_bytes_out == 100
        assert metrics.node("b").net_bytes_in == 100

    def test_local_transfer_is_free(self):
        metrics = IOMetrics()
        metrics.record_transfer("a", "a", 100)
        assert metrics.net_bytes_total == 0

    def test_aggregates(self):
        metrics = IOMetrics()
        metrics.record_disk_read("a", 10)
        metrics.record_disk_write("b", 20)
        metrics.record_cpu("a", 1.5)
        assert metrics.disk_bytes_total == 30
        assert metrics.cpu_seconds_total == 1.5
        summary = metrics.summary()
        assert summary["disk_read"] == 10
        assert summary["disk_write"] == 20

    def test_capacity_used_nets_out_deletes(self):
        # Regression: capacity_used() promised "written minus deleted"
        # but returned gross writes (deletes were never tracked at all).
        metrics = IOMetrics()
        metrics.record_disk_write("a", 100)
        metrics.record_disk_write("b", 50)
        metrics.record_disk_delete("a", 30)
        assert metrics.disk_bytes_deleted == 30
        assert metrics.capacity_used() == 120
        assert metrics.summary()["disk_deleted"] == 30

    def test_dfs_capacity_ledger_agrees_with_disks(self):
        # The DFS override sums physical chunk maps and asserts the
        # metrics ledger agrees; a full write+delete cycle must return
        # both views to zero.
        from repro.core.schemes import CodeKind, ECScheme, HybridScheme
        from repro.dfs import MorphFS

        fs = MorphFS(chunk_size=4 * 1024, future_widths=[6, 12])
        data = np.random.default_rng(7).integers(0, 256, 96 * 1024, dtype=np.uint8)
        fs.write_file("f", data, HybridScheme(1, ECScheme(CodeKind.CC, 6, 9)))
        assert fs.capacity_used() == fs.metrics.capacity_used() > 0
        fs.delete_file("f")
        assert fs.capacity_used() == 0
        assert fs.metrics.capacity_used() == 0


class TestCluster:
    def test_default_size_matches_paper_testbed(self):
        cluster = Cluster()
        assert len(cluster) == 23  # paper: 23 Datanodes

    def test_racks_assigned(self):
        cluster = Cluster(ClusterSpec(n_datanodes=8, n_racks=4))
        racks = {n.rack for n in cluster.nodes}
        assert racks == {0, 1, 2, 3}

    def test_fail_and_recover(self):
        cluster = Cluster()
        cluster.fail_node("dn000")
        assert len(cluster.alive_nodes()) == 22
        cluster.recover_node("dn000")
        assert len(cluster.alive_nodes()) == 23

    def test_fail_fraction(self):
        cluster = Cluster()
        failed = FailureInjector(cluster, seed=0).fail_fraction(0.10)
        assert len(failed) == 2  # round(0.1 * 23)
        assert len(cluster.alive_nodes()) == 21


class TestFailureInjector:
    def test_deterministic(self):
        a = FailureInjector(Cluster(), seed=1)
        b = FailureInjector(Cluster(), seed=1)
        assert a.fail_random_nodes(3) == b.fail_random_nodes(3)

    def test_recover_all(self):
        inj = FailureInjector(Cluster(), seed=2)
        inj.fail_fraction(0.2)
        assert len(inj.cluster.alive_nodes()) < 23
        inj.recover_all()
        assert len(inj.cluster.alive_nodes()) == 23
        assert not inj.failed_nodes

    def test_victims_are_down_and_the_rest_up(self):
        inj = FailureInjector(Cluster(), seed=3)
        victims = inj.fail_random_nodes(2)
        down = {n.node_id for n in inj.cluster.nodes if not n.is_alive}
        assert down == set(victims) == inj.failed_nodes
        assert len(inj.cluster.alive_nodes()) == 21

    def test_cannot_fail_more_than_alive(self):
        inj = FailureInjector(Cluster(ClusterSpec(n_datanodes=3)), seed=4)
        with pytest.raises(ValueError):
            inj.fail_random_nodes(5)
