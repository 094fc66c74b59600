"""§6.1 parity options and the §4.2 spanning-write protocol, functional."""

import numpy as np
import pytest

from repro.core.schemes import CodeKind, ECScheme, HybridScheme
from repro.dfs import MorphFS

KB = 1024
CC69 = ECScheme(CodeKind.CC, 6, 9)


def make_fs(**kwargs):
    return MorphFS(chunk_size=4 * KB, future_widths=[6, 12], **kwargs)


def write(fs, n_kb=48, seed=1):
    data = np.random.default_rng(seed).integers(0, 256, n_kb * KB, dtype=np.uint8)
    fs.write_file("f", data, HybridScheme(1, CC69))
    return data


class TestAsyncDefault:
    def test_striper_pays_encode(self):
        fs = make_fs()
        write(fs)
        assert fs.metrics.node("client").cpu_seconds == 0
        assert fs.metrics.cpu_seconds_total > 0


class TestSyncMode:
    def test_client_pays_encode_and_parity_network(self):
        fs = make_fs(parity_mode="sync")
        data = write(fs)
        assert fs.metrics.node("client").cpu_seconds > 0
        # Parities travel from the client: client net_out includes them
        # in addition to the initial block send.
        client_out = fs.metrics.node("client").net_bytes_out
        assert client_out == pytest.approx(len(data) + 0.5 * len(data))

    def test_same_resting_state_as_async(self):
        sync = make_fs(parity_mode="sync")
        asyn = make_fs(parity_mode="async")
        d1 = write(sync)
        d2 = write(asyn)
        assert sync.capacity_used() == asyn.capacity_used()
        assert np.array_equal(sync.read_file("f"), d1)


class TestNoneMode:
    def test_no_parities_extra_replica(self):
        fs = make_fs(parity_mode="none")
        data = write(fs)
        meta = fs.namenode.lookup("f")
        for stripe in meta.stripes:
            assert stripe.parities == []
        for block in meta.replica_blocks:
            assert len(block.copies) == 2  # c + 1
        # Footprint: 2 replicas + data chunks = 3.0x (same as c+1 rep + stripe).
        assert fs.capacity_used() == pytest.approx(3.0 * len(data))

    def test_reads_and_failures(self):
        fs = make_fs(parity_mode="none")
        data = write(fs)
        meta = fs.namenode.lookup("f")
        victim = meta.stripes[0].data[0].node_id
        fs.cluster.fail_node(victim)
        fs.datanodes[victim].fail()
        assert np.array_equal(fs.read_file("f"), data)

    def test_no_encode_cpu_anywhere(self):
        fs = make_fs(parity_mode="none")
        write(fs)
        assert fs.metrics.cpu_seconds_total == 0

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            make_fs(parity_mode="lazy")


class TestSpanningProtocol:
    def test_extra_network_copy(self):
        small = make_fs(spanning_protocol=False)
        spanning = make_fs(spanning_protocol=True)
        d1 = write(small)
        write(spanning)
        # Spanning mirrors 3 full copies before striping: one extra block
        # transfer per stripe versus the 2-mirror small-write variant.
        assert spanning.metrics.net_bytes_total == pytest.approx(
            small.metrics.net_bytes_total + len(d1)
        )

    def test_same_resting_state(self):
        small = make_fs(spanning_protocol=False)
        spanning = make_fs(spanning_protocol=True)
        d = write(small)
        write(spanning)
        assert small.capacity_used() == spanning.capacity_used()
        assert np.array_equal(spanning.read_file("f"), d)

    def test_temporaries_never_hit_disk(self):
        fs = make_fs(spanning_protocol=True)
        data = write(fs)
        assert fs.metrics.disk_bytes_written == pytest.approx(2.5 * len(data))
        assert fs.memory_used() == 0


class TestNoneModeTransition:
    def test_free_transition_seals_stripes_first(self):
        """Dropping replicas must not strand parity-less stripes (§4.5
        is only free when the EC side already exists)."""
        fs = make_fs(parity_mode="none")
        data = write(fs)
        fs.transcode("f", CC69)
        meta = fs.namenode.lookup("f")
        assert meta.replica_blocks == []
        for stripe in meta.stripes:
            assert len(stripe.parities) == 3
        # Full EC protection: any 3 chunk losses of a stripe are fine.
        for chunk in meta.stripes[0].all_chunks()[:3]:
            fs.cluster.fail_node(chunk.node_id)
            fs.datanodes[chunk.node_id].fail()
        assert np.array_equal(fs.read_file("f"), data)

    def test_sealing_costs_parity_writes_only_once(self):
        fs = make_fs(parity_mode="none")
        data = write(fs)
        w0 = fs.metrics.disk_bytes_written
        fs.transcode("f", CC69)
        # 2 stripes x 3 parities of 4 KB each.
        assert fs.metrics.disk_bytes_written - w0 == pytest.approx(6 * 4 * KB)

    def test_sealing_meters_the_network_it_uses(self):
        """One stripe, its first data home the striper: the other 5 data
        chunks reach it over the network and the 3 parities leave it —
        8 chunks (the 5 used to travel for free)."""
        fs = make_fs(parity_mode="none")
        write(fs, n_kb=24)
        meta = fs.namenode.lookup("f")
        m = fs.metrics
        homes = [chunk.node_id for chunk in meta.stripes[0].data]
        sent = {node: (m.node(node).net_bytes_in, m.node(node).net_bytes_out) for node in homes}
        before = m.disk_bytes_read, m.disk_bytes_written, m.net_bytes_total
        fs._seal_stripe(meta, meta.stripes[0], fs._placement_for(meta))
        after = m.disk_bytes_read, m.disk_bytes_written, m.net_bytes_total
        assert [b - a for a, b in zip(before, after)] == [6 * 4 * KB, 3 * 4 * KB, 8 * 4 * KB]
        assert m.node(homes[0]).net_bytes_in - sent[homes[0]][0] == 5 * 4 * KB
        assert [m.node(node).net_bytes_out - sent[node][1] for node in homes[1:]] == [4 * KB] * 5

    def test_open_append_tail_also_sealed(self):
        fs = make_fs()
        data = write(fs, n_kb=24)
        extra = np.random.default_rng(8).integers(0, 256, 10 * KB, dtype=np.uint8)
        fs.append_file("f", extra)
        # Transcode without an explicit close: the open tail gets sealed.
        fs.transcode("f", CC69)
        meta = fs.namenode.lookup("f")
        for stripe in meta.stripes:
            assert len(stripe.parities) == 3
        assert np.array_equal(fs.read_file("f"), np.concatenate([data, extra]))


MODES = [
    pytest.param({"parity_mode": mode, "spanning_protocol": spanning}, id=f"{mode}-{name}")
    for mode in ("async", "sync", "none")
    for spanning, name in ((False, "small"), (True, "spanning"))
]


def shape(fs):
    """What a write left behind: per stripe ``(k, n, #parities)`` and
    persisted replica copies, then the IO it was charged."""
    meta = fs.namenode.lookup("f")
    m = fs.metrics
    return {
        "stripes": [(s.k, s.n, len(s.parities)) for s in meta.stripes],
        "copies": [len(b.copies) for b in meta.replica_blocks],
        "net": m.net_bytes_total,
        "disk_written": m.disk_bytes_written,
        "cpu": {n: v.cpu_seconds for n, v in m.nodes.items() if v.cpu_seconds},
        "capacity": fs.capacity_used(),
    }


class TestAppendIsWriteInEveryMode:
    """``append_file`` stages its region through the hybrid writer
    ``write_file`` uses, so the options reach both. (The append path's
    own writer knew neither ``parity_mode`` nor ``spanning_protocol``:
    five of these six combinations stored a different file.)"""

    @pytest.mark.parametrize("n_stripes", [1, 3])
    @pytest.mark.parametrize("options", MODES)
    def test_whole_stripes(self, options, n_stripes):
        data = np.random.default_rng(5).integers(0, 256, n_stripes * 24 * KB, dtype=np.uint8)
        written, appended = make_fs(**options), make_fs(**options)
        written.write_file("f", data, HybridScheme(1, CC69))
        appended.write_file("f", np.zeros(0, np.uint8), HybridScheme(1, CC69))
        appended.append_file("f", data)
        assert shape(appended) == shape(written)
        for fs in (written, appended):
            assert fs.memory_used() == 0
            assert np.array_equal(fs.read_file("f"), data)

    @pytest.mark.parametrize("options", MODES)
    def test_open_tail_persists_one_more_copy_and_no_parities(self, options):
        fs = make_fs(**options)
        data = np.random.default_rng(6).integers(0, 256, (24 + 8) * KB, dtype=np.uint8)
        fs.write_file("f", np.zeros(0, np.uint8), HybridScheme(1, CC69))
        fs.append_file("f", data)
        meta = fs.namenode.lookup("f")
        tail, block = meta.stripes[-1], meta.replica_blocks[-1]
        assert (tail.k, tail.n, tail.parities) == (2, 2, [])
        assert len(block.copies) == 2  # c + 1
        assert fs.memory_used() == 0
        assert np.array_equal(fs.read_file("f"), data)
