"""The §4.2 small-write protocol with §6.1's asynchronous parities,
functional: the striper encodes, an appended open tail waits for its
parities until it is sealed. The sync / async / none study runs in the
timed model (``benchmarks/test_parity_options.py``)."""

import numpy as np
import pytest

from repro.core.schemes import CodeKind, ECScheme, HybridScheme
from repro.dfs import MorphFS

KB = 1024
CC69 = ECScheme(CodeKind.CC, 6, 9)
CC1215 = ECScheme(CodeKind.CC, 12, 15)
SCHEMES = [HybridScheme(1, CC69), HybridScheme(2, CC69), HybridScheme(1, CC1215)]


def make_fs():
    return MorphFS(chunk_size=4 * KB, future_widths=[6, 12])


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

    @pytest.mark.parametrize("scheme", SCHEMES, ids=str)
    def test_temporaries_never_hit_disk(self, scheme):
        fs = make_fs()
        data = np.random.default_rng(1).integers(0, 256, 96 * KB, dtype=np.uint8)
        fs.write_file("f", data, scheme)
        # The persisted replicas, the data chunks and the parities.
        assert fs.metrics.disk_bytes_written == pytest.approx(
            scheme.storage_overhead * len(data)
        )
        assert fs.memory_used() == 0


def write_open_tail(fs, n_kb=16, seed=1):
    """An empty file appended ``n_kb`` (under one stripe): one open tail
    stripe, data chunks and ``c + 1`` replicas, no parities."""
    data = np.random.default_rng(seed).integers(0, 256, n_kb * KB, dtype=np.uint8)
    fs.write_file("f", np.zeros(0, np.uint8), HybridScheme(1, CC69))
    fs.append_file("f", data)
    assert fs.namenode.lookup("f").stripes[-1].parities == []
    return data


class TestOpenTailTransition:
    @pytest.mark.parametrize("n_kb", [4, 16, 20])
    def test_free_transition_seals_stripes_first(self, n_kb):
        """Dropping replicas must not strand a parity-less stripe (§4.5
        is only free when the EC side already exists)."""
        fs = make_fs()
        data = write_open_tail(fs, n_kb)
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

    @pytest.mark.parametrize("n_kb", [4, 16, 20])
    def test_sealing_costs_parity_writes_only_once(self, n_kb):
        fs = make_fs()
        write_open_tail(fs, n_kb)
        w0 = fs.metrics.disk_bytes_written
        fs.transcode("f", CC69)
        # 1 stripe x 3 parities of 4 KB each.
        assert fs.metrics.disk_bytes_written - w0 == pytest.approx(3 * 4 * KB)

    def test_sealing_meters_the_network_it_uses(self):
        """One open 4-chunk tail, its first data home the striper: the
        other 3 data chunks reach it over the network and the 3 parities
        leave it — 6 chunks (the 3 used to travel for free)."""
        fs = make_fs()
        write_open_tail(fs)
        meta = fs.namenode.lookup("f")
        m = fs.metrics
        homes = [chunk.node_id for chunk in meta.stripes[0].data]
        sent = {node: (m.node(node).net_bytes_in, m.node(node).net_bytes_out) for node in homes}
        before = m.disk_bytes_read, m.disk_bytes_written, m.net_bytes_total
        fs._seal_stripe(meta, meta.stripes[0], fs._placement_for(meta))
        after = m.disk_bytes_read, m.disk_bytes_written, m.net_bytes_total
        assert [b - a for a, b in zip(before, after)] == [4 * 4 * KB, 3 * 4 * KB, 6 * 4 * KB]
        assert m.node(homes[0]).net_bytes_in - sent[homes[0]][0] == 3 * 4 * KB
        assert [m.node(node).net_bytes_out - sent[node][1] for node in homes[1:]] == [4 * KB] * 3

    @pytest.mark.parametrize("extra_bytes", [4 * KB, 10 * KB])
    def test_open_append_tail_also_sealed(self, extra_bytes):
        fs = make_fs()
        data = write(fs, n_kb=24)
        extra = np.random.default_rng(8).integers(0, 256, extra_bytes, dtype=np.uint8)
        fs.append_file("f", extra)
        # Transcode without an explicit close: the open tail gets sealed.
        fs.transcode("f", CC69)
        meta = fs.namenode.lookup("f")
        for stripe in meta.stripes:
            assert len(stripe.parities) == 3
        assert np.array_equal(fs.read_file("f"), np.concatenate([data, extra]))


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


class TestAppendIsWrite:
    """``append_file`` stages its region through the hybrid writer
    ``write_file`` uses, so both store the same file."""

    @pytest.mark.parametrize("scheme", SCHEMES, ids=str)
    @pytest.mark.parametrize("n_stripes", [1, 2, 3])
    def test_whole_stripes(self, n_stripes, scheme):
        stripe_bytes = scheme.ec.k * 4 * KB
        data = np.random.default_rng(5).integers(0, 256, n_stripes * stripe_bytes, dtype=np.uint8)
        written, appended = make_fs(), make_fs()
        written.write_file("f", data, scheme)
        appended.write_file("f", np.zeros(0, np.uint8), scheme)
        appended.append_file("f", data)
        assert shape(appended) == shape(written)
        for fs in (written, appended):
            assert fs.memory_used() == 0
            assert np.array_equal(fs.read_file("f"), data)

    @pytest.mark.parametrize("scheme", SCHEMES, ids=str)
    @pytest.mark.parametrize("tail_chunks", [1, 2, 5])
    def test_open_tail_persists_one_more_copy_and_no_parities(self, tail_chunks, scheme):
        fs = make_fs()
        whole = scheme.ec.k * 4 * KB
        data = np.random.default_rng(6).integers(
            0, 256, whole + tail_chunks * 4 * KB, dtype=np.uint8
        )
        fs.write_file("f", np.zeros(0, np.uint8), scheme)
        fs.append_file("f", data)
        meta = fs.namenode.lookup("f")
        tail, block = meta.stripes[-1], meta.replica_blocks[-1]
        assert (tail.k, tail.n, tail.parities) == (tail_chunks, tail_chunks, [])
        assert len(block.copies) == scheme.copies + 1
        assert fs.memory_used() == 0
        assert np.array_equal(fs.read_file("f"), data)
