"""One call on every core: ``repro.gf.kernels.split`` and its four users.

A GF apply or a CRC that reads at least ``SPLIT_FROM_BYTES`` cuts its
range into contiguous parts that run at once; a merge's scale-and-XOR
never splits (no chunk a workload uses reaches the threshold with it),
and its cases here check equality under the same forcing, not a split. Nothing a caller sees may depend on that: products and sums are
bit-identical to the whole call's, tables and caches are touched on the
calling thread only, a part never splits again, and below the threshold
no thread is ever started. One CRC rule covers a batch of chunks (a
whole chunk a part, a long chunk's ranges) as it covers one; the caller
claims parts beside the pool, so a busy pool thread never holds it; a
4 KiB-chunk round starts no thread, one CPU never splits, and a cgroup
CPU quota narrows ``CORES``. ``CORES`` and ``SPLIT_MIN_BYTES`` are
monkeypatched here so the split runs on any machine, one CPU included.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
import weakref
import zlib
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import tests.test_gf_kernels as gf_kernel_tests
from repro.core.schemes import CodeKind, ECScheme, HybridScheme
from repro.dfs import MorphFS, integrity
from repro.dfs.integrity import ChecksumRegistry, chunk_checksum
from repro.dfs.recovery import RecoveryManager
from repro.gf import kernels
from repro.gf.kernels import GF8, GF16, MulPlan, gf_scale_xor

KB = 1024
SRC = Path(__file__).resolve().parents[1] / "src"


def force_split(monkeypatch, cores: int, min_bytes: int) -> None:
    """Split like a ``cores``-CPU machine would at ``min_bytes`` a part:
    the constants and the gate both modules compare against."""
    monkeypatch.setattr(kernels, "CORES", cores)
    monkeypatch.setattr(kernels, "SPLIT_MIN_BYTES", min_bytes)
    for module in (kernels, integrity):
        monkeypatch.setattr(module, "SPLIT_FROM_BYTES", 2 * min_bytes)


def _rand(field, rng, *shape):
    return rng.integers(0, 1 << (8 * field.dtype.itemsize), size=shape, dtype=field.dtype)


class TestSplit:
    def test_ranges_are_contiguous_ordered_and_cover(self, monkeypatch):
        force_split(monkeypatch, 4, 10)
        for n, nbytes in [(1, 1000), (3, 1000), (7, 25), (1001, 1000), (1001, 39)]:
            got = kernels.split(lambda lo, hi: (lo, hi), n, nbytes)
            assert got[0][0] == 0 and got[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(got, got[1:]))
            assert all(lo < hi for lo, hi in got)
            assert len(got) == min(nbytes // 10, n)

    def test_below_two_parts_runs_inline(self, monkeypatch):
        force_split(monkeypatch, 4, 10)
        callers = kernels.split(lambda lo, hi: threading.current_thread(), 100, 19)
        assert callers == [threading.current_thread()]

    def test_parts_run_on_the_caller_and_the_pool(self, monkeypatch):
        force_split(monkeypatch, 3, 10)

        def part(lo, hi):
            time.sleep(0.05)  # long enough for the pool to wake and claim
            return threading.current_thread()

        callers = kernels.split(part, 30, 30)
        me = threading.current_thread()
        assert me in callers and any(t is not me for t in callers)

    def test_a_busy_pool_does_not_hold_the_caller(self, monkeypatch):
        """A range no pool thread has started when the caller is free runs
        on the caller: a busy second CPU costs a split its gain, not a
        wait."""
        force_split(monkeypatch, 2, 10)
        monkeypatch.setattr(kernels, "_pool", kernels._Pool(1))
        started, release = threading.Event(), threading.Event()

        def hold(lo, hi):
            started.set()
            release.wait(5)

        kernels._pool.jobs.put(kernels._Job(hold, [0, 1]))
        assert started.wait(5)  # the pool's one thread is now busy
        try:
            t0 = time.monotonic()
            callers = kernels.split(lambda lo, hi: threading.current_thread(), 30, 30)
            assert time.monotonic() - t0 < 1
        finally:
            release.set()
        assert callers == [threading.current_thread()] * 3

    @pytest.mark.parametrize("failing", [0, 2])
    def test_raises_only_once_every_part_has_finished(self, monkeypatch, failing):
        force_split(monkeypatch, 3, 10)
        finished = []
        release = threading.Event()

        def part(lo, hi):
            if lo == 0:
                release.set()  # the pool's parts may now finish
            else:
                release.wait(5)
            finished.append(lo)
            if lo // 10 == failing:
                raise KeyError(lo)

        with pytest.raises(KeyError):
            kernels.split(part, 30, 30)
        assert sorted(finished) == [0, 10, 20]

    def test_parts_under_thread_switch_stress(self, monkeypatch):
        """More parts than this machine has cores, the interpreter
        switching threads every microsecond, splits back to back: every
        element is written by exactly one part and every answer comes
        back to its own call, in range order."""
        force_split(monkeypatch, 8, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 10
            for call in range(200):
                out = np.zeros(1000 + call, dtype=np.int64)

                def part(lo, hi, out=out, call=call):
                    out[lo:hi] += 1
                    return call, lo, hi

                got = kernels.split(part, len(out), 8)
                assert [c for c, _lo, _hi in got] == [call] * 8
                assert [lo for _c, lo, _hi in got] == sorted(lo for _c, lo, _hi in got)
                assert (out == 1).all()
                assert time.monotonic() < deadline
        finally:
            sys.setswitchinterval(interval)

    def test_an_idle_pool_keeps_no_array_alive(self, monkeypatch):
        """A pool thread waiting for work must not hold the last part's
        arrays: on a read that kept a whole result buffer alive."""
        force_split(monkeypatch, 2, 10)
        data = np.zeros(100, dtype=np.uint8)
        alive = weakref.ref(data)
        kernels.split(partial(lambda a, lo, hi: int(a[lo:hi].sum()), data), 100, 100)
        del data
        deadline = time.monotonic() + 5
        while alive() is not None and time.monotonic() < deadline:
            time.sleep(0.001)  # the worker lets go right after it answers
        assert alive() is None


def test_cores_is_observed_and_one_cpu_never_splits():
    """``CORES`` is the affinity mask, or ``os.cpu_count()`` where there
    is none (macOS, Windows), capped by a cgroup CPU quota; on one CPU
    the gate is ``sys.maxsize`` and
    a 1 MiB apply, scale-and-XOR and CRC start no thread."""
    one_cpu = (
        "import os, sys, zlib\n"
        "import numpy as np\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from repro.gf import kernels\n"
        "from repro.dfs.integrity import ChecksumRegistry, chunk_checksum\n"
        "assert kernels.CORES == 1 and kernels.SPLIT_FROM_BYTES == sys.maxsize\n"
        "b = np.random.default_rng(0).integers(0, 256, (6, 1 << 20), dtype=np.uint8)\n"
        "kernels.MulPlan(np.arange(2, 20, dtype=np.uint8).reshape(3, 6)).apply(b)\n"
        "kernels.gf_scale_xor(b[0].copy(), 7, b[1])\n"
        "ChecksumRegistry().record('c', b[0])\n"
        "assert chunk_checksum(b[0]) == zlib.crc32(b[0])\n"
        "assert kernels._pool is None\n"
    )
    no_affinity = (
        "import os, sys\n"
        "del os.sched_getaffinity\n"
        "os.cpu_count = lambda: 3\n"
        "from repro.gf import kernels\n"
        "assert kernels.CORES == min(3, kernels._quota_cpus())\n"
        "assert kernels.SPLIT_FROM_BYTES == (4 << 20 if kernels.CORES > 1 else sys.maxsize)\n"
    )
    scripts = [no_affinity]
    if hasattr(os, "sched_setaffinity"):
        scripts.append(one_cpu)
    for script in scripts:
        subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=120,
        )


@pytest.mark.parametrize(
    "v2, v1, cpus",
    [
        ("150000 100000", None, 1),
        ("400000 100000", None, 4),
        ("50000 100000", None, 1),
        ("max 100000", None, sys.maxsize),
        (None, ("300000", "100000"), 3),
        (None, ("-1", "100000"), sys.maxsize),
        (None, None, sys.maxsize),
    ],
)
def test_a_cgroup_quota_narrows_cores(tmp_path, monkeypatch, v2, v1, cpus):
    """A container capped by a CPU quota still sees every host CPU in its
    affinity mask: the quota, in whole CPUs, is what it may split over."""
    v2_file, quota_file, period_file = (tmp_path / n for n in ("cpu.max", "quota", "period"))
    if v2 is not None:
        v2_file.write_text(v2 + "\n")
    if v1 is not None:
        quota_file.write_text(v1[0] + "\n")
        period_file.write_text(v1[1] + "\n")
    monkeypatch.setattr(
        kernels, "_CPU_QUOTA_FILES", ((str(v2_file),), (str(quota_file), str(period_file)))
    )
    assert kernels._quota_cpus() == cpus


# ---------------------------------------------------------------------------
# products and sums do not depend on where the range is cut
# ---------------------------------------------------------------------------

#: row lengths in bytes: odd (GF(2^8) pads them), a lane short of and
#: past a test tile, and long enough for four ragged parts of many tiles
_ROW_BYTES = [3 * 8 * KB + 1, 2 * 4096 * 2 - 2, 2 * 4096 * 2 + 2, 5 * 8 * KB + 6]


@pytest.mark.parametrize("cores", [2, 3, 4])
class TestSplitKernelsBitIdentical:
    @pytest.fixture(autouse=True)
    def _split(self, monkeypatch, cores):
        force_split(monkeypatch, cores, 8 * KB)
        monkeypatch.setattr(kernels, "PACKED_TILE_LANES", 4096)

    @pytest.mark.parametrize("m", [1, 3, 9])
    @pytest.mark.parametrize("field", [GF8, GF16], ids=["gf8", "gf16"])
    def test_mul_plan(self, field, m, cores):
        rng = np.random.default_rng([cores, m, field.dtype.itemsize])
        a = _rand(field, rng, 24)[rng.integers(0, 24, size=(m, 6))]
        a[0, :2] = (0, 1)  # a zero and a one: skipped, XORed or gathered
        for j, nbytes in enumerate(_ROW_BYTES):
            n = nbytes // field.dtype.itemsize
            b = _rand(field, rng, 6, n)
            b[0, ::5] = 0
            got = MulPlan(a).apply(list(b) if j % 2 else b)
            assert np.array_equal(got, field.matmul_reference(a, b)), (m, nbytes)

    @pytest.mark.parametrize("field", [GF8, GF16], ids=["gf8", "gf16"])
    def test_gf_scale_xor(self, field, cores):
        """Equality only: a scale-and-XOR runs whole on the caller, so
        no split is observed here."""
        rng = np.random.default_rng([cores, field.dtype.itemsize])
        for nbytes in _ROW_BYTES:
            n = nbytes // field.dtype.itemsize
            x, acc = _rand(field, rng, n), _rand(field, rng, n)
            x[::5] = 0
            c = int(rng.integers(2, 1 << (8 * field.dtype.itemsize)))
            want = acc ^ field.mul(c, x)
            assert np.array_equal(gf_scale_xor(acc.copy(), c, x), want), nbytes


@pytest.mark.parametrize("cores", [2, 3, 4])
class TestSplitCrcEqualsWhole:
    @pytest.fixture(autouse=True)
    def _split(self, monkeypatch, cores):
        force_split(monkeypatch, cores, 8 * KB)

    SIZES = [16 * KB, 16 * KB + 1, 100_003, 1 << 20]

    def test_record_and_chunk_checksum(self, cores):
        rng = np.random.default_rng(cores)
        registry = ChecksumRegistry()
        for n in self.SIZES:
            data = rng.integers(0, 256, n, dtype=np.uint8)
            registry.record("c", data)
            assert registry.expected("c") == zlib.crc32(data) == chunk_checksum(data)
            assert registry.verify("c", data)

    def test_verify_into_delivers_and_checks(self, cores):
        rng = np.random.default_rng(10 + cores)
        registry = ChecksumRegistry()
        for n in self.SIZES:
            data = rng.integers(0, 256, n, dtype=np.uint8)
            registry.record("c", data)
            into = np.zeros(n, dtype=np.uint8)
            assert registry.verify("c", data, into=into)
            assert np.array_equal(into, data)
            bad = data.copy()
            bad[n - 1] ^= 1
            assert not registry.verify("c", bad)
            # after a mismatch the destination holds the bad bytes
            assert not registry.verify("c", bad, into=into)
            assert np.array_equal(into, bad)

    def test_nothing_recorded_delivers_without_a_crc(self, monkeypatch, cores):
        """With no sum to dispute, ``verify(into=)`` is the delivery copy
        alone, split or not (what ``read_verify_overhead_ratio`` times)."""
        crcs = []
        crc32 = zlib.crc32
        monkeypatch.setattr(zlib, "crc32", lambda *args: crcs.append(1) or crc32(*args))
        data = np.random.default_rng(cores).integers(0, 256, 1 << 20, dtype=np.uint8)
        into = np.zeros_like(data)
        assert ChecksumRegistry().verify("c", data, into=into)
        assert np.array_equal(into, data) and crcs == []


# ---------------------------------------------------------------------------
# where parts run: numpy and zlib only, never a lookup, never a split
# ---------------------------------------------------------------------------

class TestSplitThreads:
    @pytest.fixture
    def seen(self, monkeypatch):
        """Threads that looked up a table, started a split, gathered.

        The caller's first gather inside a split waits until a pool
        thread has gathered too, so a part runs on the pool however
        loaded the machine is: left alone, a caller that is never
        descheduled claims every part itself."""
        seen = {"lookups": [], "splits": [], "gathers": []}
        cache_get, split, take = kernels._cache_get, kernels.split, np.take
        me = threading.current_thread()
        splitting = []
        pooled = threading.Event()

        def spy_cache_get(*args):
            seen["lookups"].append(threading.current_thread())
            return cache_get(*args)

        def spy_split(*args):
            seen["splits"].append(threading.current_thread())
            splitting.append(1)
            try:
                return split(*args)
            finally:
                splitting.pop()

        def spy_take(*args, **kwargs):
            seen["gathers"].append(threading.current_thread())
            if threading.current_thread() is not me:
                pooled.set()
            elif splitting:
                pooled.wait(timeout=30)
            return take(*args, **kwargs)

        monkeypatch.setattr(kernels, "_cache_get", spy_cache_get)
        monkeypatch.setattr(np, "take", spy_take)
        for module in (kernels, integrity):
            monkeypatch.setattr(module, "split", spy_split)
        force_split(monkeypatch, 2, 16 * KB)
        monkeypatch.setattr(kernels, "PACKED_TILE_LANES", 4096)  # many tiles a row
        return seen

    def _assert_on_caller(self, seen):
        me = threading.current_thread()
        assert seen["splits"] and seen["lookups"]
        assert all(t is me for t in seen["lookups"])
        assert all(t is me for t in seen["splits"])
        assert any(t is not me for t in seen["gathers"])  # it did split

    @pytest.mark.parametrize("m", [1, 3, 9])
    def test_kernels(self, seen, m):
        kernels.clear_plan_caches()  # every table is built, not found
        rng = np.random.default_rng(m)
        b = rng.integers(0, 256, (6, 64 * KB), dtype=np.uint8)
        MulPlan(rng.integers(2, 256, (m, 6), dtype=np.uint8)).apply(b)
        gf_scale_xor(b[0].copy(), 29, b[1])
        self._assert_on_caller(seen)

    def test_a_dfs_lifetime(self, seen):
        """Write, read, merge, degraded read and repair, every byte path
        split: lookups and splits stay on the calling thread."""
        kernels.clear_plan_caches()
        fs = MorphFS(chunk_size=64 * KB, future_widths=[6, 12], seed=3)
        data = np.random.default_rng(3).integers(0, 256, 1536 * KB, dtype=np.uint8)
        cc69 = ECScheme(CodeKind.CC, 6, 9)
        fs.write_file("f", data, HybridScheme(1, cc69))
        fs.transcode("f", cc69)
        fs.transcode("f", ECScheme(CodeKind.CC, 12, 15))
        meta = fs.namenode.lookup("f")
        fs.cluster.fail_node(meta.stripes[0].data[0].node_id)
        assert np.array_equal(fs.read_file("f"), data)
        RecoveryManager(fs).recover_all()
        assert np.array_equal(fs.read_file("f"), data)
        self._assert_on_caller(seen)


class TestOneTileUnderSplit(gf_kernel_tests.TestOneTile):
    """The one-tile spy holds when the lane range is cut across cores:
    every gather still indexes at most one tile, and every lane is
    gathered exactly as often as in the whole call."""

    @pytest.fixture(autouse=True)
    def _split(self, monkeypatch):
        force_split(monkeypatch, 3, 64 * KB)


def test_no_pool_below_the_threshold(monkeypatch):
    """At 4 KiB chunks nothing reads ``SPLIT_FROM_BYTES``: a write, read,
    free, merge, degraded read and repair round starts no thread (this
    is what keeps ``smallfile_lifetime`` and ``meta_churn_recover`` on
    today's code)."""
    monkeypatch.setattr(kernels, "_pool", None)
    monkeypatch.setattr(kernels, "CORES", max(kernels.CORES, 2))
    for module in (kernels, integrity):
        monkeypatch.setattr(module, "SPLIT_FROM_BYTES", 2 * kernels.SPLIT_MIN_BYTES)
    fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12], seed=5)
    cc69 = ECScheme(CodeKind.CC, 6, 9)
    rng = np.random.default_rng(5)
    files = {f"f{i}": rng.integers(0, 256, 48 * KB, dtype=np.uint8) for i in range(4)}
    for name, data in files.items():
        fs.write_file(name, data, HybridScheme(1, cc69))
        fs.transcode(name, cc69)
        fs.transcode(name, ECScheme(CodeKind.CC, 12, 15))
    fs.cluster.fail_node(fs.namenode.lookup("f0").stripes[0].data[0].node_id)
    for name, data in files.items():
        assert np.array_equal(fs.read_file(name), data)
    assert RecoveryManager(fs).recover_all()
    assert integrity.Scrubber(fs).scan().corrupt == []
    assert kernels._pool is None
