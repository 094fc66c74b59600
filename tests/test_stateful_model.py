"""Model-based stateful testing of MorphFS.

Hypothesis drives random sequences of writes, appends, closes,
transcodes (on to CC(12,15) or LRCC(12,2,2), inline or scheduled and
finished by heartbeat ticks under a small disk budget), failures,
recoveries, scrubs, renames, deletes and namenode restarts against
MorphFS, holding a plain dict of
expected bytes as the reference model. After every step, every live file
must read back byte-identical, every hybrid block must be ``decodable``
from the sources a client can reach (two nodes down at most: within
every scheme's tolerance), and :func:`repro.dfs.audit.audit` must find
the filesystem whole — regardless of operation order — bar one thing it
must report exactly: rot planted on a down node, which no scrub can
reach.  No buffer cache may hold a chunk between steps.
"""

from itertools import groupby

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.core.schemes import CodeKind, ECScheme, HybridScheme
from repro.dfs import MorphFS
from repro.dfs.audit import audit
from repro.dfs.heartbeat import HeartbeatMonitor
from repro.dfs.integrity import Scrubber, corrupt_chunk
from repro.dfs.journal import JournaledNamenode
from repro.dfs.recovery import RecoveryManager
from repro.sched import MaintenanceScheduler, SchedulerPolicy

KB = 1024
CC69 = ECScheme(CodeKind.CC, 6, 9)
CC1215 = ECScheme(CodeKind.CC, 12, 15)
LRCC = ECScheme(CodeKind.LRCC, 12, 16, local_groups=2, r_global=2)


def merges_to_lrcc(meta) -> bool:
    """Does every run of equal-width stripes fill whole LRCC(12) stripes?"""
    runs = [(k, len(list(run))) for k, run in groupby(s.k for s in meta.stripes)]
    return all(12 % k == 0 and n % (12 // k) == 0 for k, n in runs)


class MorphModel(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**16))
    def setup(self, seed):
        self.fs = MorphFS(
            chunk_size=2 * KB, future_widths=[6, 12], seed=seed, namenode=JournaledNamenode()
        )
        # Four 2 KiB chunks a tick: a conversion group overdrafts it, so
        # the shared scheduler's windowed charges decide what waits.
        self.fs.scheduler = MaintenanceScheduler(
            self.fs, SchedulerPolicy(disk_bytes_per_tick=8 * KB)
        )
        self.monitor = HeartbeatMonitor(self.fs)
        self.rng = np.random.default_rng(seed)
        self.expected = {}  # name -> bytes
        # name -> 0 hybrid, 1 cc69, 2 cc1215 or lrcc (or scheduled to be)
        self.stage = {}
        self.counter = 0
        self.down = []
        self.rotten = set()  # damaged on a down node: no scrub reaches it
        # One file starts at CC(6,9), ready for either wide move.
        self.write(48)
        self.advance_to_cc()

    # -- operations --------------------------------------------------------
    @rule(n_kb=st.one_of(st.integers(1, 60), st.sampled_from([24, 48])))
    def write(self, n_kb):
        # 24 and 48 KiB fill whole k*-windows: an LRCC(12,2,2) merge
        # needs its CC(6,9) stripes in pairs.
        if len(self.expected) >= 4:
            return
        name = f"f{self.counter}"
        self.counter += 1
        data = self.rng.integers(0, 256, n_kb * KB, dtype=np.uint8)
        self.fs.write_file(name, data, HybridScheme(1, CC69))
        self.expected[name] = data
        self.stage[name] = 0

    @precondition(lambda self: any(s == 0 for s in self.stage.values()))
    @rule(extra_kb=st.integers(1, 20))
    def append(self, extra_kb):
        name = next(n for n, s in self.stage.items() if s == 0)
        extra = self.rng.integers(0, 256, extra_kb * KB, dtype=np.uint8)
        self.fs.append_file(name, extra)
        self.expected[name] = np.concatenate([self.expected[name], extra])

    @precondition(lambda self: any(s == 0 for s in self.stage.values()))
    @rule()
    def close(self):
        name = next(n for n, s in self.stage.items() if s == 0)
        self.fs.close_file(name)

    @precondition(lambda self: any(s == 0 for s in self.stage.values()))
    @rule()
    def advance_to_cc(self):
        name = next(n for n, s in self.stage.items() if s == 0)
        self.fs.close_file(name)
        self.fs.transcode(name, CC69)
        self.stage[name] = 1

    @precondition(lambda self: any(s == 1 for s in self.stage.values()))
    @rule(lrcc=st.booleans())
    def advance_to_wide(self, lrcc):
        """On to CC(12,15) — or to LRCC(12,2,2), whose decode and
        ``decodable`` answer by rank, when the stripe widths allow."""
        name = next(n for n, s in self.stage.items() if s == 1)
        lrcc = lrcc and merges_to_lrcc(self.fs.namenode.lookup(name))
        self.fs.transcode(name, LRCC if lrcc else CC1215)
        self.stage[name] = 2

    @precondition(lambda self: any(s == 1 for s in self.stage.values()))
    @rule(lrcc=st.booleans())
    def schedule_wide(self, lrcc):
        """The same move, left to the heartbeat: the file stays readable
        in its old layout until a tick's finalize switches it."""
        name = next(n for n, s in self.stage.items() if s == 1)
        lrcc = lrcc and merges_to_lrcc(self.fs.namenode.lookup(name))
        self.fs.schedule_transcode(name, LRCC if lrcc else CC1215)
        self.stage[name] = 2

    @rule()
    def heartbeat_tick(self):
        self.monitor.tick()

    @rule(pick=st.integers(0, 22))
    def fail_node(self, pick):
        if len(self.down) >= 2:  # stay within every scheme's tolerance
            return
        node_id = f"dn{pick:03d}"
        if node_id in self.down:
            return
        self.fs.cluster.fail_node(node_id)
        self.down.append(node_id)

    @precondition(lambda self: bool(self.down))
    @rule()
    def recover_cluster(self):
        RecoveryManager(self.fs).recover_all()
        for node_id in self.down:
            self.fs.cluster.recover_node(node_id)
            self.fs.drop_unlisted(node_id)
        self.down.clear()

    @precondition(lambda self: bool(self.expected))
    @rule(flip=st.integers(0, 10_000))
    def corrupt_and_scrub(self, flip):
        name = next(iter(self.expected))
        meta = self.fs.namenode.lookup(name)
        chunks = [
            c for c in meta.all_chunks()
            if self.fs.datanodes[c.node_id].chunk_on_disk(c.chunk_id)
        ]
        if not chunks:
            return
        victim = chunks[flip % len(chunks)]
        if victim.node_id in self.down:
            self.rotten.add(victim.chunk_id)
        corrupt_chunk(self.fs, victim, flip_byte=flip)
        Scrubber(self.fs).scan_and_repair()

    @precondition(lambda self: bool(self.expected))
    @rule()
    def rename(self):
        old = next(iter(self.expected))
        new = f"r{self.counter}"
        self.counter += 1
        self.fs.namenode.rename(old, new)
        self.expected[new] = self.expected.pop(old)
        self.stage[new] = self.stage.pop(old)

    @rule()
    def restart_namenode(self):
        """The namenode process dies between operations and comes back
        from its journal; every node it can command sends a block
        report (a down one does when it returns)."""
        self.fs.restart(JournaledNamenode.recover(self.fs.namenode.journal))

    @precondition(lambda self: bool(self.expected))
    @rule()
    def delete(self):
        name = next(iter(self.expected))
        self.fs.delete_file(name)
        del self.expected[name]
        del self.stage[name]

    # -- the invariants ----------------------------------------------------
    @invariant()
    def every_file_reads_back(self):
        for name, data in self.expected.items():
            out = self.fs.read_file(name)
            assert np.array_equal(out, data), f"{name} diverged"

    @invariant()
    def every_hybrid_block_decodes_from_what_a_client_reaches(self):
        fs = self.fs
        for name in self.expected:
            meta = fs.namenode.lookup(name)
            for group in meta.hybrid_blocks():
                assert fs.rank_rule(meta, group)(group.slots(fs.chunk_readable)), name

    @invariant()
    def the_filesystem_is_whole_bar_the_planted_rot(self):
        # Rot on a down node is seen and reported for what it is — its
        # bytes no longer carry their sum — while the chunk stays listed.
        listed = {c.chunk_id for m in self.fs.namenode.files.values() for c in m.all_chunks()}
        found = [(v.kind, v.subject) for v in audit(self.fs)]
        assert sorted(found) == sorted(("bytes", cid) for cid in self.rotten & listed)
        # Between ops — not at every record boundary, where the audit
        # also runs — temporary replicas are dropped with their stripe
        # stored and an open stripe persists its c + 1: every buffer
        # cache is empty, down nodes' too, and the memory ledger agrees.
        assert self.fs.memory_used() == 0
        assert all(
            node.memory_in_use_bytes == 0 for node in self.fs.metrics.nodes.values()
        )


MorphModelTest = MorphModel.TestCase
# 40 examples of 24 steps, each from a CC(6,9) file: a few dozen wide
# merges a run, about a quarter scheduled and finished by budgeted
# heartbeat ticks, some under failures, restarts and scrubs, in ~4 s.
# Under the soak profile (tests/conftest.py) the profile's counts rule.
MorphModelTest.settings = (
    settings.get_profile("soak")
    if settings.get_current_profile_name() == "soak"
    else settings(max_examples=40, stateful_step_count=24, deadline=None)
)
