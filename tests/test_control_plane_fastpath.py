"""Regression tests for the control-plane fast path.

Two layers of protection:

* **Golden traces** — the event engine rewrite (bucketed scheduling,
  sole-waiter lane, timeout free-list) must be *behaviour-invisible*.
  These tests pin sha256 hashes of fixed-seed traces captured on the
  pre-optimisation engine; any reordering, value change or clock drift
  flips the hash.
* **Edge cases** — the specific mechanisms the fast path introduced
  (same-timestamp FIFO, free-list reuse, AnyOf detach, per-node chunk
  index with lazy purge, batched registration, ``record_many``) each get
  a direct test, so a future refactor can't silently drop one.
"""

import hashlib
import random

import pytest

from repro.cluster.engine import (
    AllOf,
    AnyOf,
    Environment,
    PriorityResource,
    Resource,
    Timeout,
)
from repro.dfs.audit import audit_namenode, full_scan as _full_scan
from repro.obs import LogLinearHistogram


# ---------------------------------------------------------------------------
# Golden traces (captured on the pre-fast-path engine)
# ---------------------------------------------------------------------------

ENGINE_TRACE_SHA256 = "458eec07f55e00819ae7075f70dc44cf61a5e189e18dffe395f5e62ae7c694db"
ENGINE_TRACE_LEN = 102
ENGINE_TRACE_END = 11.771444213804195

BURST_UNTHROTTLED_SHA256 = (
    "976d12e36f4573df10b2ae4a218cdf57db89872c1d51af6840e7b97342a11d8b"
)
BURST_THROTTLED_SHA256 = (
    "f5e500fef7377ea5c6e236a7b0918662e5dcd51487df7fe393dc1d7da930b991"
)


def _engine_trace(seed=42):
    """A mixed workload touching every engine feature: shared resources,
    a priority resource, AnyOf/AllOf combinators and seeded timeouts."""
    rng = random.Random(seed)
    env = Environment()
    log = []
    disks = [Resource(env, capacity=2) for _ in range(3)]
    pq = PriorityResource(env, capacity=1)

    def worker(tag):
        for i in range(20):
            d = disks[rng.randrange(3)]
            req = d.request()
            yield req
            yield env.timeout(rng.random())
            d.release(req)
            log.append((env.now, tag, i))

    def prio_worker(tag, prio):
        for i in range(10):
            req = pq.request(priority=prio)
            yield req
            yield env.timeout(0.25)
            pq.release(req)
            log.append((env.now, "p", tag, i))

    def combo():
        idx, val = yield AnyOf(env, [env.timeout(1.0, "a"), env.timeout(0.5, "b")])
        log.append((env.now, "any", idx, val))
        vals = yield AllOf(env, [env.timeout(0.3, 1), env.timeout(0.7, 2)])
        log.append((env.now, "all", tuple(vals)))

    for t in range(4):
        env.process(worker(t))
    env.process(prio_worker("hi", 0))
    env.process(prio_worker("lo", 5))
    env.process(combo())
    env.run()
    return hashlib.sha256(repr(log).encode()).hexdigest(), len(log), env.now


def _burst_trace_sig(budget):
    from repro.sched.simulate import SimConfig, run_failure_burst

    r = run_failure_burst(budget, SimConfig(seed=7))
    h = hashlib.sha256()
    for lat in r.foreground_latencies:
        h.update(repr(lat).encode())
    h.update(repr(r.repairs_completed).encode())
    # The golden digests predate the burst running on SimCluster, whose
    # nodes are "dnNNN"; spell them the old way ("simNN") to keep them.
    node_ticks = {
        (f"sim{int(node_id[2:]):02d}", tick): nbytes
        for (node_id, tick), nbytes in r.node_tick_disk_bytes.items()
    }
    h.update(repr(sorted(node_ticks.items())).encode())
    h.update(repr(r.ticks).encode())
    return h.hexdigest()


class TestGoldenTraces:
    def test_engine_mixed_trace_bit_identical(self):
        digest, length, end = _engine_trace()
        assert digest == ENGINE_TRACE_SHA256
        assert length == ENGINE_TRACE_LEN
        assert end == ENGINE_TRACE_END

    def test_failure_burst_unthrottled_bit_identical(self):
        assert _burst_trace_sig(None) == BURST_UNTHROTTLED_SHA256

    def test_failure_burst_throttled_bit_identical(self):
        assert _burst_trace_sig(16e6) == BURST_THROTTLED_SHA256


# ---------------------------------------------------------------------------
# Engine edge cases
# ---------------------------------------------------------------------------


class TestSameTimestampOrdering:
    def test_fifo_within_one_timestamp(self):
        """Events scheduled for the same instant dispatch in schedule
        order — the bucket is a FIFO, like the old (t, seq) heap key."""
        env = Environment()
        order = []

        def p(tag, delay):
            yield env.timeout(delay)
            order.append(tag)

        for tag in range(6):
            env.process(p(tag, 1.0))
        env.run()
        assert order == [0, 1, 2, 3, 4, 5]

    def test_zero_delay_during_dispatch_runs_same_instant(self):
        """A zero-delay timeout created while its own timestamp is being
        dispatched still runs at that timestamp, after the current batch."""
        env = Environment()
        order = []

        def a():
            yield env.timeout(1.0)
            order.append("a")
            env.process(b())

        def b():
            yield env.timeout(0.0)
            order.append(("b", env.now))

        def c():
            yield env.timeout(1.0)
            order.append("c")

        env.process(a())
        env.process(c())
        env.run()
        assert order == ["a", "c", ("b", 1.0)]


class TestTimeoutFreeList:
    def test_unreferenced_timeouts_are_recycled(self):
        """Timeouts yielded-and-forgotten go back to the pool and come
        out again as the same objects."""
        env = Environment()
        seen = []

        def p():
            for _ in range(4):
                t = env.timeout(1.0)
                seen.append(id(t))
                yield t

        env.process(p())
        env.run()
        assert len(env._timeout_pool) == 1
        assert len(set(seen)) < len(seen)  # at least one object was reused

    def test_user_held_timeout_is_not_recycled(self):
        """A timeout the program still references must never be handed
        out again — the refcount guard keeps it out of the pool."""
        env = Environment()
        held = []

        def p():
            t = env.timeout(1.0, value="mine")
            held.append(t)
            yield t

        env.process(p())
        env.run()
        assert held[0] not in env._timeout_pool
        assert held[0].value == "mine"

    def test_recycled_timeout_carries_fresh_value(self):
        env = Environment()
        values = []

        def p():
            v = yield env.timeout(1.0, value="first")
            values.append(v)
            v = yield env.timeout(1.0, value="second")
            values.append(v)

        env.process(p())
        env.run()
        assert values == ["first", "second"]


class TestCombinatorEdgeCases:
    def test_allof_with_already_processed_children(self):
        """AllOf over events that already triggered *and* dispatched
        succeeds immediately instead of waiting forever."""
        env = Environment()
        done = []
        t1 = env.timeout(0.5, value=1)
        t2 = env.timeout(1.0, value=2)

        def p():
            yield env.timeout(2.0)  # both children long since processed
            vals = yield AllOf(env, [t1, t2])
            done.append(list(vals))

        env.process(p())
        env.run()
        assert done == [[1, 2]]

    def test_anyof_with_already_processed_child(self):
        env = Environment()
        done = []
        t1 = env.timeout(0.5, value="early")

        def p():
            yield env.timeout(2.0)
            idx, val = yield AnyOf(env, [t1, env.timeout(5.0, value="late")])
            done.append((idx, val, env.now))

        env.process(p())
        env.run()
        # The already-processed child wins immediately at t=2.
        assert done == [(0, "early", 2.0)]

    def test_anyof_detaches_loser_callbacks(self):
        """Once a winner fires, the losers' callback lists no longer hold
        the AnyOf's closures — long-lived events don't accumulate stale
        callbacks from decided races."""
        env = Environment()
        winner = env.timeout(1.0, value="w")
        loser = env.timeout(10.0, value="l")
        results = []

        def p():
            results.append((yield AnyOf(env, [winner, loser])))

        env.process(p())
        env.run(until=5.0)
        assert results == [(0, "w")]
        assert loser.callbacks == []


class TestResourceQueues:
    def test_fifo_grants_under_contention(self):
        env = Environment()
        order = []
        res = Resource(env, capacity=1)

        def p(tag):
            req = res.request()
            yield req
            yield env.timeout(1.0)
            res.release(req)
            order.append(tag)

        for tag in range(8):
            env.process(p(tag))
        env.run()
        assert order == list(range(8))

    def test_priority_resource_orders_grants(self):
        env = Environment()
        order = []
        res = PriorityResource(env, capacity=1)

        def p(tag, prio, delay):
            yield env.timeout(delay)
            req = res.request(priority=prio)
            yield req
            yield env.timeout(5.0)
            res.release(req)
            order.append(tag)

        # "first" grabs the resource; the rest queue with priorities.
        env.process(p("first", 9, 0.0))
        env.process(p("low", 5, 1.0))
        env.process(p("high", 0, 2.0))
        env.process(p("mid", 3, 3.0))
        env.run()
        assert order == ["first", "high", "mid", "low"]


class TestEngineValidation:
    def test_negative_delay_raises(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-0.1)

    def test_timeout_type(self):
        env = Environment()
        assert isinstance(env.timeout(0.0), Timeout)


# ---------------------------------------------------------------------------
# Namenode per-node chunk index
# ---------------------------------------------------------------------------


def _make_meta(name, placements, chunk_size=1024):
    """One single-stripe EC file; ``placements`` is (data_nodes, parity_nodes)."""
    from repro.core.schemes import CodeKind, ECScheme
    from repro.dfs.blocks import ChunkKind, ChunkMeta, ECStripeMeta, FileMeta

    data_nodes, parity_nodes = placements
    data = [
        ChunkMeta(f"{name}/d{i}", n, ChunkKind.DATA, chunk_size)
        for i, n in enumerate(data_nodes)
    ]
    parities = [
        ChunkMeta(f"{name}/p{i}", n, ChunkKind.PARITY, chunk_size)
        for i, n in enumerate(parity_nodes)
    ]
    k, n = len(data), len(data) + len(parities)
    stripe = ECStripeMeta(stripe_index=0, k=k, n=n, data=data, parities=parities)
    return FileMeta(
        name=name,
        size=k * chunk_size,
        chunk_size=chunk_size,
        scheme=ECScheme(CodeKind.RS, k, n),
        stripes=[stripe],
    )



class TestNamenodeChunkIndex:
    def _populate(self, namenode, n_files=40, n_nodes=7, seed=3):
        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(n_nodes)]
        for i in range(n_files):
            picks = rng.sample(nodes, 3)
            namenode.register_file(_make_meta(f"f{i:03d}", (picks[:2], picks[2:])))
        return nodes

    def test_matches_full_scan_including_order(self):
        from repro.dfs.namenode import Namenode

        nn = Namenode()
        nodes = self._populate(nn)
        for node in nodes:
            assert nn.chunks_on_node(node) == _full_scan(nn, node)

    def test_index_stays_exact_after_moves_and_deletes(self):
        """After a wave of ``place_chunks`` moves and a deletion the
        index already matches the full-scan oracle — each move took the
        chunk's entry with it, source side included; no query has to
        purge anything."""
        from repro.dfs.namenode import Namenode

        nn = Namenode()
        nodes = self._populate(nn)
        rng = random.Random(11)
        # Move a third of all chunks (some onto a node the file already
        # uses), one op per move.
        for meta in list(nn.files.values())[::3]:
            for chunk in meta.all_chunks():
                nn.place_chunks(
                    meta.name, [(chunk.chunk_id, chunk.chunk_id + "'", rng.choice(nodes))]
                )
        nn.unregister_file("f001")
        assert audit_namenode(nn) == []
        for node in nodes:
            assert nn.chunks_on_node(node) == _full_scan(nn, node)

    def test_place_chunks_indexes_new_placement(self):
        from repro.dfs.namenode import Namenode

        nn = Namenode()
        nn.register_file(_make_meta("f", (["a", "b"], ["c"])))
        meta = nn.lookup("f")
        chunk = meta.stripes[0].data[0]
        nn.place_chunks("f", [(chunk.chunk_id, chunk.chunk_id, "z")])
        assert nn.chunks_on_node("z") == [(meta, chunk)]
        assert nn.chunks_on_node("a") == []

    def test_register_files_matches_individual_registration(self):
        from repro.dfs.namenode import Namenode

        metas_a = [_make_meta(f"f{i}", (["a", "b"], ["c"])) for i in range(5)]
        metas_b = [_make_meta(f"f{i}", (["a", "b"], ["c"])) for i in range(5)]
        one, batch = Namenode(), Namenode()
        for m in metas_a:
            one.register_file(m)
        batch.register_files(metas_b)
        assert list(one.files) == list(batch.files)
        assert one._file_order == batch._file_order
        for node in ("a", "b", "c"):
            assert [m.name for m, _ in one.chunks_on_node(node)] == [
                m.name for m, _ in batch.chunks_on_node(node)
            ]

    def test_next_chunk_ids_batch_matches_singles(self):
        from repro.dfs.namenode import Namenode

        a, b = Namenode(), Namenode()
        batch = a.next_chunk_ids("x", 5)
        singles = [b.next_chunk_id("x") for _ in range(5)]
        assert batch == singles
        # The counter keeps advancing across calls.
        assert a.next_chunk_ids("x", 1)[0] == b.next_chunk_id("x")


# ---------------------------------------------------------------------------
# Histogram bulk recording
# ---------------------------------------------------------------------------


class TestRecordMany:
    def test_equivalent_to_per_record(self):
        rng = random.Random(5)
        values = [rng.uniform(-0.5, 100.0) for _ in range(2000)] + [0.0, 0.0]
        one, bulk = LogLinearHistogram(), LogLinearHistogram()
        for v in values:
            one.record(v)
        bulk.record_many(values)
        assert bulk.count == one.count
        assert bulk.sum == one.sum  # bit-identical: same accumulation order
        assert bulk.min == one.min
        assert bulk.max == one.max
        assert bulk.zero_count == one.zero_count
        assert bulk._counts == one._counts
        for p in (1, 50, 90, 99, 99.9):
            assert bulk.percentile(p) == one.percentile(p)

    def test_empty_batch_is_a_noop(self):
        hist = LogLinearHistogram()
        hist.record_many([])
        assert hist.count == 0
        assert hist.to_dict()["min"] is None
