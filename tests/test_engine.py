"""Discrete-event kernel semantics."""

import pytest

from repro.cluster.engine import AllOf, AnyOf, Environment, Resource


class TestTimeouts:
    def test_clock_advances_in_order(self):
        env = Environment()
        log = []

        def proc(delay, tag):
            yield env.timeout(delay)
            log.append((env.now, tag))

        env.process(proc(2.0, "b"))
        env.process(proc(1.0, "a"))
        env.run()
        assert log == [(1.0, "a"), (2.0, "b")]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_run_until(self):
        env = Environment()
        log = []

        def proc():
            yield env.timeout(5.0)
            log.append("late")

        env.process(proc())
        env.run(until=2.0)
        assert log == []
        assert env.now == 2.0
        env.run()
        assert log == ["late"]

    def test_sequential_timeouts_accumulate(self):
        env = Environment()
        seen = []

        def proc():
            yield env.timeout(1.0)
            seen.append(env.now)
            yield env.timeout(2.5)
            seen.append(env.now)

        env.process(proc())
        env.run()
        assert seen == [1.0, 3.5]


class TestProcesses:
    def test_process_join(self):
        env = Environment()
        order = []

        def child():
            yield env.timeout(3.0)
            order.append("child")
            return 42

        def parent():
            value = yield env.process(child())
            order.append(("parent", value, env.now))

        env.process(parent())
        env.run()
        assert order == ["child", ("parent", 42, 3.0)]

    def test_yield_non_event_raises(self):
        env = Environment()

        def bad():
            yield "nope"

        env.process(bad())
        with pytest.raises(TypeError):
            env.run()


class TestCombinators:
    def test_all_of_waits_for_slowest(self):
        env = Environment()
        done = []

        def proc():
            yield AllOf(env, [env.timeout(1.0), env.timeout(4.0), env.timeout(2.0)])
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [4.0]

    def test_any_of_returns_first(self):
        env = Environment()
        result = []

        def proc():
            idx, _ = yield AnyOf(env, [env.timeout(5.0), env.timeout(1.0)])
            result.append((idx, env.now))

        env.process(proc())
        env.run()
        assert result == [(1, 1.0)]

    def test_all_of_empty(self):
        env = Environment()
        hit = []

        def proc():
            yield AllOf(env, [])
            hit.append(env.now)

        env.process(proc())
        env.run()
        assert hit == [0.0]


class TestResources:
    def test_fifo_queueing(self):
        env = Environment()
        disk = Resource(env, capacity=1)
        order = []

        def proc(tag, service):
            req = disk.request()
            yield req
            yield env.timeout(service)
            disk.release(req)
            order.append((tag, env.now))

        env.process(proc("a", 2.0))
        env.process(proc("b", 1.0))
        env.run()
        # b waits for a despite shorter service (FIFO).
        assert order == [("a", 2.0), ("b", 3.0)]

    def test_capacity_two_runs_in_parallel(self):
        env = Environment()
        disk = Resource(env, capacity=2)
        order = []

        def proc(tag):
            req = disk.request()
            yield req
            yield env.timeout(1.0)
            disk.release(req)
            order.append((tag, env.now))

        for tag in "abc":
            env.process(proc(tag))
        env.run()
        assert order == [("a", 1.0), ("b", 1.0), ("c", 2.0)]

    def test_requests_past_capacity_wait_for_a_release(self):
        env = Environment()
        disk = Resource(env, capacity=1)
        requests = [disk.request() for _ in range(3)]
        assert [r.triggered for r in requests] == [True, False, False]
        disk.release(requests[0])
        assert [r.triggered for r in requests] == [True, True, False]
        assert disk.in_use == 1  # the slot passed on, not freed

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Resource(Environment(), capacity=0)
