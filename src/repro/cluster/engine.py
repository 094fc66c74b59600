"""A minimal discrete-event simulation kernel.

Generator-based processes in the style of SimPy, reduced to exactly what
the latency experiments need: timeouts, FIFO resources, process joins and
any-of/all-of combinators. Implemented here (rather than depending on
SimPy) because the environment is offline and the subset is small.

The control-plane fast path (see docs/performance.md) keeps dispatch
cheap enough for multi-million-event simulations:

* every kernel object carries ``__slots__`` — no per-event ``__dict__``;
* the pending set is a heap of *distinct timestamps* plus one FIFO
  bucket (list) per timestamp, so same-time events cost a dict append
  instead of a heap push, and dispatch drains a whole timestamp batch
  per heap pop.  FIFO-within-bucket reproduces exactly the old
  ``(time, seq)`` ordering — the heap key is the bare float, so there is
  never an object-comparison fallback;
* an event with a single waiting process bypasses the callback list
  entirely (``_waiter`` slot): the run loop resumes the generator
  inline, which is the common case for ``yield env.timeout(...)``,
  resource grants and process joins;
* ``Environment.timeout`` recycles :class:`Timeout` objects through a
  free-list.  A timeout is returned to the pool only when the dispatcher
  can prove nothing else references it (CPython refcount check), so
  user code that keeps a handle to a timeout keeps full event semantics.

Example::

    env = Environment()

    def disk_read(env, disk, service):
        req = disk.request()
        yield req
        yield env.timeout(service)
        disk.release(req)

    p = env.process(disk_read(env, disk, 0.008))
    env.run()
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from typing import Any, Callable, Generator, List, Optional

#: CPython-only: lets the dispatcher prove a Timeout is unreferenced
#: before recycling it.  On runtimes without refcounts (e.g. PyPy) the
#: stand-in never returns 3, which disables the free-list entirely.
_getrefcount = getattr(sys, "getrefcount", None) or (lambda _obj: 0)


class Event:
    """A one-shot occurrence processes can wait on."""

    __slots__ = ("env", "callbacks", "triggered", "value", "_processed", "_waiter")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self.triggered = False
        self.value: Any = None
        # Events start unprocessed; Process waits and the combinators use
        # the flag to tell "triggered but not yet dispatched" from "done".
        self._processed = False
        #: sole-process fast lane: the Process to resume at dispatch,
        #: before any registered callbacks run (matches legacy append
        #: order: the yielding process was always appended last).
        self._waiter: Optional["Process"] = None

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = value
        self.env._schedule_event(self)
        return self


class Timeout(Event):
    """Fires after a fixed simulated delay; built (and recycled) by
    :meth:`Environment.timeout` only."""

    __slots__ = ()


class Process(Event):
    """Wraps a generator; the process event fires when the generator ends.

    The generator yields :class:`Event` objects and is resumed with each
    event's ``value``.
    """

    __slots__ = ("_gen", "_send")

    def __init__(self, env: "Environment", gen: Generator):
        super().__init__(env)
        self._gen = gen
        self._send = gen.send
        # Bootstrap on the next tick.
        bootstrap = Event(env)
        bootstrap._waiter = self
        bootstrap.succeed()

    def _resume(self, trigger: Event) -> None:
        """Callback-lane resume (sole-waiter resumes are inlined in
        :meth:`Environment.run`); delegates to the shared advance."""
        self.env._advance(self, trigger.value)


class AllOf(Event):
    """Fires when every child event has fired; value is their value list."""

    __slots__ = ("_pending", "_events")

    def __init__(self, env: "Environment", events: List[Event]):
        super().__init__(env)
        self._pending = 0
        self._events = events
        for ev in events:
            if ev.triggered and ev._processed:
                continue
            self._pending += 1
            ev.callbacks.append(self._on_child)
        if self._pending == 0:
            self.succeed([ev.value for ev in events])

    def _on_child(self, ev: Event) -> None:
        self._pending -= 1
        if self._pending == 0 and not self.triggered:
            self.succeed([e.value for e in self._events])


class AnyOf(Event):
    """Fires when the first child fires; value is (index, value).

    When the first child fires, the losers' callbacks are *detached*:
    long-running simulations race timeouts against slow IO, and leaving
    a live closure on every losing child would pin the AnyOf (and its
    whole event list) until the loser eventually fires.
    """

    __slots__ = ("_events", "_child_cbs")

    def __init__(self, env: "Environment", events: List[Event]):
        super().__init__(env)
        self._events = events
        self._child_cbs: List = []
        done = next(
            (i for i, ev in enumerate(events) if ev.triggered and ev._processed),
            None,
        )
        if done is not None:
            self.succeed((done, events[done].value))
            return
        for i, ev in enumerate(events):
            cb = self._make_cb(i)
            self._child_cbs.append(cb)
            ev.callbacks.append(cb)

    def _make_cb(self, index: int):
        def cb(ev: Event) -> None:
            if not self.triggered:
                self.succeed((index, ev.value))
                self._detach(winner=index)

        return cb

    def _detach(self, winner: int) -> None:
        """Drop the losing children's callbacks so they no longer pin us."""
        for i, (ev, cb) in enumerate(zip(self._events, self._child_cbs)):
            if i == winner:
                continue
            cbs = ev.callbacks
            if cbs:
                try:
                    cbs.remove(cb)
                except ValueError:
                    pass
        self._child_cbs = []


class Resource:
    """A FIFO resource with fixed capacity (e.g. a disk's service slots).

    When given a metrics ``registry``, every granted request records the
    time it spent queued into a ``resource_wait_seconds`` histogram
    labelled with the resource's ``name`` — the contention signal the
    cluster report reads. Without a registry the accounting code never
    runs (observability stays zero-cost when off).
    """

    __slots__ = ("env", "capacity", "in_use", "_waiters", "_wait_hist")

    def __init__(
        self,
        env: "Environment",
        capacity: int = 1,
        name: Optional[str] = None,
        registry=None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        # deque, not list: release() grants FIFO from the head, and a
        # list.pop(0) is O(waiters) per release — a failure burst with a
        # deep disk queue turns that into quadratic time.
        self._waiters: deque = deque()
        self._wait_hist = (
            registry.histogram("resource_wait_seconds", resource=name or "resource")
            if registry is not None
            else None
        )

    def _track_wait(self, ev: Event) -> None:
        if self._wait_hist is None:
            return
        requested_at = self.env.now
        hist = self._wait_hist
        ev.callbacks.append(lambda _e: hist.record(self.env.now - requested_at))

    def request(self) -> Event:
        """Event that fires when a slot is granted."""
        ev = Event(self.env)
        self._track_wait(ev)
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self, _request: Optional[Event] = None) -> None:
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1


class Environment:
    """Simulation clock plus the pending-event schedule.

    The schedule is a heap of distinct timestamps and a dict mapping
    each pending timestamp to its FIFO bucket of events.  Scheduling at
    an already-pending timestamp is one dict hit and a list append;
    only the first event at a new timestamp pays the heap push.
    """

    __slots__ = (
        "now",
        "_heap",
        "_buckets",
        "_timeout_pool",
        "_cache_t",
        "_cache_bucket",
        "_spare_bucket",
    )

    def __init__(self):
        self.now = 0.0
        self._heap: List[float] = []
        self._buckets: dict = {}
        self._timeout_pool: List[Timeout] = []
        # Last-bucket cache: scheduling several events at one timestamp
        # (the batch-dispatch common case) pays the dict lookup once.
        self._cache_t: Optional[float] = None
        self._cache_bucket: Optional[List[Event]] = None
        self._spare_bucket: Optional[List[Event]] = None

    # -- event plumbing -----------------------------------------------------
    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        t = self.now + delay
        if t == self._cache_t:
            self._cache_bucket.append(event)
            return
        bucket = self._buckets.get(t)
        if bucket is None:
            bucket = self._spare_bucket
            if bucket is None:
                bucket = []
            else:
                self._spare_bucket = None
            self._buckets[t] = bucket
            heapq.heappush(self._heap, t)
        self._cache_t = t
        self._cache_bucket = bucket
        bucket.append(event)

    # -- public API -----------------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A pending :class:`Timeout`; recycled through the free-list."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        pool = self._timeout_pool
        if pool:
            ev = pool.pop()
            ev.value = value
            ev._processed = False
            ev._waiter = None
        else:
            ev = Timeout.__new__(Timeout)
            ev.env = self
            ev.callbacks = []
            ev.triggered = True
            ev.value = value
            ev._processed = False
            ev._waiter = None
        t = self.now + delay
        if t == self._cache_t:
            self._cache_bucket.append(ev)
            return ev
        bucket = self._buckets.get(t)
        if bucket is None:
            bucket = self._spare_bucket
            if bucket is None:
                bucket = []
            else:
                self._spare_bucket = None
            self._buckets[t] = bucket
            heapq.heappush(self._heap, t)
        self._cache_t = t
        self._cache_bucket = bucket
        bucket.append(ev)
        return ev

    def process(self, gen: Generator) -> Process:
        return Process(self, gen)

    def _advance(self, process: Process, value: Any) -> None:
        """Resume ``process`` with ``value`` and wire up its next target."""
        try:
            target = process._send(value)
        except StopIteration as stop:
            if not process.triggered:
                process.triggered = True
                process.value = stop.value
                self._schedule_event(process)
            return
        try:
            processed = target._processed
        except AttributeError:
            raise TypeError(f"process yielded non-event {target!r}") from None
        if not processed:
            # Pending (or triggered-but-undelivered) target: become its
            # sole waiter when possible, else queue behind its callbacks.
            if target._waiter is None and not target.callbacks:
                target._waiter = process
            else:
                target.callbacks.append(process._resume)
        else:
            # Already fired and delivered: resume on the next dispatch.
            stub = Event(self)
            stub.value = target.value
            stub.triggered = True
            stub._waiter = process
            self._schedule_event(stub)

    def run(self, until: Optional[float] = None) -> None:
        """Dispatch events until the schedule drains or the clock passes
        ``until``.  All events of one timestamp dispatch as a batch.

        The sole-waiter lane — a process blocked on a timeout, resource
        grant or join with no other observers — is fully inlined here:
        one generator ``send`` plus one ``_waiter`` store per event, no
        callback list and no intermediate frames.
        """
        heap = self._heap
        buckets = self._buckets
        pool = self._timeout_pool
        heappop = heapq.heappop
        getrefcount = _getrefcount
        while heap:
            if until is None:
                t = heappop(heap)
            else:
                t = heap[0]
                if t > until:
                    self.now = until
                    return
                heappop(heap)
            self.now = t
            bucket = buckets.pop(t)
            if t == self._cache_t:
                # The live bucket for t is leaving the schedule — events
                # created during dispatch at this same timestamp must
                # land in a fresh bucket (they dispatch on a later pop).
                self._cache_t = None
                self._cache_bucket = None
            for event in bucket:
                event._processed = True
                waiter = event._waiter
                if waiter is not None:
                    # Inlined Process resume (see _advance for the
                    # readable form — keep the two in sync).
                    try:
                        target = waiter._send(event.value)
                    except StopIteration as stop:
                        if not waiter.triggered:
                            waiter.triggered = True
                            waiter.value = stop.value
                            self._schedule_event(waiter)
                    else:
                        try:
                            processed = target._processed
                        except AttributeError:
                            raise TypeError(
                                f"process yielded non-event {target!r}"
                            ) from None
                        if not processed:
                            if target._waiter is None and not target.callbacks:
                                target._waiter = waiter
                            else:
                                target.callbacks.append(waiter._resume)
                        else:
                            stub = Event(self)
                            stub.value = target.value
                            stub.triggered = True
                            stub._waiter = waiter
                            self._schedule_event(stub)
                    if (
                        type(event) is Timeout
                        and not event.callbacks
                        and getrefcount(event) == 3
                    ):
                        # bucket + loop variable + getrefcount argument:
                        # provably unreferenced elsewhere — recycle.  The
                        # pool needs no size cap: it can only grow to the
                        # largest same-timestamp batch ever dispatched
                        # (each timeout() call pops one entry back out).
                        # Stale value/_waiter slots are overwritten at
                        # reuse in timeout(), not cleared here.
                        pool.append(event)
                    continue
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = []
                    for cb in callbacks:
                        cb(event)
            # The drained bucket is unreachable from user code (never
            # handed out) — recycle the list for the next timestamp.
            bucket.clear()
            self._spare_bucket = bucket
        if until is not None:
            self.now = until
