"""A minimal discrete-event simulation kernel.

Generator-based processes in the style of SimPy, reduced to exactly what
the latency experiments need: timeouts, FIFO resources, process joins and
any-of/all-of combinators. Implemented here (rather than depending on
SimPy) because the environment is offline and the subset is small.

Dispatch is kept cheap by two structures, each of which also fixes the
order events run in (see docs/performance.md, "The event engine"):

* the pending set is a heap of *distinct timestamps* plus one FIFO
  bucket (list) per timestamp, so same-time events cost a dict append
  instead of a heap push, and dispatch drains a whole timestamp batch
  per heap pop.  FIFO-within-bucket reproduces exactly the
  ``(time, seq)`` ordering — the heap key is the bare float, so there is
  never an object-comparison fallback;
* an event with a single waiting process bypasses the callback list
  (``_waiter`` slot): dispatch resumes that process before any
  callback, which is the common case for ``yield env.timeout(...)``,
  resource grants and process joins.

Events are scheduled in one place (``Environment._schedule_event``) and
a process is advanced in one place (``Environment._advance``).  Every
kernel object carries ``__slots__``.

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
from collections import deque
from typing import Any, Callable, Generator, List, Optional


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
        #: the first Process to wait on this event, resumed at dispatch
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
    """Fires after a fixed simulated delay; built by
    :meth:`Environment.timeout`, which schedules it."""

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
        """Callback-lane resume; the sole-waiter lane calls
        :meth:`Environment._advance` directly."""
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

    A loser's callback stays on its event and does nothing when it fires.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", events: List[Event]):
        super().__init__(env)
        done = next(
            (i for i, ev in enumerate(events) if ev.triggered and ev._processed),
            None,
        )
        if done is not None:
            self.succeed((done, events[done].value))
            return
        for i, ev in enumerate(events):
            ev.callbacks.append(self._make_cb(i))

    def _make_cb(self, index: int):
        def cb(ev: Event) -> None:
            if not self.triggered:
                self.succeed((index, ev.value))

        return cb


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
    """Simulation clock plus the pending-event schedule: a heap of
    distinct timestamps and a dict of each one's FIFO bucket of events."""

    __slots__ = ("now", "_heap", "_buckets")

    def __init__(self):
        self.now = 0.0
        self._heap: List[float] = []
        self._buckets: dict = {}

    # -- event plumbing -----------------------------------------------------
    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        t = self.now + delay
        bucket = self._buckets.get(t)
        if bucket is None:
            bucket = self._buckets[t] = []
            heapq.heappush(self._heap, t)
        bucket.append(event)

    # -- public API -----------------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A pending :class:`Timeout` that fires ``delay`` from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        ev = Timeout(self)
        ev.triggered = True
        ev.value = value
        self._schedule_event(ev, delay)
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
        ``until``.  All events of one timestamp dispatch as a batch; an
        event's waiter resumes before its callbacks run."""
        heap = self._heap
        buckets = self._buckets
        heappop = heapq.heappop
        advance = self._advance
        while heap:
            t = heap[0]
            if until is not None and t > until:
                self.now = until
                return
            heappop(heap)
            self.now = t
            # Popped before dispatch: an event scheduled at ``t`` while
            # this bucket runs lands in a new bucket, dispatched next.
            for event in buckets.pop(t):
                event._processed = True
                if event._waiter is not None:
                    advance(event._waiter, event.value)
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = []
                    for cb in callbacks:
                        cb(event)
        if until is not None:
            self.now = until
