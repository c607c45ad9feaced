"""Shared-resource primitives built on the event kernel.

:class:`Resource` is a FIFO server with integer capacity — the building
block for modelling NIC transmit/receive engines (one message on the wire
at a time per NIC) and per-core execution units.

:class:`Store` is an unbounded FIFO message buffer with blocking ``get`` —
the building block for MPI match queues.
"""

from __future__ import annotations

import collections
import typing as _t

from .engine import Simulator
from .events import Event


class Resource:
    """A FIFO-ordered resource with ``capacity`` concurrent slots.

    Usage from a process::

        req = resource.request()
        yield req              # granted in FIFO order
        yield sim.timeout(holding_time)
        resource.release()

    The convenience :meth:`hold` wraps the acquire/delay/release triple,
    which is the common pattern for "occupy the NIC for size/bandwidth
    seconds".
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue: _t.Deque[Event] = collections.deque()

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def request(self) -> Event:
        """An event that fires when a slot is granted (FIFO order)."""
        ev = Event(self.sim, label=f"request:{self.name}")
        self._request(ev)
        return ev

    def _request(self, ev: Event) -> None:
        """Queue the pending event ``ev`` as a request: succeed it now if
        a slot is free, else when :meth:`release` reaches it.

        Kernel-internal seam for callback state machines that wait on a
        resource with their own event object (the network transport):
        the grant and the dead-waiter sweep are exactly
        :meth:`request`'s.
        """
        if self._in_use < self.capacity and not self._queue:
            self._in_use += 1
            ev.succeed()
        else:
            self._queue.append(ev)

    def release(self) -> None:
        """Release one held slot, waking the oldest waiter if any.

        Waiters that were killed while queued (their request event has no
        callbacks left) are skipped, so a crashed sender cannot leak a NIC
        slot.  This relies on requesters ``yield``-ing their request event
        immediately, which :meth:`hold` guarantees.
        """
        if self._in_use <= 0:
            raise RuntimeError(f"release() on idle resource {self.name!r}")
        while self._queue:
            ev = self._queue.popleft()
            if ev.has_waiters:  # someone is still waiting on this grant
                ev.succeed()
                return
        self._in_use -= 1

    def hold(self, duration: float) -> _t.Generator[Event, None, None]:
        """Process sub-routine: acquire, hold ``duration``, release.

        Use as ``yield from resource.hold(t)``.

        Kill-safe at every suspension point.  The subtle case: the grant
        event can succeed (slot assigned) in the same timestep in which
        the holder is killed, *before* the holder resumes — the holder
        then dies parked on ``yield req`` while owning a slot.  The
        ``finally`` therefore keys the release on whether the request was
        ever granted (``req.triggered``), not on how far the body got;
        a request killed while still queued stays pending and is skipped
        by :meth:`release`'s dead-waiter sweep instead.
        """
        req = self.request()
        try:
            yield req
            yield self.sim.timeout(duration)
        finally:
            if req.triggered:
                self.release()


class Store:
    """Unbounded FIFO buffer with blocking ``get``.

    ``put`` never blocks (the store is unbounded, matching MPI's eager
    buffering of simulated payload references); ``get`` returns an event
    that fires with the oldest item, immediately if one is available.
    Waiters are served FIFO.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: _t.Deque[_t.Any] = collections.deque()
        self._getters: _t.Deque[Event] = collections.deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: _t.Any) -> None:
        """Deposit ``item``; wakes the oldest blocked getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """An event firing with the oldest item (FIFO)."""
        ev = Event(self.sim, label=f"get:{self.name}")
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev
