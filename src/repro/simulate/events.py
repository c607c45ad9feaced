"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence in virtual time.  Processes
suspend by ``yield``-ing an event and are resumed when it *fires*.  Events
carry either a value (success) or an exception (failure); a failed event
makes the waiting process's ``yield`` raise, which is how, for example, a
receive posted towards a crashed replica reports an error (Algorithm 1,
line 41 of the paper).

The composite events :class:`AllOf` and :class:`AnyOf` implement the
``MPI_Waitall`` / ``MPI_Waitany`` style synchronisation the
intra-parallelization runtime relies on to overlap update transfers with
task execution (paper §V-A).

Performance notes
-----------------
The kernel processes tens of thousands of events per simulated second of
an experiment sweep, and the overwhelmingly common shape is *one waiter
per event* (a process yielding a timeout).  Two layout decisions keep
that path allocation-free:

* the first registered callback lives in the dedicated ``_waiter`` slot;
  the ``callbacks`` list is lazily allocated only when a second waiter
  appears (composite conditions, protocol hooks);
* state is a plain int slot (``_state``) read directly by the kernel;
  the ``triggered``/``processed``/``ok`` properties remain the public
  API but are off the hot path.

Register and deregister callbacks through :meth:`Event.add_callback` /
:meth:`Event.remove_callback` — mutating ``callbacks`` directly would
bypass the ``_waiter`` slot.
"""

from __future__ import annotations

import typing as _t

from .errors import StaleEventError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Simulator

Callback = _t.Callable[["Event"], None]

_PENDING = 0
_TRIGGERED = 1
_PROCESSED = 2


class Event:
    """A one-shot occurrence in virtual time.

    Lifecycle: *pending* → *triggered* (``succeed``/``fail`` called, event
    sits in the simulator's queue) → *processed* (callbacks ran, waiting
    processes resumed).
    """

    __slots__ = ("sim", "callbacks", "_waiter", "_value", "_exc", "_state",
                 "defused", "label")

    def __init__(self, sim: "Simulator", label: str = ""):
        self.sim = sim
        #: first registered callback (the common single-waiter case)
        self._waiter: _t.Optional[Callback] = None
        #: overflow callbacks beyond the first, lazily allocated;
        #: ``None`` again once processed (catches late registration).
        self.callbacks: _t.Optional[_t.List[Callback]] = None
        self._value: _t.Any = None
        self._exc: _t.Optional[BaseException] = None
        self._state = _PENDING
        #: a failed event whose failure is expected (e.g. an injected
        #: crash) is *defused* so the kernel does not abort the run.
        self.defused = False
        self.label = label

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` has been called."""
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        """True once callbacks have run and waiters were resumed."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful if triggered)."""
        return self._state >= _TRIGGERED and self._exc is None

    @property
    def value(self) -> _t.Any:
        """The success value (or the failure exception) of the event."""
        if self._exc is not None:
            return self._exc
        return self._value

    @property
    def exception(self) -> _t.Optional[BaseException]:
        """The failure exception, or ``None`` if the event succeeded."""
        return self._exc

    @property
    def has_waiters(self) -> bool:
        """True while at least one callback is registered (used e.g. to
        skip resource grants whose requester was killed)."""
        return self._waiter is not None or bool(self.callbacks)

    # -- callback registration -------------------------------------------
    def add_callback(self, cb: Callback) -> None:
        """Register ``cb(event)`` to run when the event is processed.

        Callbacks run in registration order.  Registering on an already
        processed event is an error (the callback would never run).
        """
        if self._state == _PROCESSED:
            raise StaleEventError(
                f"cannot add a callback to already-processed event {self!r}")
        if self._waiter is None:
            cbs = self.callbacks
            if not cbs:
                self._waiter = cb
            else:
                cbs.append(cb)
        elif self.callbacks is None:
            self.callbacks = [cb]
        else:
            self.callbacks.append(cb)

    def remove_callback(self, cb: Callback) -> bool:
        """Deregister ``cb``; returns whether it was registered.

        Tolerant of already-processed events (the kill path races the
        wake-up it is cancelling).  Comparison is by equality, matching
        ``list.remove`` — bound methods of the same function and instance
        compare equal even when they are distinct objects.
        """
        if self._waiter is cb or self._waiter == cb:
            cbs = self.callbacks
            self._waiter = cbs.pop(0) if cbs else None
            return True
        cbs = self.callbacks
        if cbs is not None:
            try:
                cbs.remove(cb)
                return True
            except ValueError:
                pass
        return False

    # -- triggering ------------------------------------------------------
    def succeed(self, value: _t.Any = None, delay: float = 0.0) -> "Event":
        """Mark the event successful; it fires ``delay`` from now."""
        if self._state != _PENDING:
            raise StaleEventError(f"event {self!r} already triggered")
        self._state = _TRIGGERED
        self._value = value
        self.sim._enqueue(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Mark the event failed; the waiter's ``yield`` will raise."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        if self._state != _PENDING:
            raise StaleEventError(f"event {self!r} already triggered")
        self._state = _TRIGGERED
        self._exc = exc
        self.sim._enqueue(self, delay)
        return self

    # -- kernel hooks ------------------------------------------------------
    def _process(self) -> None:
        """Run callbacks.  Called by the simulator when the event's time
        arrives; user code never calls this.  (``Simulator.run``'s fast
        loop inlines this body; keep the two copies in sync.)"""
        self._state = _PROCESSED
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            waiter(self)
        cbs = self.callbacks
        if cbs is not None:
            self.callbacks = None
            for cb in cbs:
                cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {_PENDING: "pending", _TRIGGERED: "triggered",
                 _PROCESSED: "processed"}[self._state]
        tag = f" {self.label!r}" if self.label else ""
        return f"<{type(self).__name__}{tag} {state} at t={self.sim.now:g}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` time units after it is
    created.  ``yield sim.timeout(d)`` is how processes model the passage
    of (compute) time.

    The constructor is written against the slot layout directly (no
    ``super().__init__`` chain): timeouts are the single most allocated
    object of a simulation run.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: _t.Any = None,
                 label: str = ""):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self._waiter = None
        self.callbacks = None
        self._value = value
        self._exc = None
        self._state = _TRIGGERED
        self.defused = False
        self.label = label
        self.delay = delay
        sim._enqueue(self, delay)

    @classmethod
    def _fresh(cls, sim: "Simulator", delay: float) -> "Timeout":
        """A plain triggered timeout that is NOT enqueued.

        Kernel-internal: :meth:`Simulator._sleep_abs` schedules at an
        absolute wake time (``sleep_until`` must not round-trip through
        ``now + delay``), so it needs a timeout object without the
        constructor's relative enqueue.
        """
        t = cls.__new__(cls)
        t.sim = sim
        t._waiter = None
        t.callbacks = None
        t._value = None
        t._exc = None
        t._state = _TRIGGERED
        t.defused = False
        t.label = ""
        t.delay = delay
        return t


class ConditionError(Exception):
    """Wraps the first failure among a composite condition's children."""

    def __init__(self, event: Event, cause: BaseException):
        super().__init__(f"condition child failed: {cause!r}")
        self.event = event
        self.cause = cause


class AllOf(Event):
    """Fires when *all* child events have fired (``MPI_Waitall``).

    The value is a list of child values in the order the children were
    given.  If any child fails, the condition fails immediately with a
    :class:`ConditionError` carrying the first failure; remaining children
    are left to fire on their own (their failures are defused through the
    condition).
    """

    __slots__ = ("events", "_pending_count")

    def __init__(self, sim: "Simulator", events: _t.Sequence[Event],
                 label: str = ""):
        super().__init__(sim, label=label)
        self.events = list(events)
        self._pending_count = 0
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            if ev._state == _PROCESSED:
                if not ev.ok:
                    self._child_failed(ev)
                    return
            else:
                self._pending_count += 1
                ev.add_callback(self._on_child)
        if self._pending_count == 0 and self._state == _PENDING:
            self.succeed([ev.value for ev in self.events])

    def _on_child(self, ev: Event) -> None:
        if self._state != _PENDING:
            # Condition already failed because of a sibling; absorb this
            # child's outcome so a failure doesn't go unhandled.
            if not ev.ok:
                ev.defused = True
            return
        if not ev.ok:
            self._child_failed(ev)
            return
        self._pending_count -= 1
        if self._pending_count == 0:
            self.succeed([e.value for e in self.events])

    def _child_failed(self, ev: Event) -> None:
        ev.defused = True
        assert ev.exception is not None
        self.fail(ConditionError(ev, ev.exception))


class AnyOf(Event):
    """Fires when the *first* child event fires (``MPI_Waitany``).

    The value is a ``(index, value)`` pair identifying which child fired.
    A first-failing child fails the condition.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: _t.Sequence[Event],
                 label: str = ""):
        super().__init__(sim, label=label)
        self.events = list(events)
        if not self.events:
            raise ValueError("AnyOf needs at least one event")
        for idx, ev in enumerate(self.events):
            if ev._state == _PROCESSED:
                self._on_child_idx(ev, idx)
                if self._state != _PENDING:
                    break
            else:
                ev.add_callback(
                    lambda e, i=idx: self._on_child_idx(e, i))

    def _on_child_idx(self, ev: Event, idx: int) -> None:
        if self._state != _PENDING:
            if not ev.ok:
                ev.defused = True
            return
        if not ev.ok:
            ev.defused = True
            assert ev.exception is not None
            self.fail(ConditionError(ev, ev.exception))
        else:
            self.succeed((idx, ev.value))
