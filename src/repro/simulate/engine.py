"""The discrete-event simulation kernel.

This module provides the :class:`Simulator` (virtual clock + event heap)
and :class:`Process` (a generator-based coroutine suspended on events).
Everything above it in the stack — the network model, the simulated MPI,
the replication layer and the intra-parallelization runtime — is written
as processes that ``yield`` events.

Determinism
-----------
Events scheduled for the same virtual time are processed in scheduling
order (a monotonically increasing sequence number breaks ties), so a run
is a pure function of its inputs.  Reproduction experiments rely on this:
re-running a failure-injection scenario replays the identical interleaving
(``tests/simulate/test_determinism.py`` pins a golden trace).

Performance
-----------
:meth:`Simulator.run` inlines the pop→process→callback chain (the body of
:meth:`Event._process`) and :meth:`Process._resume` reads event slots
directly instead of going through properties.  Plain timeouts — the
dominant event by two orders of magnitude — are recycled through a small
free list: after the run loop processes a :class:`Timeout` that nothing
else references (checked via the CPython refcount), the object is reset
and reused by the next :meth:`Simulator.sleep` call, making the
"process sleeps for its compute time" hot path allocation-free.
``benchmarks/test_perf_engine.py`` tracks the resulting events/sec.

Same-timestamp batches
----------------------
:meth:`Simulator.step` drains *every* event scheduled for the head
timestamp in one pass — one ``until``-check and one clock write per
same-time batch instead of per event.  Processing order within the
batch is still the scheduling order (the heap's sequence numbers), so
semantics are unchanged.  ``step()`` is the body of the
``Simulator(fast=False)`` reference loop the tests compare
:meth:`Simulator.run` against.

Example
-------
>>> sim = Simulator()
>>> def hello(sim):
...     yield sim.timeout(3.0)
...     return "done at %g" % sim.now
>>> p = sim.process(hello(sim))
>>> sim.run()
>>> p.value
'done at 3'
"""

from __future__ import annotations

import heapq
import inspect
import typing as _t

from .errors import (DeadlockError, NotProcessError, ProcessKilled,
                     SimulationError, UnhandledFailure)
from .events import (_PENDING, _PROCESSED, _TRIGGERED, AllOf, AnyOf, Event,
                     Timeout)

_getrefcount: _t.Optional[_t.Callable[[_t.Any], int]]
try:  # CPython: enables the timeout free list in the run loop
    from sys import getrefcount as _getrefcount
except ImportError:  # pragma: no cover - non-refcounting interpreters
    _getrefcount = None

#: cap on the timeout free list (a handful per live process is plenty)
_POOL_MAX = 256

#: process-wide default for ``Simulator(fast=None)``; the perf benchmarks
#: and the engine differential tests flip this to run the un-inlined
#: seed reference loop
FAST_DEFAULT = True

_INF = float("inf")

#: what :meth:`Simulator.process` accepts: a generator yielding
#: :class:`Event`\ s; the sent/returned sides stay ``Any`` (an event's
#: value is model-defined)
ProcessBody = _t.Generator[Event, _t.Any, _t.Any]


class Simulator:
    """Virtual clock and event queue.

    Parameters
    ----------
    trace:
        Optional callable ``trace(time, event)`` invoked for every
        processed event; used by tests that assert on protocol traces
        (e.g. the Figure 1 message/compute pattern).
    fast:
        When False, :meth:`run` falls back to the un-inlined
        ``while heap: step()`` loop and timeout pooling is disabled.
        This is the seed-equivalent reference loop: the engine tests
        compare the inlined loop against it and the performance
        benchmarks time it as the baseline; semantics are identical
        either way.  ``None`` means "use :data:`FAST_DEFAULT`".
    """

    def __init__(self, trace: _t.Optional[_t.Callable[[float, Event], None]] = None,
                 fast: _t.Optional[bool] = None) -> None:
        self.now: float = 0.0
        self._heap: _t.List[_t.Tuple[float, int, Event]] = []
        self._seq = 0
        self._trace = trace
        if fast is None:
            fast = FAST_DEFAULT
        self._fast = fast and _getrefcount is not None
        #: free list of recycled Timeout objects (see :meth:`sleep`)
        self._timeout_pool: _t.List[Timeout] = []
        #: live (not yet terminated) processes, used for deadlock detection
        self._active_processes: _t.Set["Process"] = set()

    # -- event construction helpers --------------------------------------
    def event(self, label: str = "") -> Event:
        """A fresh pending event, to be triggered by model code."""
        return Event(self, label=label)

    def timeout(self, delay: float, value: _t.Any = None,
                label: str = "") -> Timeout:
        """An event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value=value, label=label)

    def sleep(self, delay: float) -> Timeout:
        """A plain timeout (no value, no label) from the free list.

        Semantically identical to ``timeout(delay)``; the returned object
        may be a recycled :class:`Timeout`.  This is the zero-allocation
        fast path for the dominant "process sleeps for its compute/idle
        time" case.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        return self._sleep_abs(self.now + delay, delay)

    def sleep_until(self, time: float) -> Timeout:
        """A plain timeout firing at absolute virtual ``time``.

        Used by batched charge descriptors
        (:meth:`repro.mpi.world.ProcContext.compute_batch` and its
        mixed-segment generalization
        :meth:`~repro.mpi.world.ProcContext.charge_batch`, which backs
        the work-sharing runtime's split-on-send sub-batches): the
        caller accumulates per-segment wake times with exactly the
        float arithmetic a chain of :meth:`sleep` calls would have
        performed, then schedules the final wake directly — one engine
        event for the whole stretch, bit-identical end time.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot sleep until {time} (now={self.now})")
        return self._sleep_abs(time, time - self.now)

    def _sleep_abs(self, wake: float, delay: float) -> Timeout:
        """Shared body of :meth:`sleep` / :meth:`sleep_until`."""
        pool = self._timeout_pool
        if pool:
            t = pool.pop()
            t._waiter = None
            t.callbacks = None
            t._value = None
            t._exc = None
            t._state = _TRIGGERED
            t.defused = False
            t.label = ""
            t.delay = delay
        else:
            t = Timeout._fresh(self, delay)
        self._seq += 1
        heapq.heappush(self._heap, (wake, self._seq, t))
        return t

    def all_of(self, events: _t.Sequence[Event], label: str = "") -> AllOf:
        """Fires when all ``events`` fired (cf. ``MPI_Waitall``)."""
        return AllOf(self, events, label=label)

    def any_of(self, events: _t.Sequence[Event], label: str = "") -> AnyOf:
        """Fires when the first of ``events`` fires (cf. ``MPI_Waitany``)."""
        return AnyOf(self, events, label=label)

    def process(self, body: "ProcessBody", name: str = "") -> "Process":
        """Register a generator as a new simulated process."""
        return Process(self, body, name=name)

    # -- kernel ------------------------------------------------------------
    def _enqueue(self, event: Event, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else _INF

    def step(self) -> None:
        """Process every event scheduled for the next timestamp.

        One batch = all events sharing the head timestamp (including
        zero-delay events they trigger at that same time), processed in
        scheduling order — exactly the order a one-event-at-a-time loop
        would have used, but with a single heap inspection, clock write
        and ``until`` boundary per batch instead of per event.
        """
        heap = self._heap
        trace = self._trace
        time, _seq, event = heapq.heappop(heap)
        self.now = time
        while True:
            event._process()
            if trace is not None:
                trace(time, event)
            if event._exc is not None and not event.defused:
                raise UnhandledFailure(event._exc)
            if not heap or heap[0][0] != time:
                return
            _same, _seq, event = heapq.heappop(heap)

    def run(self, until: _t.Optional[float] = None,
            detect_deadlock: bool = False) -> None:
        """Run until the queue drains or ``until`` is reached.

        With ``detect_deadlock=True``, raise :class:`DeadlockError` if the
        queue drains while registered processes are still alive — the
        standard failure mode of an unmatched ``recv``.
        """
        if until is not None and until < self.now:
            raise SimulationError(f"until={until} is in the past (now={self.now})")
        if not self._fast:
            while self._heap:
                if until is not None and self._heap[0][0] > until:
                    self.now = until
                    return
                self.step()
        else:
            heap = self._heap
            pool = self._timeout_pool
            heappop = heapq.heappop
            trace = self._trace
            getrefcount = _getrefcount
            assert getrefcount is not None  # _fast implies CPython
            pool_append = pool.append
            timeout_cls = Timeout
            while heap:
                if until is not None and heap[0][0] > until:
                    self.now = until
                    return
                time, _seq, event = heappop(heap)
                self.now = time
                # -- inline Event._process; keep in sync with
                #    Event._process (the fast=False loop's path);
                #    tests/simulate/test_determinism.py (golden trace)
                #    and test_engine_fuzz.py pin their equivalence ---
                event._state = _PROCESSED
                waiter = event._waiter
                if waiter is not None:
                    event._waiter = None
                    waiter(event)
                    if event.callbacks is None:
                        # single-waiter success: the dominant shape.
                        # Recycle unreferenced plain timeouts — refcount
                        # 2 means only the local variable and the
                        # getrefcount argument hold the object, so no
                        # model code can observe the reuse.
                        if (event._exc is None and trace is None
                                and type(event) is timeout_cls
                                and len(pool) < _POOL_MAX
                                and getrefcount(event) == 2):
                            pool_append(event)
                            continue
                    else:
                        cbs = event.callbacks
                        event.callbacks = None
                        for cb in cbs:
                            cb(event)
                else:
                    cbs = event.callbacks
                    if cbs is not None:
                        event.callbacks = None
                        for cb in cbs:
                            cb(event)
                # ------------------------------------------------------
                if trace is not None:
                    trace(time, event)
                if event._exc is not None and not event.defused:
                    raise UnhandledFailure(event._exc)
        if until is not None:
            self.now = until
        if detect_deadlock and self._active_processes:
            waiting = ", ".join(sorted(p.name for p in self._active_processes))
            raise DeadlockError(
                f"event queue drained but processes still waiting: {waiting}")


class Process(Event):
    """A coroutine driven by the simulator.

    A process body is a generator that yields :class:`Event` objects; the
    process suspends until each yielded event fires, receiving the event's
    value as the result of the ``yield`` (or the event's exception raised
    at the ``yield``).  The :class:`Process` itself is an event that fires
    when the body returns — ``yield other_process`` is a *join*.

    Crash injection: :meth:`kill` terminates the process at the current
    virtual time.  The process event *fails* with :class:`ProcessKilled`
    (defused, so an unobserved crash does not abort the run) and a
    ``GeneratorExit`` is thrown into the body so ``finally`` blocks run.
    """

    __slots__ = ("body", "name", "_waiting_on", "_killed", "_resume_cb")

    def __init__(self, sim: Simulator, body: "ProcessBody",
                 name: str = "") -> None:
        if not inspect.isgenerator(body):
            raise NotProcessError(
                f"process body must be a generator, got {type(body).__name__}")
        super().__init__(sim, label=name or "process")
        self.body = body
        self.name = name or getattr(body, "__name__", "process")
        self._waiting_on: _t.Optional[Event] = None
        self._killed = False
        #: the bound resume method, created once — registering a fresh
        #: bound method per wait would allocate on every suspension and
        #: break identity-based deregistration.
        self._resume_cb = self._resume
        sim._active_processes.add(self)
        # Bootstrap: start executing at the current time.
        start = Event(sim, label=f"start:{self.name}")
        start._waiter = self._resume_cb
        start.succeed()

    # -- state -------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the body has not returned and was not killed."""
        return self._state == _PENDING

    @property
    def killed(self) -> bool:
        """True if the process was terminated by :meth:`kill`."""
        return self._killed

    # -- crash injection ---------------------------------------------------
    def kill(self, reason: str = "killed") -> None:
        """Terminate the process now (crash-stop fault injection).

        Idempotent; killing a terminated process is a no-op.  The body's
        ``finally`` blocks run (via ``GeneratorExit``), the process event
        fails with :class:`ProcessKilled` and is defused.

        Self-kill: if the process is killed from within its own stack
        (e.g. a fault injector subscribed to a protocol hook the process
        just emitted), :class:`ProcessKilled` is raised *through the
        caller* — it propagates up the victim's frames (running their
        ``finally`` blocks) until the kernel completes the kill.  Code
        between the victim and the kernel must not swallow it.
        """
        if self._state != _PENDING:
            return
        if getattr(self.body, "gi_running", False):
            self._killed = True
            raise ProcessKilled(reason)
        self._killed = True
        if self._waiting_on is not None:
            self._waiting_on.remove_callback(self._resume_cb)
            self._waiting_on = None
        self.body.close()
        self.sim._active_processes.discard(self)
        self.defused = True
        self.fail(ProcessKilled(reason))

    # -- kernel ------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._state != _PENDING:  # killed while the wake-up was in flight
            return
        self._waiting_on = None
        body = self.body
        try:
            exc = event._exc
            if exc is not None:
                event.defused = True
                target = body.throw(exc)
            else:
                target = body.send(event._value if event is not self else None)
        except StopIteration as stop:
            self.sim._active_processes.discard(self)
            self.succeed(stop.value)
            return
        except ProcessKilled:
            # A body may re-raise the kill of a subprocess it joined on;
            # treat as its own crash.
            self.sim._active_processes.discard(self)
            self._killed = True
            self.defused = True
            self.fail(ProcessKilled(f"{self.name}: propagated kill"))
            return
        # Fast path: a freshly created (triggered, unwaited) Timeout —
        # the overwhelmingly common "yield sim.timeout(dt)" case.
        if (type(target) is Timeout and target._state == _TRIGGERED
                and target._waiter is None):
            target._waiter = self._resume_cb
            self._waiting_on = target
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                f"yield Event objects (did you forget a .request()/.recv()?)")
        if target._state == _PROCESSED:
            # Already fired: resume immediately (via a zero-delay event to
            # preserve run-to-completion semantics per event).
            bounce = Event(self.sim, label=f"bounce:{self.name}")
            bounce._waiter = self._resume_cb
            if target._exc is not None:
                target.defused = True
                bounce.defused = True
                bounce.fail(target._exc)
            else:
                bounce.succeed(target._value)
            self._waiting_on = bounce
        else:
            target.add_callback(self._resume_cb)
            self._waiting_on = target
