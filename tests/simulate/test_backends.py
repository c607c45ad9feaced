"""Engine-loop semantics: the inlined :meth:`Simulator.run` loop against
the ``Simulator(fast=False)`` seed reference loop.

Every test runs the same model on both loops and asserts the observables
the engine promises: clock arithmetic, same-time ordering, ``until``,
kills, failures, resources, conditions, and the timeout free list's
reuse edge cases (held, abandoned and zero-delay sleeps).
"""

from __future__ import annotations

import pytest

from repro.simulate import (DeadlockError, ProcessKilled, Resource,
                            SimulationError, Simulator, Store,
                            get_engine_backend)

#: both engine loops; the ids name the default loop after the engine
#: ``repro.simulate.get_engine_backend()`` reports and ``fast=False``
#: after the seed engine it reproduces
LOOPS = pytest.mark.parametrize("fast", (True, False),
                                ids=("python", "seed"))


def test_backend_names():
    # provenance callers record this name; there is one engine loop
    assert get_engine_backend() == "python"


# -- behavioral parity -------------------------------------------------

@LOOPS
def test_sleep_chain_clock(fast):
    sim = Simulator(fast=fast)
    log = []

    def body(sim):
        for _ in range(5):
            yield sim.sleep(1.5)
            log.append(sim.now)

    sim.process(body(sim))
    sim.run()
    assert log == [1.5, 3.0, 4.5, 6.0, 7.5]
    assert sim.now == 7.5


@LOOPS
def test_integer_clock_stays_integral(fast):
    """The clock must not launder int times through floats (trace
    ``repr(time)`` bit-identity depends on it).  ``sleep_until`` with an
    int target is the int-time entry point (``sleep`` adds to the float
    starting clock, so it yields floats on both loops)."""
    sim = Simulator(fast=fast)
    times = []

    def body(sim):
        for t in (2, 5, 9):
            yield sim.sleep_until(t)
            times.append(sim.now)

    sim.process(body(sim))
    sim.run()
    assert [repr(t) for t in times] == ["2", "5", "9"]


@LOOPS
def test_sleep_until_exact_time(fast):
    """``sleep_until(t)`` wakes at exactly ``t`` — not at
    ``now + (t - now)``, which is a different float."""
    target = 0.30000000000000004  # 0.1 + 0.2: not reachable via now+delta
    sim = Simulator(fast=fast)
    woke = []

    def body(sim):
        yield sim.sleep(0.1)
        yield sim.sleep_until(target)
        woke.append(sim.now)

    sim.process(body(sim))
    sim.run()
    assert repr(woke[0]) == repr(target)


@LOOPS
def test_same_time_events_fire_in_schedule_order(fast):
    sim = Simulator(fast=fast)
    order = []

    def body(sim, tag, delay):
        yield sim.sleep(delay)
        order.append(tag)

    for tag, delay in (("a", 1.0), ("b", 0.5), ("c", 1.0), ("d", 0.5)):
        sim.process(body(sim, tag, delay))
    sim.run()
    # ties break by scheduling order: b before d (0.5), a before c (1.0)
    assert order == ["b", "d", "a", "c"]


@LOOPS
def test_until_stops_clock_between_events(fast):
    sim = Simulator(fast=fast)

    def body(sim):
        yield sim.sleep(10.0)

    sim.process(body(sim))
    sim.run(until=3.0)
    assert sim.now == 3.0
    assert sim.peek() == 10.0
    sim.run()
    assert sim.now == 10.0
    with pytest.raises(SimulationError):
        sim.run(until=5.0)


@LOOPS
def test_step_drains_one_timestamp(fast):
    sim = Simulator(fast=fast)
    order = []

    def spawner(sim):
        yield sim.sleep(1.0)
        order.append("parent")
        # zero-delay follow-on at the same timestamp must fire in the
        # same step() call
        ev = sim.event("follow")
        ev.succeed("v")
        got = yield ev
        order.append(("follow", got, sim.now))

    sim.process(spawner(sim))
    sim.step()   # start events at t=0
    sim.step()   # t=1 batch including the zero-delay follow-on
    assert order == ["parent", ("follow", "v", 1.0)]
    with pytest.raises(IndexError):
        sim.step()


@LOOPS
def test_kill_sleeping_process(fast):
    sim = Simulator(fast=fast)
    woke = []

    def body(sim):
        yield sim.sleep(5.0)
        woke.append(sim.now)

    p = sim.process(body(sim))
    sim.run(until=1.0)
    p.kill()
    sim.run()
    assert woke == []
    assert p.killed
    assert sim.now == 5.0  # the orphan timeout still advances the clock


@LOOPS
def test_kill_propagates_to_joiner(fast):
    sim = Simulator(fast=fast)
    caught = []

    def victim(sim):
        yield sim.sleep(5.0)

    def joiner(sim, p):
        try:
            yield p
        except ProcessKilled as exc:
            caught.append(str(exc))

    p = sim.process(victim(sim), name="victim")
    sim.process(joiner(sim, p))
    sim.run(until=1.0)
    p.kill()
    sim.run()
    assert len(caught) == 1


@LOOPS
def test_process_failure_propagates(fast):
    sim = Simulator(fast=fast)

    def boom(sim):
        yield sim.sleep(1.0)
        raise ValueError("boom")

    sim.process(boom(sim))
    with pytest.raises(ValueError, match="boom"):
        sim.run()


@LOOPS
def test_exception_keeps_same_time_peers_fireable(fast):
    """An exception mid-batch must leave the unfired same-time events
    queued, so a second ``run()`` fires them."""
    sim = Simulator(fast=fast)
    ran = []

    def boom(sim):
        yield sim.sleep(1.0)
        raise ValueError("boom")

    def peer(sim, tag):
        yield sim.sleep(1.0)
        ran.append(tag)

    sim.process(boom(sim))
    sim.process(peer(sim, "x"))
    sim.process(peer(sim, "y"))
    with pytest.raises(ValueError):
        sim.run()
    sim.run()
    assert ran == ["x", "y"]
    assert sim.now == 1.0


@LOOPS
def test_resources_and_store(fast):
    sim = Simulator(fast=fast)
    log = []

    res = Resource(sim, capacity=1, name="r")
    store = Store(sim, name="s")

    def holder(sim):
        yield from res.hold(2.0)
        log.append(("released", sim.now))

    def contender(sim):
        yield res.request()
        log.append(("acquired", sim.now))
        res.release()
        store.put("token")

    def consumer(sim):
        item = yield store.get()
        log.append(("got", item, sim.now))

    sim.process(holder(sim))
    sim.process(contender(sim))
    sim.process(consumer(sim))
    sim.run()
    assert log == [("released", 2.0), ("acquired", 2.0),
                   ("got", "token", 2.0)]


@LOOPS
def test_conditions(fast):
    sim = Simulator(fast=fast)
    got = []

    def body(sim):
        t1 = sim.timeout(1.0, value="one")
        t2 = sim.timeout(2.0, value="two")
        first = yield sim.any_of([t1, t2])
        got.append((sim.now, first))
        rest = yield sim.all_of([t2])
        got.append((sim.now, rest))

    sim.process(body(sim))
    sim.run()
    assert got == [(1.0, (0, "one")), (2.0, ["two"])]


# -- timeout free-list edge cases -------------------------------------

@LOOPS
def test_sleep_token_held_and_yielded_later(fast):
    """Holding the token across other work must not confuse the pool:
    the timeout is still referenced, so it must not be recycled."""
    sim = Simulator(fast=fast)
    log = []

    def body(sim):
        t = sim.sleep(1.0)
        yield t
        log.append(sim.now)
        assert t.processed
        yield sim.sleep(1.0)
        log.append(sim.now)

    sim.process(body(sim))
    sim.run()
    assert log == [1.0, 2.0]


@LOOPS
def test_sleep_then_yield_other_event_no_spurious_wake(fast):
    """A process that takes a sleep token but yields a *different*
    event must not be woken by the abandoned timeout."""
    sim = Simulator(fast=fast)
    woke = []

    def body(sim, ev):
        yield sim.sleep(1.0)          # primes the free list
        sim.sleep(2.0)                # taken, abandoned (fires at 3.0)
        got = yield ev                # real wait: fires at 5.0
        woke.append((sim.now, got))

    ev = sim.event("gate")
    sim.process(body(sim, ev))

    def trigger(sim, ev):
        yield sim.sleep(5.0)
        ev.succeed("go")

    sim.process(trigger(sim, ev))
    sim.run()
    assert woke == [(5.0, "go")]


@LOOPS
def test_sleep_abandoned_then_reyielded(fast):
    """An abandoned-then-reyielded token still works: it binds its
    waiter when finally yielded (before it fires)."""
    sim = Simulator(fast=fast)
    woke = []

    def body(sim):
        yield sim.sleep(1.0)
        t = sim.sleep(4.0)            # fires at 5.0
        yield sim.sleep(1.0)          # meanwhile, a nested wait
        yield t
        woke.append(sim.now)

    sim.process(body(sim))
    sim.run()
    assert woke == [5.0]


@LOOPS
def test_final_sleep_then_return(fast):
    """sleep() taken, process returns without yielding: the timeout
    fires as a waiterless no-op."""
    sim = Simulator(fast=fast)

    def body(sim):
        yield sim.sleep(1.0)
        sim.sleep(3.0)
        return "done"

    p = sim.process(body(sim))
    sim.run()
    assert p.value == "done"
    assert sim.now == 4.0             # the orphan still drains


@LOOPS
def test_zero_delay_sleep_chain(fast):
    sim = Simulator(fast=fast)
    ticks = []

    def body(sim):
        for i in range(4):
            yield sim.sleep(0.0)
            ticks.append((i, sim.now))

    sim.process(body(sim))
    sim.run()
    assert ticks == [(0, 0.0), (1, 0.0), (2, 0.0), (3, 0.0)]


# -- peek()/DeadlockError on orphan-only queues -----------------------
# (the queue holds nothing but timeouts whose waiters were killed; both
# loops must agree on what peek() reports and how deadlock is detected)

def _orphan_queue(fast):
    sim = Simulator(fast=fast)

    def sleeper(sim):
        yield sim.sleep(5.0)

    def stuck(sim, ev):
        yield ev

    p = sim.process(sleeper(sim), name="sleeper")
    ev = sim.event("never")
    sim.process(stuck(sim, ev), name="stuck")
    sim.run(until=1.0)
    p.kill()
    return sim


def test_peek_agrees_on_orphan_only_queue():
    peeks = {}
    for fast in (True, False):
        sim = _orphan_queue(fast)
        # drain the kill-propagation event; only the orphan wake
        # (a waiterless timeout) remains queued
        sim.run(until=2.0)
        peeks[fast] = sim.peek()
    assert peeks[True] == peeks[False] == 5.0


def test_deadlock_reporting_agrees_on_orphan_only_queue():
    outcomes = {}
    for fast in (True, False):
        sim = _orphan_queue(fast)
        with pytest.raises(DeadlockError) as exc:
            sim.run(detect_deadlock=True)
        outcomes[fast] = (str(exc.value), sim.now)
    assert outcomes[True] == outcomes[False]
    msg, now = outcomes[True]
    assert "stuck" in msg and "sleeper" not in msg
    assert now == 5.0                 # orphan timeouts still advance time


def test_peek_sees_unconsolidated_rows():
    """Events scheduled but not yet run are part of the queue and must
    be visible to peek()."""
    for fast in (True, False):
        sim = Simulator(fast=fast)
        sim.timeout(3.0)
        assert sim.peek() == 3.0, fast
    sim = Simulator()
    assert sim.peek() == float("inf")
