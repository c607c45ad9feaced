"""Same-timestamp batches: ``step()`` drains every event of the head
timestamp, ``sleep_until()`` schedules at an exact wake time, and
the ``run()`` loop recycles plain timeouts without losing any.

Every test here pins behaviour the unbatched one-event-at-a-time engine
would show (``tests/simulate/test_determinism.py`` does the same on a
full failure-injection scenario)."""

import pytest

from repro.simulate import Simulator, SimulationError


def _sleep_chain(sim, n, dt):
    for _ in range(n):
        yield sim.sleep(dt)
    return sim.now


def test_step_drains_same_time_batch():
    sim = Simulator()
    fired = []
    for i in range(3):
        sim.event(f"e{i}").succeed(i, delay=1.0).add_callback(
            lambda ev: fired.append(ev._value))
    sim.event("later").succeed("x", delay=2.0).add_callback(
        lambda ev: fired.append(ev._value))
    sim.step()
    # all three t=1 events in one step, in scheduling order; t=2 queued
    assert fired == [0, 1, 2]
    assert sim.now == 1.0
    sim.step()
    assert fired == [0, 1, 2, "x"]
    assert sim.now == 2.0


def test_step_includes_zero_delay_followups():
    sim = Simulator()
    order = []

    def chain(ev):
        order.append("first")
        sim.event("follow").succeed(delay=0.0).add_callback(
            lambda e: order.append("follow"))

    sim.event("head").succeed(delay=1.0).add_callback(chain)
    sim.step()
    # the zero-delay follow-up lands at the same timestamp => same batch
    assert order == ["first", "follow"]


def test_abandoned_sleep_still_fires_on_time():
    """A sleep taken but never yielded must keep its place in virtual
    time (it stays queued; the free list must not recycle it early)."""
    sim = Simulator()
    seen = []

    def body(sim):
        sim.sleep(1.0)                   # taken, never yielded
        yield sim.sleep(3.0)
        seen.append(sim.now)
        return sim.now

    p = sim.process(body(sim))
    sim.run()
    assert p.value == 3.0
    assert seen == [3.0]


def test_sleep_until_exact_time():
    sim = Simulator()

    def body(sim):
        yield sim.sleep(1.5)
        yield sim.sleep_until(4.0)
        return sim.now

    p = sim.process(body(sim))
    sim.run()
    assert p.value == 4.0


def test_sleep_until_past_rejected():
    sim = Simulator()

    def body(sim):
        yield sim.sleep(2.0)
        with pytest.raises(SimulationError):
            sim.sleep_until(1.0)
        return "ok"

    p = sim.process(body(sim))
    sim.run()
    assert p.value == "ok"


def test_timeout_pool_recycles_through_run_loop():
    sim = Simulator()
    sim.process(_sleep_chain(sim, 500, 1.0))
    sim.run()
    # fired, unreferenced sleeps must feed the free list
    assert len(sim._timeout_pool) >= 1
