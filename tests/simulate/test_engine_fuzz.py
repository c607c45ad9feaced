"""Property-based engine oracle (hypothesis): the inlined
:meth:`Simulator.run` loop against the ``Simulator(fast=False)`` seed
reference loop.

Random interleavings of the primitives the run loop special-cases —
plain sleeps, integer ``sleep_until`` targets, held tokens, abandoned
tokens, valued timeouts and kills — must produce the identical event
log, process values and final clock on both loops.  This targets the
timeout free list: a recycled timeout that some model code can still
observe would show up as a diverging log.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.simulate import Simulator


@st.composite
def _proc_scripts(draw):
    """A list of per-process scripts; each step is one primitive the
    run loop's timeout free list treats specially."""
    n = draw(st.integers(1, 6))
    steps = st.one_of(
        st.tuples(st.just("sleep"),
                  st.floats(0, 3, allow_nan=False)),
        st.tuples(st.just("sleep_int"), st.integers(0, 3)),
        st.tuples(st.just("hold_sleep"),
                  st.floats(0, 3, allow_nan=False)),
        st.tuples(st.just("abandon"),
                  st.floats(0.5, 3, allow_nan=False)),
        st.tuples(st.just("timeout"),
                  st.floats(0, 3, allow_nan=False)),
    )
    return [draw(st.lists(steps, min_size=1, max_size=6))
            for _ in range(n)]


def _drive(fast, scripts, kill_at):
    sim = Simulator(fast=fast)
    log = []

    def body(sim, pid, script):
        for op, arg in script:
            if op == "sleep":
                yield sim.sleep(arg)
            elif op == "sleep_int":
                yield sim.sleep_until(sim.now + arg)
            elif op == "hold_sleep":
                t = sim.sleep(arg)
                yield t
                # a still-referenced token must never be recycled: look
                # at it again after other sleeps had a chance to reuse it
                yield sim.sleep(arg / 2)
                log.append((pid, "held", t.processed, t.delay, sim.now))
                continue
            elif op == "abandon":
                sim.sleep(arg)          # taken, never yielded
                yield sim.sleep(arg / 2)
            elif op == "timeout":
                got = yield sim.timeout(arg, value=(pid, arg))
                log.append((pid, "timeout", got, sim.now))
                continue
            log.append((pid, op, sim.now))
        return pid

    procs = [sim.process(body(sim, pid, script), name=f"p{pid}")
             for pid, script in enumerate(scripts)]
    if kill_at is not None:
        victim, when = kill_at
        victim %= len(procs)

        def killer(sim):
            yield sim.sleep(when)
            if not procs[victim].processed:
                procs[victim].kill()

        sim.process(killer(sim), name="killer")
    sim.run()
    values = [p.value if not p.killed else "killed" for p in procs]
    return log, values, sim.now


@settings(max_examples=60, deadline=None)
@given(scripts=_proc_scripts(),
       kill=st.one_of(st.none(),
                      st.tuples(st.integers(0, 5),
                                st.floats(0.1, 2, allow_nan=False))))
def test_random_primitive_interleavings_match_oracle(scripts, kill):
    log_o, values_o, now_o = _drive(False, scripts, kill)
    log_f, values_f, now_f = _drive(True, scripts, kill)
    assert log_f == log_o
    assert repr(values_f) == repr(values_o)
    assert repr(now_f) == repr(now_o)
