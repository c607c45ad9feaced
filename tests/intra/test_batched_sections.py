"""Batched section execution (LocalIntraRuntime): bit-identical results,
timers and stats vs the task-by-task oracle path, in native and SDR
modes, including crash injection landing mid-batch."""

import numpy as np
import pytest

from repro.intra import (Tag, launch_native_job, launch_sdr_job,
                         section_batching_enabled, set_section_batching)
from repro.replication import FailureInjector
from tests.intra.conftest import waxpby_cost, waxpby_task


@pytest.fixture
def toggle_batching():
    """Restore the process-wide section-batching switch after the test."""
    prev = section_batching_enabled()
    yield set_section_batching
    set_section_batching(prev)


def sectioned_program(ctx, comm, n=64, n_tasks=8, n_sections=5):
    """Back-to-back sections over a rank-dependent vector, mixing
    zero-cost and costed tasks, plus a run_local stretch."""
    x = np.arange(n, dtype=np.float64) + comm.rank
    y = np.ones(n, dtype=np.float64)
    w = np.zeros(n, dtype=np.float64)
    rt = ctx.intra
    for s in range(n_sections):
        with ctx.region("sections"):
            rt.section_begin()
            tid = rt.task_register(
                waxpby_task, [Tag.IN, Tag.IN, Tag.IN, Tag.IN, Tag.OUT],
                cost=waxpby_cost)
            free = rt.task_register(
                waxpby_task, [Tag.IN, Tag.IN, Tag.IN, Tag.IN, Tag.OUT])
            ts = n // n_tasks
            for i in range(n_tasks):
                sl = slice(i * ts, (i + 1) * ts)
                rt.task_launch(tid, [2.0, x[sl], 3.0, y[sl], w[sl]])
            # a zero-cost task in the middle of the batch
            rt.task_launch(free, [1.0, w[:ts], 0.0, y[:ts], w[:ts]])
            yield from rt.section_end()
        yield from rt.run_local(waxpby_task, [1.0, w, float(s), y, x],
                                waxpby_cost)
    return ctx.now, float(x.sum()), float(w.sum())


def _run_native(make_world, batched, toggle):
    toggle(batched)
    world = make_world()
    job = launch_native_job(world, sectioned_program, 3)
    world.run()
    stats = [dict(c.intra.stats.__dict__) for c in job.contexts]
    timers = [dict(c.timers) for c in job.contexts]
    return job.results(), stats, timers


def test_native_batched_bit_identical(make_world, toggle_batching):
    res_b, stats_b, timers_b = _run_native(make_world, True,
                                           toggle_batching)
    res_u, stats_u, timers_u = _run_native(make_world, False,
                                           toggle_batching)
    assert repr(res_b) == repr(res_u)      # exact floats, same clocks
    assert stats_b == stats_u              # per-task accounting replayed
    assert timers_b == timers_u


def _run_sdr(make_world, batched, toggle, crash_at=None):
    toggle(batched)
    world = make_world()
    job = launch_sdr_job(world, sectioned_program, 2)
    if crash_at is not None:
        FailureInjector(job.manager).kill_at(0, 1, crash_at)
    world.run()
    return job


def test_sdr_batched_bit_identical(make_world, toggle_batching):
    job_b = _run_sdr(make_world, True, toggle_batching)
    job_u = _run_sdr(make_world, False, toggle_batching)
    assert repr(job_b.results()) == repr(job_u.results())
    for row_b, row_u in zip(job_b.manager.replicas, job_u.manager.replicas):
        for ib, iu in zip(row_b, row_u):
            assert ib.ctx.intra.stats.__dict__ == iu.ctx.intra.stats.__dict__


def test_sdr_crash_lands_mid_batch_at_exact_time(make_world,
                                                 toggle_batching):
    """A kill scheduled inside a batched section terminates the replica
    at the exact scheduled virtual time, and the survivors' results are
    identical to the unbatched run's."""
    # pick a crash time inside the compute window of the run
    probe = _run_sdr(make_world, True, toggle_batching)
    end = probe.world.sim.now
    crash_at = end * 0.41

    job_b = _run_sdr(make_world, True, toggle_batching, crash_at=crash_at)
    job_u = _run_sdr(make_world, False, toggle_batching, crash_at=crash_at)

    for job in (job_b, job_u):
        victim = job.manager.replicas[0][1]
        assert not victim.alive
        assert victim.app_process.killed
    assert repr(job_b.results()) == repr(job_u.results())
    assert job_b.world.sim.now == job_u.world.sim.now


def test_single_task_sections_skip_batching(make_world, toggle_batching):
    """A one-task section takes the oracle path (nothing to batch) and
    still matches results."""

    def one_task(ctx, comm):
        x = np.arange(16, dtype=np.float64)
        w = np.zeros(16)
        rt = ctx.intra
        rt.section_begin()
        tid = rt.task_register(
            waxpby_task, [Tag.IN, Tag.IN, Tag.IN, Tag.IN, Tag.OUT],
            cost=waxpby_cost)
        rt.task_launch(tid, [2.0, x, 0.0, x, w])
        yield from rt.section_end()
        return float(w.sum())

    out = []
    for batched in (True, False):
        toggle_batching(batched)
        world = make_world()
        job = launch_native_job(world, one_task, 1)
        world.run()
        out.append((job.results(), world.sim.now))
    assert repr(out[0]) == repr(out[1])


def test_trace_hook_disables_section_batching(make_world, machine,
                                              netspec, toggle_batching):
    """With a trace installed, sections run task-by-task so per-event
    traces stay seed-exact."""
    from repro.mpi import MpiWorld
    from repro.netmodel import Cluster

    toggle_batching(True)
    events = []
    world = MpiWorld(Cluster(8, machine), netspec,
                     trace=lambda t, ev: events.append(ev.label))
    job = launch_native_job(world, sectioned_program, 1)
    world.run()
    # 9 tasks per section with nonzero cost on 8 of them -> at least 8
    # distinct compute wakes per section in the traced (oracle) run
    assert len(events) > 5 * 8
    assert job.results()
