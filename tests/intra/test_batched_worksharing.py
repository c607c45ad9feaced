"""Split-on-send batched execution (work-sharing IntraRuntime):
bit-identical results, stats, timers and update-send timing vs the
task-by-task oracle, including crashes landing mid-batch — plus the
section-shape object pooling that rides on the same toggle discipline.
"""

import numpy as np
import pytest

import repro.intra.runtime as runtime_mod
from repro.intra import (CopyStrategy, Tag, launch_intra_job,
                         section_batching_enabled, set_section_batching,
                         set_task_pooling, task_pooling_enabled)
from repro.mpi.world import ProcContext
from repro.replication import FailureInjector
from tests.intra.conftest import waxpby_cost, waxpby_task


@pytest.fixture
def toggle_batching():
    """Restore the process-wide section-batching switch after the test."""
    prev = section_batching_enabled()
    yield set_section_batching
    set_section_batching(prev)


@pytest.fixture
def toggle_pooling():
    prev = task_pooling_enabled()
    yield set_task_pooling
    set_task_pooling(prev)


@pytest.fixture
def count_charge_batches(monkeypatch):
    """Count ProcContext.charge_batch calls — proof of which path ran."""
    calls = {"n": 0}
    real = ProcContext.charge_batch

    def counting(self, *args, **kwargs):
        calls["n"] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ProcContext, "charge_batch", counting)
    return calls


def sharing_program(ctx, comm, n=64, n_tasks=8, n_sections=4):
    """Work-shared sections mixing update-sending tasks (OUT), silent
    tasks (IN-only: they coalesce), and INOUT tasks (restore memcpys in
    the EAGER strategy), plus a run_local stretch between sections."""
    x = np.arange(n, dtype=np.float64) + comm.lrank
    y = np.ones(n, dtype=np.float64)
    w = np.zeros(n, dtype=np.float64)
    z = np.full(n, 2.0)
    rt = ctx.intra
    for s in range(n_sections):
        rt.section_begin()
        out_t = rt.task_register(
            waxpby_task, [Tag.IN, Tag.IN, Tag.IN, Tag.IN, Tag.OUT],
            cost=waxpby_cost)
        silent = rt.task_register(
            waxpby_task, [Tag.IN, Tag.IN, Tag.IN, Tag.IN, Tag.IN])
        inout_t = rt.task_register(
            waxpby_task, [Tag.IN, Tag.IN, Tag.IN, Tag.IN, Tag.INOUT],
            cost=waxpby_cost)
        ts = n // n_tasks
        for i in range(n_tasks):
            sl = slice(i * ts, (i + 1) * ts)
            if i % 3 == 2:
                rt.task_launch(inout_t, [2.0, x[sl], 1.0, y[sl], z[sl]])
            else:
                rt.task_launch(out_t, [2.0, x[sl], 3.0, y[sl], w[sl]])
            if i % 2 == 0:
                # zero-cost, update-free: coalesces into the next wake
                rt.task_launch(silent, [1.0, x[sl], 0.0, y[sl], x[sl]])
        yield from rt.section_end()
        yield from rt.run_local(waxpby_task, [1.0, w, float(s), y, x],
                                waxpby_cost)
    return ctx.now, float(x.sum()), float(w.sum()), float(z.sum())


def _run_intra(make_world, batched, toggle, copy_strategy=CopyStrategy.LAZY,
               injector_fn=None, **job_kw):
    toggle(batched)
    world = make_world()
    job = launch_intra_job(world, sharing_program, 2,
                           copy_strategy=copy_strategy, **job_kw)
    if injector_fn is not None:
        injector_fn(FailureInjector(job.manager))
    world.run()
    return job


def _survivor_state(job):
    stats, timers, results = [], [], []
    for row in job.manager.replicas:
        for info in row:
            if info.alive:
                stats.append(dict(info.ctx.intra.stats.__dict__))
                timers.append(dict(info.ctx.timers))
                results.append(info.app_process.value)
    return results, stats, timers


@pytest.mark.parametrize("strategy", [CopyStrategy.LAZY, CopyStrategy.EAGER,
                                      CopyStrategy.ATOMIC])
def test_intra_batched_bit_identical(make_world, toggle_batching, strategy):
    job_b = _run_intra(make_world, True, toggle_batching, strategy)
    job_u = _run_intra(make_world, False, toggle_batching, strategy)
    assert repr(job_b.results()) == repr(job_u.results())
    assert job_b.world.sim.now == job_u.world.sim.now
    for row_b, row_u in zip(job_b.manager.replicas, job_u.manager.replicas):
        for ib, iu in zip(row_b, row_u):
            assert ib.ctx.intra.stats.__dict__ == iu.ctx.intra.stats.__dict__
            assert ib.ctx.timers == iu.ctx.timers


def test_batched_path_actually_runs(make_world, toggle_batching,
                                    count_charge_batches):
    job = _run_intra(make_world, True, toggle_batching)
    assert count_charge_batches["n"] > 0
    assert job.results()


def test_update_sends_land_at_exact_oracle_times(make_world,
                                                 toggle_batching):
    """The split-on-send golden trace: every update injection — the
    Figure 2 crash window — happens at the same virtual timestamp, for
    the same (replica, section, task, arg), in batched and oracle runs.
    (``update_injected`` subscribers do NOT disable batching: the hook
    fires from a transfer callback whose time split-on-send preserves.)
    """
    traces = {}
    for batched in (True, False):
        toggle_batching(batched)
        world = make_world()
        job = launch_intra_job(world, sharing_program, 2)
        trace = []
        job.manager.hooks.subscribe(
            "update_injected",
            lambda **kw: trace.append((world.sim.now, kw["logical_rank"],
                                       kw["replica_id"], kw["section"],
                                       kw["task"], kw["arg"])))
        world.run()
        assert trace, "program produced no update traffic"
        traces[batched] = trace
    assert repr(traces[True]) == repr(traces[False])


def _kill_on_injection(injector, lrank=0, rid=1, task=None):
    injector.kill_on_hook(
        lrank, rid, "update_injected",
        when=(None if task is None
              else (lambda **kw: kw.get("task") == task)))


def test_crash_at_update_injected_mid_batch(make_world, toggle_batching):
    """A replica killed the instant one of its updates hits the wire —
    while its next sub-batch wake is pending — leaves survivors in a
    state bit-identical to the task-by-task oracle, including the
    recovery re-executions."""
    # task 8 is an INOUT task in the static block of replica (0, 1) —
    # killing at its update injection is exactly the Figure 2 scenario,
    # with tasks 9/11 of the block still unexecuted
    job_b = _run_intra(make_world, True, toggle_batching,
                       injector_fn=lambda inj: _kill_on_injection(inj,
                                                                  task=8))
    job_u = _run_intra(make_world, False, toggle_batching,
                       injector_fn=lambda inj: _kill_on_injection(inj,
                                                                  task=8))
    for job in (job_b, job_u):
        victim = job.manager.replicas[0][1]
        assert not victim.alive and victim.app_process.killed
    res_b, stats_b, timers_b = _survivor_state(job_b)
    res_u, stats_u, timers_u = _survivor_state(job_u)
    assert repr(res_b) == repr(res_u)
    assert stats_b == stats_u
    assert timers_b == timers_u
    assert job_b.world.sim.now == job_u.world.sim.now
    assert any(s["recoveries"] for s in stats_b)


def test_timed_crash_lands_mid_batch_at_exact_time(make_world,
                                                   toggle_batching):
    """A time-triggered kill inside the local stretch terminates the
    replica at the exact scheduled time in both paths."""
    probe = _run_intra(make_world, True, toggle_batching)
    crash_at = probe.world.sim.now * 0.37

    def inject(inj):
        inj.kill_at(1, 0, crash_at)

    job_b = _run_intra(make_world, True, toggle_batching,
                       injector_fn=inject)
    job_u = _run_intra(make_world, False, toggle_batching,
                       injector_fn=inject)
    for job in (job_b, job_u):
        victim = job.manager.replicas[1][0]
        assert not victim.alive and victim.crash_time == crash_at
    res_b, stats_b, _ = _survivor_state(job_b)
    res_u, stats_u, _ = _survivor_state(job_u)
    assert repr(res_b) == repr(res_u)
    assert stats_b == stats_u
    assert job_b.world.sim.now == job_u.world.sim.now


def test_task_executed_subscriber_forces_oracle(make_world, toggle_batching,
                                                count_charge_batches):
    """A ``task_executed`` subscriber observes per-task protocol points
    mid-stretch, so the runtime must fall back to the task-by-task
    path."""
    toggle_batching(True)
    world = make_world()
    job = launch_intra_job(world, sharing_program, 2)
    seen = []
    job.manager.hooks.subscribe("task_executed",
                                lambda **kw: seen.append(kw["task"]))
    world.run()
    assert count_charge_batches["n"] == 0
    assert seen


def test_recording_hookbus_forces_oracle(make_world, toggle_batching,
                                         count_charge_batches):
    toggle_batching(True)
    world = make_world()
    job = launch_intra_job(world, sharing_program, 2)
    job.manager.hooks.record = True
    world.run()
    assert count_charge_batches["n"] == 0
    assert any(name == "task_executed"
               for name, _ in job.manager.hooks.events_seen)


# ------------------------------------------------------- object pooling
def test_pooling_bit_identical(make_world, toggle_batching, toggle_pooling):
    toggle_batching(True)
    runs = {}
    for pooled in (True, False):
        toggle_pooling(pooled)
        world = make_world()
        job = launch_intra_job(world, sharing_program, 2)
        world.run()
        runs[pooled] = (repr(job.results()), world.sim.now,
                        [[dict(i.ctx.intra.stats.__dict__) for i in row]
                         for row in job.manager.replicas])
    assert runs[True] == runs[False]


def test_pooling_recycles_task_objects(make_world, toggle_pooling):
    """Across same-shape sections the runtime reuses LaunchedTask
    objects and the cached TaskDef instead of reallocating."""
    toggle_pooling(True)
    world = make_world()
    seen_ids = []

    def prog(ctx, comm):
        x = np.arange(16, dtype=np.float64)
        rt = ctx.intra
        for _ in range(3):
            rt.section_begin()
            tid = rt.task_register(
                waxpby_task, [Tag.IN, Tag.IN, Tag.IN, Tag.IN, Tag.OUT],
                cost=waxpby_cost)
            seen_ids.append(tid)
            w = np.zeros(16)
            rt.task_launch(tid, [2.0, x, 0.0, x, w])
            rt.task_launch(tid, [3.0, x, 0.0, x, w])
            seen_ids.append(tuple(id(t) for t in rt._section.tasks))
            yield from rt.section_end()
        return True

    # degree=1: a single replica, so seen_ids is one runtime's history
    job = launch_intra_job(world, prog, 1, degree=1)
    world.run()
    tids = seen_ids[::2]
    objs = seen_ids[1::2]
    assert tids[0] == tids[1] == tids[2]        # TaskDef cached
    # the pool is LIFO, so object order may rotate — but the same two
    # objects must serve every section after the first
    assert set(objs[0]) == set(objs[1]) == set(objs[2])
    assert job.results()
    rt = job.manager.replicas[0][0].ctx.intra
    for task in rt._task_pool:
        assert task.vars == [] and not task.copies  # payloads released


def test_tdef_cache_bounded_under_closure_registration(make_world,
                                                       toggle_pooling):
    """Apps that register fresh closures every section (the
    ``make_spmv_task(matrix)`` pattern) must not grow the signature
    cache without bound — dead entries pin whatever the closure
    captured."""
    toggle_pooling(True)
    world = make_world()

    def prog(ctx, comm):
        x = np.arange(8, dtype=np.float64)
        rt = ctx.intra
        for _ in range(runtime_mod._TDEF_CACHE_MAX + 50):
            rt.section_begin()
            fn = lambda a: None           # noqa: E731 — fresh each section
            tid = rt.task_register(fn, [Tag.IN])
            rt.task_launch(tid, [x])
            yield from rt.section_end()
        return len(rt._tdef_cache)

    job = launch_intra_job(world, prog, 1, degree=1)
    world.run()
    (cache_size,) = [info.app_process.value
                     for row in job.manager.replicas for info in row]
    assert cache_size <= runtime_mod._TDEF_CACHE_MAX


def test_pooling_keeps_section_scoping_errors(make_world, toggle_pooling):
    """Launching an id not registered in the *current* section still
    raises, pooled or not (the per-section task_defs scope survives)."""
    from repro.intra import IntraError

    for pooled in (True, False):
        toggle_pooling(pooled)
        world = make_world()

        def prog(ctx, comm):
            rt = ctx.intra
            rt.section_begin()
            tid = rt.task_register(waxpby_task,
                                   [Tag.IN, Tag.IN, Tag.IN, Tag.IN, Tag.OUT])
            yield from rt.section_end()
            rt.section_begin()
            with pytest.raises(IntraError):
                rt.task_launch(tid + 1000, [])
            yield from rt.section_end()
            return True

        job = launch_intra_job(world, prog, 1)
        world.run()
        assert job.results()
