"""Batched-dispatch benchmark → the ``batched_dispatch`` leg of
``benchmarks/BENCH_sim_core.json``.

PR 3 made batch execution a first-class engine concept:
:class:`repro.intra.LocalIntraRuntime` charges a whole section as one
multi-segment compute descriptor (one engine event instead of one per
task).  Section batching is an order-exact optimization — results are
bit-identical to task-by-task dispatch on the PR 1 fast path — so this
benchmark measures pure dispatch speed:

* **section dispatch microbenchmark** — ranks running back-to-back
  sections of zero-work tasks with nonzero roofline costs, i.e. nothing
  but event dispatch, generator resumes and section bookkeeping.  The
  acceptance gate asserts section batching is ≥ 1.3× faster than the
  PR 1 fast path (``Simulator.run`` + task-by-task sections).
* **work-sharing section microbenchmark** (PR 4) — the same shape
  through the *work-sharing* ``IntraRuntime`` (2 replicas of one
  logical rank splitting each section): split-on-send batching
  coalesces each replica's run of silent tasks into one wake, and
  section-shape pooling recycles the ``LaunchedTask``/``TaskDef``
  bookkeeping.  Gate: ≥ 1.3× vs the PR 3 state (task-by-task
  work-sharing sections, per-section allocation).
* **fig5b warm-serial** — the end-to-end Figure 5b sweep, batched vs
  PR 1 dispatch, including a bit-identity assertion on every result row
  and an improvement gate against the PR 1 recording of
  ``optimized_serial_warm_s`` (pinned below, same container family).

Run via ``make bench`` (runs after ``test_perf_engine.py``, which
rewrites the JSON; this file merges its leg into it).
"""

import gc
import json
import pathlib
import statistics
import time
import typing as _t

import numpy as np

import repro.intra.runtime as runtime_mod
from repro.experiments.fig5 import fig5b
from repro.intra import (Tag, launch_intra_job, launch_native_job,
                         set_section_batching, set_task_pooling)
from repro.mpi import MpiWorld
from repro.netmodel import GRID5000_MACHINE, GRID5000_NETWORK, Cluster

BENCH_JSON = pathlib.Path(__file__).parent / "BENCH_sim_core.json"

#: section microbenchmark shape: PROCS ranks × SECTIONS × TASKS
PROCS = 2
SECTIONS = 3000
TASKS = 16

#: work-sharing microbenchmark shape: one logical rank, two replicas
#: splitting WS_SECTIONS × WS_TASKS silent tasks (more tasks per
#: section than the native shape — split-on-send coalescing and task
#: pooling both scale with the per-section run length)
WS_LOGICAL = 2
WS_SECTIONS = 1000
WS_TASKS = 32

#: ``fig5b_sweep.optimized_serial_warm_s`` as recorded by
#: ``test_perf_engine.py`` at the PR 1/PR 2 state of the tree (commit
#: 14384c8, same container family, 2026-07-30).  The improvement gate
#: below asserts the batched+vectorized tree beats it with margin.
PR1_RECORDED_WARM_S = 0.7101
#: the fig5b PR-1-dispatch leg (``fig5b_warm_serial.pr1_dispatch_s``)
#: measured by *this* file in the same 2026-07-30 session.  The gate
#: scales PR1_RECORDED_WARM_S by (pr1-dispatch-now / this), so the
#: improvement assertion tracks the host's speed — an absolute pinned
#: second count fails on a slower box and passes regressions on a
#: faster one (the same calibration ``test_perf_engine.py`` applies to
#: its seed gate via ``PINNED_BASELINE_S``).
PINNED_PR1_DISPATCH_S = 0.5707

FIG5B_POINTS = (8, 16)


def _noop_task(buf):
    pass


def _task_cost(buf):
    # nonzero roofline cost => every task charges virtual time, but no
    # numpy work: the benchmark measures dispatch, not kernels
    return (4096.0, 4096.0)


def _section_program(ctx, comm, n_sections, n_tasks):
    buf = np.zeros(8)
    rt = ctx.intra
    for _ in range(n_sections):
        rt.section_begin()
        tid = rt.task_register(_noop_task, [Tag.IN], cost=_task_cost)
        for _ in range(n_tasks):
            rt.task_launch(tid, [buf])
        yield from rt.section_end()
    return None


def _time_section_workload(batched: bool) -> float:
    prev_sections = set_section_batching(batched)
    try:
        world = MpiWorld(Cluster(1, GRID5000_MACHINE), GRID5000_NETWORK)
        launch_native_job(world, _section_program, PROCS,
                          args=(SECTIONS, TASKS))
        t0 = time.perf_counter()
        world.run()
        return time.perf_counter() - t0
    finally:
        set_section_batching(prev_sections)


def _time_worksharing_workload(optimized: bool) -> float:
    """The PR 4 gate workload: work-sharing sections of silent (IN-only)
    costed tasks.  ``optimized`` enables split-on-send batching *and*
    section-shape pooling; the baseline is the PR 3 state — task-by-task
    `IntraRuntime` sections with per-section object allocation."""
    prev_sections = set_section_batching(optimized)
    prev_pooling = set_task_pooling(optimized)
    try:
        world = MpiWorld(Cluster(WS_LOGICAL * 2, GRID5000_MACHINE),
                         GRID5000_NETWORK)
        launch_intra_job(world, _section_program, WS_LOGICAL,
                         args=(WS_SECTIONS, WS_TASKS))
        t0 = time.perf_counter()
        world.run()
        return time.perf_counter() - t0
    finally:
        set_section_batching(prev_sections)
        set_task_pooling(prev_pooling)


def _time_fig5b_pair(repeats: int = 5) -> _t.Tuple[float, float]:
    """Median wall time of the warm fig5b sweep under PR 1 dispatch
    (task-by-task sections) and under section batching.  Samples are interleaved with alternating
    order (AB/BA/AB/...) so noise and drift on the 1-CPU container hit
    both configurations equally."""
    prev_sections = set_section_batching(True)
    pr1, batched = [], []

    def one(batch: bool, samples: _t.List[float]) -> None:
        set_section_batching(batch)
        gc.collect()
        t0 = time.perf_counter()
        fig5b(process_counts=FIG5B_POINTS)
        samples.append(time.perf_counter() - t0)

    try:
        for i in range(repeats):
            pair = ((False, pr1), (True, batched))
            for batch, samples in (pair if i % 2 == 0 else pair[::-1]):
                one(batch, samples)
        return statistics.median(pr1), statistics.median(batched)
    finally:
        set_section_batching(prev_sections)


def _fig5b_rows(batched: bool):
    prev_sections = set_section_batching(batched)
    try:
        return fig5b(process_counts=FIG5B_POINTS)
    finally:
        set_section_batching(prev_sections)


def test_bench_batched_dispatch(save_table):
    assert runtime_mod.BATCH_SECTIONS and runtime_mod.POOL_TASKS, \
        "section batching + task pooling must be the default configuration"

    # ---- bit-identity: batched == PR 1 dispatch, row for row --------
    rows_batched = _fig5b_rows(batched=True)
    rows_pr1 = _fig5b_rows(batched=False)
    assert len(rows_batched) == len(rows_pr1)
    for rb, ru in zip(rows_batched, rows_pr1):
        assert rb == ru, (
            f"batched dispatch changed a fig5b result: {rb} != {ru}")

    # ---- section dispatch microbenchmark (the acceptance gate) ------
    # interleaved sampling: container noise hits both configurations
    sec_pr1_samples, sec_batched_samples = [], []
    for _ in range(3):
        sec_pr1_samples.append(_time_section_workload(batched=False))
        sec_batched_samples.append(_time_section_workload(batched=True))
    pr1_section = statistics.median(sec_pr1_samples)
    batched_section = statistics.median(sec_batched_samples)
    section_speedup = pr1_section / batched_section

    # ---- work-sharing section microbenchmark (the PR 4 gate) --------
    ws_pr3_samples, ws_opt_samples = [], []
    for _ in range(3):
        ws_pr3_samples.append(_time_worksharing_workload(optimized=False))
        ws_opt_samples.append(_time_worksharing_workload(optimized=True))
    pr3_worksharing = statistics.median(ws_pr3_samples)
    opt_worksharing = statistics.median(ws_opt_samples)
    worksharing_speedup = pr3_worksharing / opt_worksharing

    # ---- fig5b warm serial ------------------------------------------
    fig5b_pr1, fig5b_batched = _time_fig5b_pair()
    # calibrate the pinned PR 1 recording to this host's current speed
    pr1_recorded_here = PR1_RECORDED_WARM_S * (fig5b_pr1
                                               / PINNED_PR1_DISPATCH_S)

    leg = {
        "section_microbench": {
            "workload": f"{PROCS} ranks x {SECTIONS} sections x "
                        f"{TASKS} zero-work costed tasks",
            "pr1_dispatch_s": round(pr1_section, 4),
            "batched_s": round(batched_section, 4),
            "speedup": round(section_speedup, 3),
        },
        "worksharing_section_microbench": {
            "workload": f"{WS_LOGICAL} logical ranks x 2 replicas x "
                        f"{WS_SECTIONS} work-shared sections x "
                        f"{WS_TASKS} silent costed tasks",
            "pr3_taskbytask_s": round(pr3_worksharing, 4),
            "split_on_send_pooled_s": round(opt_worksharing, 4),
            "speedup": round(worksharing_speedup, 3),
        },
        "fig5b_warm_serial": {
            "pr1_dispatch_s": round(fig5b_pr1, 4),
            "batched_s": round(fig5b_batched, 4),
            "speedup": round(fig5b_pr1 / fig5b_batched, 3),
            "pr1_recorded_warm_s": PR1_RECORDED_WARM_S,
            "pr1_recorded_host_calibrated_s": round(pr1_recorded_here, 4),
            "improvement_vs_pr1_recording": round(
                pr1_recorded_here / fig5b_batched, 3),
            "results_bit_identical": True,
        },
    }
    # merge into the JSON test_perf_engine.py rewrites (make bench runs
    # the two files in that order)
    payload = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() \
        else {}
    payload["batched_dispatch"] = leg
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    lines = ["Batched-dispatch benchmark (BENCH_sim_core.json)",
             "metric                        | value",
             "------------------------------+----------------",
             f"section microbench PR1        | {pr1_section:>10.3f} s",
             f"section microbench batched    | {batched_section:>10.3f} s",
             f"section dispatch speedup      | {section_speedup:>10.2f} x",
             f"work-sharing microbench PR3   | {pr3_worksharing:>10.3f} s",
             f"work-sharing split-on-send    | {opt_worksharing:>10.3f} s",
             f"work-sharing section speedup  | {worksharing_speedup:>10.2f} x",
             f"fig5b warm PR1 dispatch       | {fig5b_pr1:>10.3f} s",
             f"fig5b warm batched            | {fig5b_batched:>10.3f} s",
             f"fig5b vs PR1 recording        | "
             f"{pr1_recorded_here / fig5b_batched:>10.2f} x"]
    save_table("bench_batched_dispatch", "\n".join(lines))

    # acceptance gate: >= 1.3x on the batched-dispatch microbenchmark
    assert section_speedup >= 1.3, (
        f"batched section dispatch is only {section_speedup:.2f}x faster "
        f"than the PR 1 fast path (need >= 1.3x)")
    # acceptance gate: >= 1.3x on the work-sharing section
    # microbenchmark (split-on-send batching + section-shape pooling
    # vs the PR 3 task-by-task work-sharing path)
    assert worksharing_speedup >= 1.3, (
        f"split-on-send + pooling is only {worksharing_speedup:.2f}x "
        f"faster than the PR 3 task-by-task work-sharing path "
        f"(need >= 1.3x)")
    # batching must not regress the end-to-end sweep (parity within the
    # 1-CPU container's noise floor; the dispatch win is concentrated in
    # the microbenchmarks, the end-to-end win in the vectorized kernels)
    assert fig5b_pr1 / fig5b_batched >= 0.90, (
        f"batched dispatch slowed fig5b: {fig5b_pr1 / fig5b_batched:.2f}x")
    # ...and the tree must beat the PR 1 warm-serial recording, with
    # the pinned time scaled to this host's speed (PINNED_PR1_DISPATCH_S)
    assert pr1_recorded_here / fig5b_batched >= 1.05, (
        f"fig5b warm serial ({fig5b_batched:.3f}s) does not improve on "
        f"the host-calibrated PR 1 recording ({pr1_recorded_here:.3f}s)")
