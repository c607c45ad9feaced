"""The intra-parallelization runtimes (paper §III-D, Algorithm 1).

Two implementations of one interface:

* :class:`LocalIntraRuntime` — every task executes locally.  Used for
  the native (no replication) runs **and** for classic state-machine
  replication (SDR-MPI mode), where each replica redundantly executes
  the whole section; this is exactly how the paper's baseline behaves.

* :class:`IntraRuntime` — work sharing between the replicas of one
  logical process.  Implements Algorithm 1 with the overlap optimisation
  of §V-A: reception requests for all remote updates are posted on entry
  to ``section_end``; each locally executed task posts its update sends
  immediately; everything completes in a single ``Waitall``; failures
  trigger local re-execution of the dead replica's unfinished tasks.

Both are attached to ``ctx.intra`` by the job launchers in
:mod:`repro.intra.api`, so application code is written once and runs in
all three modes (Open MPI / SDR-MPI / intra of the paper's figures).

Batched section execution
-------------------------
:class:`LocalIntraRuntime` sections are pure compute with no observable
effects between tasks (no update messages, no hooks), so instead of one
engine event + generator resume per task, the runtime emits one
*multi-segment compute descriptor* — the per-task roofline costs — to
:meth:`repro.mpi.world.ProcContext.compute_batch` and sleeps exactly
once for the whole section.  Wake times, ``compute_time`` and
``IntraStats`` accumulate with unchanged float arithmetic, so results
are bit-identical to the task-by-task path (asserted by
``tests/intra/test_batched_sections.py``).  Failure injection still
lands mid-batch at the exact scheduled time: a crash-stop kill closes
the process during the single wake, and segments past the crash point
never execute — the "split on interrupt" contract of ``compute_batch``.
The bit-identity guarantee is scoped to state observable from
*survivors* (and to failure-free runs in full); a killed replica's own
context accounting is not replayed segment by segment, and nothing in
the repo reads it (see ``compute_batch``'s docstring).

The task-by-task path is kept as the oracle: it runs whenever the
simulator takes its reference paths (``Simulator(fast=False)`` or a
trace hook installed — trace-based tests pin seed-exact per-event
streams; see :attr:`repro.simulate.Simulator.fast_paths`), and for
single-task sections (nothing to batch).

Split-on-send batching (work sharing)
-------------------------------------
:class:`IntraRuntime` — the work-sharing mode — *does* post observable
effects between segments: each locally executed task ships its updates
to the sibling replicas the moment it completes (§V-A overlap), and the
``isend`` post time determines everything downstream (injection time,
the ``update_injected`` crash window of Figure 2, when receivers apply).
So its sections batch with a refinement: the run of consecutive local
tasks is charged as multi-segment descriptors
(:meth:`repro.mpi.world.ProcContext.charge_batch` — kernel segments
interleaved with `inout`-restore memcpys), **split at every update
send** so each sending task ends its sub-batch and posts its isends
at the exact virtual time the task-by-task oracle would.  Tasks that
send nothing — IN-only tasks, or any task once the last sibling died —
coalesce with the tasks after them into a single wake.  Timing,
statistics and results are bit-identical
(``tests/intra/test_batched_worksharing.py`` proves it golden-trace
style, crash injection included); the oracle additionally runs whenever
a ``task_executed`` hook has subscribers or the hook bus is recording,
because those observe per-task protocol points mid-stretch.

Both runtimes ask one predicate, :meth:`IntraRuntimeBase._batchable`,
whether a section may batch.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from ..mpi.errors import RankFailure
from ..mpi.request import Request
from ..mpi.world import SEG_COMPUTE, SEG_MEMCPY
from ..simulate import ConditionError
from .scheduler import Scheduler, StaticBlockScheduler
from .stats import IntraStats
from .task import CopyStrategy, CostFn, LaunchedTask, TaskDef, Tag, zero_cost

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..mpi.communicator import BoundComm
    from ..mpi.world import ProcContext
    from ..replication.manager import ReplicationManager

#: update-message tag layout: tag = task_index * MAX_ARGS + arg_index
MAX_ARGS = 64

class IntraError(RuntimeError):
    """Misuse of the intra-parallelization API."""


class SectionState:
    """The mutable state between ``section_begin`` and ``section_end``."""

    def __init__(self) -> None:
        self.task_defs: _t.Dict[int, TaskDef] = {}
        self.tasks: _t.List[LaunchedTask] = []


class IntraRuntimeBase:
    """Shared API: section/task bookkeeping (Algorithm 1, lines 9–19)."""

    def __init__(self, ctx: "ProcContext"):
        self.ctx = ctx
        self.stats = IntraStats()
        self._section: _t.Optional[SectionState] = None
        self.section_index = -1
        #: monotonic task-type ids (unique across the runtime's lifetime)
        self._next_tdef_id = 0

    # ------------------------------------------------------------- API
    def section_begin(self) -> None:
        """``Intra_Section_begin`` — open a section (lines 9–12)."""
        if self._section is not None:
            raise IntraError("nested intra-parallel sections are not "
                             "allowed (Definition 1)")
        self._section = SectionState()
        self.section_index += 1
        self.stats.sections += 1

    def task_register(self, fn: _t.Callable[..., _t.Any],
                      tags: _t.Sequence[_t.Union[Tag, str]],
                      cost: CostFn = zero_cost) -> int:
        """``Intra_Task_register`` — declare a task type (lines 13–16).

        ``tags`` gives the intent of each of ``fn``'s positional
        arguments (:class:`~repro.intra.task.Tag` or the strings
        ``"in"/"out"/"inout"``); ``cost(*vars)`` returns the
        ``(flops, bytes_moved)`` the roofline model charges.

        ``cost`` must be a pure function of its arguments' *shapes*
        (sizes/dtypes), never of their values: batched section
        execution (see the module docstring) evaluates all costs of a
        section up front, before any task ``fn`` has run, so a
        value-dependent cost would charge different virtual time than
        the task-by-task oracle.  Every roofline model in
        :mod:`repro.kernels` satisfies this by construction.
        """
        sec = self._require_section("Intra_Task_register")
        norm = [t if isinstance(t, Tag) else Tag(t) for t in tags]
        if len(norm) > MAX_ARGS:
            raise IntraError(f"at most {MAX_ARGS} task arguments supported")
        self._next_tdef_id += 1
        tdef = TaskDef(self._next_tdef_id, fn, norm, cost)
        sec.task_defs[tdef.id] = tdef
        return tdef.id

    def task_launch(self, task_id: int, vars: _t.Sequence[_t.Any]) -> None:
        """``Intra_Task_launch`` — instantiate a task (lines 17–19)."""
        sec = self._require_section("Intra_Task_launch")
        try:
            tdef = sec.task_defs[task_id]
        except KeyError:
            raise IntraError(f"task id {task_id} was not registered in "
                             f"this section") from None
        sec.tasks.append(LaunchedTask(index=len(sec.tasks), tdef=tdef,
                                      vars=list(vars)))
        self.stats.tasks_launched += 1

    def section_end(self):
        """``Intra_Section_end`` — run the section protocol (generator:
        ``yield from runtime.section_end()``)."""
        sec = self._require_section("Intra_Section_end")
        self._section = None
        t0 = self.ctx.now
        with self.ctx.region("sections"):
            yield from self._run_section(sec)
        self.stats.section_time += self.ctx.now - t0

    def run_local(self, fn: _t.Callable[..., _t.Any],
                  vars: _t.Sequence[_t.Any],
                  cost: CostFn = zero_cost):
        """Execute a kernel locally, outside any section (generator).

        Used for computation the application does *not* intra-parallelize
        (e.g. waxpby in the paper's Figure 5b runs, or MiniGhost's
        stencil): every replica executes it redundantly, charging the
        same roofline cost as a section task would.
        """
        if self._section is not None:
            raise IntraError("run_local inside an open section; put the "
                             "kernel in the section or close it first")
        flops, nbytes = cost(*vars)
        if flops or nbytes:
            yield self.ctx.compute(flops=flops, bytes_moved=nbytes)
        fn(*vars)

    # ----------------------------------------------------------- helpers
    def _require_section(self, what: str) -> SectionState:
        if self._section is None:
            raise IntraError(f"{what} called outside an intra-parallel "
                             f"section")
        return self._section

    def _run_section(self, sec: SectionState):
        raise NotImplementedError  # pragma: no cover

    def _batchable(self, tasks: _t.Sequence[LaunchedTask]) -> bool:
        """Whether ``tasks`` may run batched rather than task by task.

        The task-by-task oracle runs when the simulator takes its
        reference paths (``fast=False`` or a trace hook: see
        :attr:`~repro.simulate.Simulator.fast_paths`) and when there is
        nothing to batch (fewer than two tasks).
        """
        return len(tasks) >= 2 and self.ctx.sim.fast_paths

    def _execute_fn(self, task: LaunchedTask):
        """Charge the roofline cost and run the task function (real
        numpy arithmetic — replica state actually changes)."""
        flops, nbytes = task.tdef.cost(*task.vars)
        if flops or nbytes:
            before = self.ctx.now
            yield self.ctx.compute(flops=flops, bytes_moved=nbytes)
            self.stats.task_compute_time += self.ctx.now - before
        task.tdef.fn(*task.vars)
        self.stats.tasks_executed += 1


class LocalIntraRuntime(IntraRuntimeBase):
    """Execute every task locally (native and classic-replication
    modes): sections degenerate to plain sequential computation.

    When :meth:`_batchable` allows it, the whole section is charged as
    one multi-segment compute descriptor — a single engine wake instead
    of one event + generator resume per task (see the module docstring
    for the exact-equivalence argument).
    """

    def _run_section(self, sec: SectionState):
        tasks = sec.tasks
        if not self._batchable(tasks):
            # oracle path: one engine event per task (also keeps
            # trace-based tests on the seed-exact per-event stream)
            for task in tasks:
                yield from self._execute_fn(task)
                task.executed_locally = True
                task.done = True
            return
        ctx = self.ctx
        stats = self.stats
        # Roofline costs are pure functions of argument *shapes*, so
        # evaluating them up front (before any task fn mutates data)
        # matches the interleaved oracle path.
        costs = [task.tdef.cost(*task.vars) for task in tasks]
        t_prev = ctx.sim.now
        event, stamps = ctx.compute_batch(costs)
        if event is not None:
            yield event
        # a kill during the wake lands here as GeneratorExit: tasks past
        # the crash point never execute (split on interrupt)
        for task, (flops, nbytes), stamp in zip(tasks, costs, stamps):
            if flops or nbytes:
                stats.task_compute_time += stamp - t_prev
                t_prev = stamp
            task.tdef.fn(*task.vars)
            stats.tasks_executed += 1
            task.executed_locally = True
            task.done = True


class IntraRuntime(IntraRuntimeBase):
    """Work-sharing runtime (Algorithm 1 + §V-A overlap)."""

    def __init__(self, ctx: "ProcContext", manager: "ReplicationManager",
                 logical_rank: int, replica_id: int,
                 replica_comm: "BoundComm",
                 scheduler: _t.Optional[Scheduler] = None,
                 copy_strategy: CopyStrategy = CopyStrategy.LAZY,
                 task_overhead: float = 0.5e-6):
        super().__init__(ctx)
        self.manager = manager
        self.lrank = logical_rank
        self.rid = replica_id
        self.rcomm = replica_comm  # replica-set communicator (updates)
        self.scheduler = scheduler or StaticBlockScheduler()
        self.copy_strategy = copy_strategy
        #: CPU cost per task for runtime bookkeeping (scheduling, posting
        #: the update sends/receives).  This is the "synchronization
        #: between replicas" overhead §V-B cites against fine task
        #: granularity; the native/SDR paths run the unmodified kernels
        #: and pay nothing.
        self.task_overhead = task_overhead

    # ------------------------------------------------------------ hooks
    def _emit(self, name: str, **kw: _t.Any) -> None:
        self.manager.hooks.emit(name, logical_rank=self.lrank,
                                replica_id=self.rid,
                                section=self.section_index, **kw)

    # --------------------------------------------------------- protocol
    def _alive_rids(self) -> _t.List[int]:
        return [r.replica_id
                for r in self.manager.alive_replicas(self.lrank)]

    def _run_section(self, sec: SectionState):
        ctx = self.ctx
        self._emit("section_enter", n_tasks=len(sec.tasks))
        if not sec.tasks:
            self._emit("section_exit", n_tasks=0)
            return
        # -- schedule (Algorithm 1, line 24; deterministic across
        #    replicas: pure function of task list + live replica set)
        alive = self._alive_rids()
        assignment = self.scheduler.assign(sec.tasks, alive)
        for task, rid in zip(sec.tasks, assignment):
            task.executor = rid
        my_tasks = [t for t in sec.tasks if t.executor == self.rid]
        remote_tasks = [t for t in sec.tasks if t.executor != self.rid]
        if self.task_overhead:
            yield ctx.sleep(self.task_overhead * len(sec.tasks))

        # -- inout protection copies
        copy_bytes = 0
        if self.copy_strategy is CopyStrategy.EAGER:
            # §III-C: copy at instantiation time, on every replica.
            for task in sec.tasks:
                copy_bytes += task.take_copies(task.tdef.inout_args)
        elif self.copy_strategy is CopyStrategy.LAZY:
            # Algorithm 1, lines 37–38: receivers copy before receiving.
            for task in remote_tasks:
                copy_bytes += task.take_copies(task.tdef.inout_args)
        if copy_bytes:
            self.stats.copy_count += 1
            self.stats.copy_bytes += copy_bytes
            before = ctx.now
            yield ctx.memcpy(copy_bytes)
            self.stats.copy_time += ctx.now - before

        # -- §V-A overlap: post reception requests for ALL remote
        #    updates on section entry...
        recv_reqs: _t.List[Request] = []
        for task in remote_tasks:
            recv_reqs.extend(self._post_update_recvs(task, task.executor))
        # -- ...execute local tasks in launch order, posting each task's
        #    update sends as soon as it completes...
        send_reqs: _t.List[Request] = []
        if self._batchable(my_tasks):
            send_reqs = yield from self._execute_tasks_batched(my_tasks)
        else:
            for task in my_tasks:
                send_reqs.extend((yield from self._execute_task(task)))
        t_local_done = ctx.now
        # -- ...and complete everything with one Waitall, recovering
        #    from replica failures as they surface.
        yield from self._waitall_with_recovery(sec, recv_reqs + send_reqs)
        self.stats.exposed_update_time += ctx.now - t_local_done
        self._emit("section_exit", n_tasks=len(sec.tasks))

    # ------------------------------------------------------ local tasks
    def _batchable(self, my_tasks: _t.Sequence[LaunchedTask]) -> bool:
        """Whether this replica's local run may batch (split on send).

        The base conditions (reference paths, nothing to batch) plus one
        of its own: a subscriber to the per-task ``task_executed`` hook — or a
        recording hook bus — observes protocol points *inside* the local
        stretch, whose interleaving only the task-by-task path
        reproduces exactly.  ``update_injected`` subscribers are fine
        either way: that hook fires from a transfer-completion callback
        whose time is fixed by the ``isend`` post time, which
        split-on-send keeps exact.
        """
        if not super()._batchable(my_tasks):
            return False
        hooks = self.manager.hooks
        return not (hooks.record or hooks.has_handlers("task_executed"))

    def _has_live_peer(self) -> bool:
        return any(r.replica_id != self.rid
                   for r in self.manager.alive_replicas(self.lrank))

    def _execute_task(self, task: LaunchedTask):
        """Algorithm 1, ``execute_task`` (lines 29–35): restore inout
        copies, run, post updates to all other correct replicas."""
        restored = task.restore_copies()
        if restored:
            before = self.ctx.now
            yield self.ctx.memcpy(restored)
            self.stats.copy_time += self.ctx.now - before
        yield from self._execute_fn(task)
        task.executed_locally = True
        task.done = True
        task.applied.update(task.tdef.update_args)
        self._emit("task_executed", task=task.index)
        return self._post_update_sends(task)

    def _post_update_sends(self, task: LaunchedTask) -> _t.List[Request]:
        """Post this task's update messages to every *currently* live
        sibling (Algorithm 1, lines 33–35).  Shared by the task-by-task
        and batched paths; the batched path calls it at exactly the
        virtual time the oracle would (split on send), so re-reading the
        live set here keeps mid-stretch sibling deaths exact too."""
        reqs: _t.List[Request] = []
        for rid in self._alive_rids():
            if rid == self.rid:
                continue
            for arg in task.tdef.update_args:
                req = self.rcomm.isend(task.vars[arg], dest=rid,
                                       tag=self._update_tag(task, arg))
                self._watch_injection(task, arg, req)
                self.stats.update_msgs_sent += 1
                self.stats.update_bytes_sent += int(task.vars[arg].nbytes)
                reqs.append(req)
        return reqs

    def _execute_tasks_batched(self, my_tasks: _t.Sequence[LaunchedTask]):
        """Run the replica's local tasks as multi-segment charge
        descriptors, **splitting the batch at every update send**.

        Planning walks the launch-order run of local tasks, collecting
        each task's segments — the `inout`-restore memcpy (if any
        protection copy exists) followed by the roofline kernel — and
        cuts the sub-batch *after* the first task that will post update
        messages: its ``isend``\\ s must hit the transport at the exact
        virtual time the task-by-task oracle posts them, because
        everything downstream (injection time, the ``update_injected``
        crash window of Figure 2, receiver apply times) is a function of
        the post time.  Each sub-batch is then one
        :meth:`~repro.mpi.world.ProcContext.charge_batch` wake instead
        of up to two engine events per task.

        All side effects — restores, task functions, hook emissions,
        send posts — are deferred to the sub-batch wake and run in
        oracle order; per-task statistics replay from the returned
        stamps with unchanged float arithmetic, so results are
        bit-identical.  A kill landing mid-wake behaves like
        ``compute_batch``'s "split on interrupt": the sub-batch's side
        effects never run, and none were observable before the wake —
        its only sends *are* the split point.  Mid-stretch sibling
        deaths are exact because :meth:`_post_update_sends` re-reads the
        live set at post time; siblings cannot *join* mid-section
        (restart handovers happen at step boundaries), so a "sends
        nothing" plan never under-posts.
        """
        ctx = self.ctx
        sim = ctx.sim
        stats = self.stats
        send_reqs: _t.List[Request] = []
        n = len(my_tasks)
        start = 0
        while start < n:
            segments: _t.List[_t.Tuple[int, float, float]] = []
            plan: _t.List[_t.Tuple[LaunchedTask, int, int]] = []
            sender: _t.Optional[LaunchedTask] = None
            stop = start
            while stop < n:
                task = my_tasks[stop]
                restore_seg = -1
                restore_bytes = task.restore_nbytes()
                if restore_bytes:
                    restore_seg = len(segments)
                    segments.append((SEG_MEMCPY, restore_bytes, 0.0))
                flops, nbytes = task.tdef.cost(*task.vars)
                compute_seg = -1
                if flops or nbytes:
                    compute_seg = len(segments)
                    segments.append((SEG_COMPUTE, flops, nbytes))
                plan.append((task, restore_seg, compute_seg))
                stop += 1
                if task.tdef.update_args and self._has_live_peer():
                    sender = task
                    break  # split on send
            t_prev = sim.now
            event, stamps = ctx.charge_batch(segments)
            if event is not None:
                yield event
            # a kill during the wake lands here as GeneratorExit: the
            # sub-batch's deferred effects never run — and none were due
            # before the wake (its sends are exactly the split point)
            for task, restore_seg, compute_seg in plan:
                if restore_seg >= 0:
                    task.restore_copies()
                    stats.copy_time += stamps[restore_seg] - t_prev
                    t_prev = stamps[restore_seg]
                if compute_seg >= 0:
                    stats.task_compute_time += stamps[compute_seg] - t_prev
                    t_prev = stamps[compute_seg]
                task.tdef.fn(*task.vars)
                stats.tasks_executed += 1
                task.executed_locally = True
                task.done = True
                task.applied.update(task.tdef.update_args)
                self._emit("task_executed", task=task.index)
            if sender is not None:
                send_reqs.extend(self._post_update_sends(sender))
            start = stop
        return send_reqs

    def _update_tag(self, task: LaunchedTask, arg: int) -> int:
        # The section index is baked into the tag so a stale update from
        # a failure-window schedule disagreement can never match a later
        # section's receive (replicas traverse sections in the same
        # deterministic order, so the section counter agrees everywhere).
        return ((self.section_index * 1_000_000)
                + task.index * MAX_ARGS + arg)

    def _watch_injection(self, task: LaunchedTask, arg: int,
                         req: Request) -> None:
        """Emit the ``update_injected`` hook when the update message hits
        the wire — the precise crash point of the Figure 2 scenario."""
        idx = task.index

        def cb(_ev) -> None:
            self._emit("update_injected", task=idx, arg=arg)

        if not req.event.processed:
            req.event.add_callback(cb)

    # ----------------------------------------------------- remote tasks
    def _post_update_recvs(self, task: LaunchedTask,
                           executor_rid: int) -> _t.List[Request]:
        """Algorithm 1, ``receive_task_update`` (lines 36–42), split into
        its post-receives half; application happens in completion
        callbacks so transfers overlap local execution (§V-A)."""
        reqs = []
        for arg in task.tdef.update_args:
            req = self.rcomm.irecv(source=executor_rid,
                                   tag=self._update_tag(task, arg))
            self._attach_apply(task, arg, req)
            reqs.append(req)
        return reqs

    def _attach_apply(self, task: LaunchedTask, arg: int,
                      req: Request) -> None:
        def cb(ev) -> None:
            if ev.exception is not None:
                return  # failure handled by the recovery path
            if task.done:
                return  # task already re-executed locally; stale update
            payload, _status = ev.value
            self._apply_update(task, arg, payload)

        assert not req.event.processed
        req.event.add_callback(cb)

    def _apply_update(self, task: LaunchedTask, arg: int,
                      payload: np.ndarray) -> None:
        if self.copy_strategy is CopyStrategy.ATOMIC:
            task.buffered[arg] = payload
            if set(task.buffered) == set(task.tdef.update_args):
                for a, data in task.buffered.items():
                    np.copyto(task.vars[a], data)
                    task.applied.add(a)
                    self.stats.update_bytes_applied += int(data.nbytes)
                    self.stats.update_msgs_applied += 1
                task.buffered.clear()
                task.done = True
            return
        np.copyto(task.vars[arg], payload)
        task.applied.add(arg)
        self.stats.update_msgs_applied += 1
        self.stats.update_bytes_applied += int(payload.nbytes)
        if task.applied >= set(task.tdef.update_args):
            task.done = True

    # -------------------------------------------------------- recovery
    def _waitall_with_recovery(self, sec: SectionState,
                               reqs: _t.List[Request]):
        """Complete all update transfers; on replica failure, re-execute
        the dead executor's unfinished tasks locally.

        This is the coordination-free variant of Algorithm 1's recovery
        loop (lines 21–28): instead of re-scheduling a dead replica's
        tasks across survivors (which requires survivors to agree on who
        re-executes), every replica lacking a task's full update simply
        executes that task itself — the option §III-B2 notes as "execute
        the task locally".  For the paper's replication degree of 2 the
        two strategies coincide: there is a single survivor.
        """
        outstanding = list(reqs)
        while outstanding:
            cond = self.ctx.sim.all_of([r.event for r in outstanding])
            try:
                yield cond
                return
            except ConditionError as err:
                if not isinstance(err.cause, RankFailure):
                    raise
                self.stats.recoveries += 1
                self._emit("recovery", n_outstanding=len(outstanding))
                yield from self._reexecute_missing(sec)
                outstanding = [r for r in outstanding
                               if not r.event.triggered]

    def _reexecute_missing(self, sec: SectionState):
        """Execute locally every task whose executor died before this
        replica obtained the full update."""
        alive = set(self._alive_rids())
        for task in sec.tasks:
            if task.done or task.executor in alive:
                continue
            restored = task.restore_copies()
            if restored:
                before = self.ctx.now
                yield self.ctx.memcpy(restored)
                self.stats.copy_time += self.ctx.now - before
            elif (self.copy_strategy is CopyStrategy.NONE
                  and task.applied and task.tdef.inout_args):
                # Deliberately unprotected: this re-execution reads
                # partially updated inout state — the incorrect run of
                # Figure 2b.  (No restore possible; fall through.)
                pass
            task.buffered.clear()
            yield from self._execute_fn(task)
            task.executed_locally = True
            task.done = True
            task.applied.update(task.tdef.update_args)
            self.stats.tasks_reexecuted += 1
            self._emit("task_reexecuted", task=task.index)
