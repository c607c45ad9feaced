"""The simulated MPI "machine": processes, transport, job launcher.

:class:`MpiWorld` owns the simulator, the cluster/network models and all
endpoints.  A physical process is created with :meth:`MpiWorld.spawn`,
which returns a :class:`ProcContext` — the handle a rank program uses to
compute (charging virtual time through the roofline model) and to
communicate (through :class:`~repro.mpi.communicator.BoundComm`).

The convenience :func:`run_mpi_job` covers the common non-replicated
case: launch ``n`` ranks of one program over ``MPI_COMM_WORLD``, run to
completion, return each rank's result.

Message transport
-----------------
:meth:`MpiWorld.post_send` moves a message in four steps: a zero-delay
start, the sender's CPU overhead ``o_send``, one
:meth:`~repro.netmodel.Network.transfer` through the NICs, then the
receiver's ``o_recv`` and the delivery into the destination mailbox.
Normally one ``_Send`` event per message walks these steps as a
callback state machine.  When the simulator runs its reference loop
(``Simulator(fast=False)``) or has a trace hook installed — that is,
when ``Simulator.fast_paths`` is false — a ``_transfer`` process runs
them instead, over the reference
:meth:`~repro.netmodel.Network.transfer_steps` sub-routine — the
seed's transport, kept as the oracle.  Both put entries on the event
heap at the same points, times and order (the contract is spelled out
in :mod:`repro.netmodel.network`); the state machine only leaves out
the entries whose processing does nothing, the transfer process's own
completion or kill event.  So results are identical on both paths, the
golden trace stays pinned to the seed's event stream, and
``tests/simulate/test_backend_differential.py`` compares the two on
whole scenarios.
"""

from __future__ import annotations

import typing as _t

from ..netmodel import Cluster, Network, NetworkSpec, Slot, block_placement
from ..simulate import Event, Process, Simulator
from .communicator import BoundComm, Communicator
from .endpoint import Endpoint
from .errors import MpiError
from .message import Envelope
from .request import Request

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..netmodel.network import _Transfer

#: segment kinds for :meth:`ProcContext.charge_batch` descriptors
SEG_COMPUTE = 0
SEG_MEMCPY = 1


class ProcContext:
    """Execution context of one simulated physical process.

    Rank programs are generator functions taking the context as first
    argument::

        def program(ctx, comm):
            yield ctx.compute(flops=1e6, bytes_moved=8e6)
            yield from comm.send(data, dest=1)

    Attributes
    ----------
    endpoint:
        The process's message engine.
    slot:
        Where the process runs (node, core).
    timers:
        Wall-clock time accumulated per named region via :meth:`region`
        (used to produce the "sections vs others" split of Figure 6).
    """

    def __init__(self, world: "MpiWorld", endpoint: Endpoint, slot: Slot,
                 name: str):
        self.world = world
        self.sim: Simulator = world.sim
        self.endpoint = endpoint
        self.slot = slot
        self.name = name
        self.process: _t.Optional[Process] = None
        self.timers: _t.Dict[str, float] = {}
        self.compute_time = 0.0
        #: intra-parallelization runtime, attached by the job launchers
        #: in :mod:`repro.intra.api` (None for raw MPI jobs)
        self.intra: _t.Optional[_t.Any] = None

    # ------------------------------------------------------------ compute
    def compute(self, flops: float = 0.0, bytes_moved: float = 0.0,
                active_cores: _t.Optional[int] = None) -> Event:
        """Charge roofline time for a kernel; ``yield`` the result.

        The descriptive label is only attached when a trace hook is
        installed — labelling is for trace assertions, and the f-string
        plus unpooled allocation are measurable on the compute-heavy
        hot path.
        """
        dt = self.world.cluster.machine.kernel_time(flops, bytes_moved,
                                                    active_cores)
        self.compute_time += dt
        if self.sim._trace is None:
            return self.sim.sleep(dt)
        return self.sim.timeout(dt, label=f"compute:{self.name}")

    def compute_batch(self, costs: _t.Sequence[_t.Tuple[float, float]],
                      active_cores: _t.Optional[int] = None
                      ) -> _t.Tuple[_t.Optional[Event], _t.List[float]]:
        """Charge a *sequence* of roofline kernel segments as ONE wake.

        ``costs`` is the multi-segment compute descriptor: one
        ``(flops, bytes_moved)`` pair per uninterrupted kernel segment.
        Instead of sleeping once per segment (N engine events, N
        generator resumes), the per-segment roofline times are
        accumulated with *exactly* the float arithmetic a chain of
        :meth:`compute` calls would have performed — ``t = t + dt`` per
        segment, ``compute_time += dt`` in the same order — and a single
        :meth:`~repro.simulate.Simulator.sleep_until` wake is scheduled
        for the final timestamp.  End times, accumulated timers and
        therefore all simulation results are bit-identical to the
        segment-by-segment path.

        Returns ``(event, stamps)``: ``event`` is the single wake to
        ``yield`` (``None`` when every segment is zero-cost — the
        sequential path would not have slept either), and ``stamps[i]``
        is the virtual time at which segment ``i`` completes, so callers
        can replay per-segment accounting (e.g.
        ``IntraStats.task_compute_time``) with unchanged arithmetic.

        Crash injection composes ("split on interrupt"): a kill
        scheduled mid-batch terminates the process at the exact
        scheduled virtual time — the single wake is simply abandoned.
        The equivalence guarantee covers everything *observable from
        surviving processes* (their clocks, results, timers, stats).
        The dead process's own context is NOT replayed segment by
        segment: its ``compute_time`` was charged for the whole batch
        up front and none of the batch's side effects ran, whereas the
        segment-by-segment path would have stopped partway.  Nothing in
        the repo aggregates a dead replica's context (the scenario
        runner reads surviving replicas only) — callers that want to
        must not batch.  Callers must also only batch stretches with no
        observable effects *between* segments (no sends, no hooks); see
        :class:`repro.intra.runtime.LocalIntraRuntime`.
        """
        machine = self.world.cluster.machine
        kernel_time = machine.kernel_time
        sim = self.sim
        t = sim.now
        compute_time = self.compute_time
        stamps: _t.List[float] = []
        append = stamps.append
        for flops, bytes_moved in costs:
            if flops or bytes_moved:
                dt = kernel_time(flops, bytes_moved, active_cores)
                compute_time += dt
                t = t + dt
            append(t)
        self.compute_time = compute_time
        if t > sim.now:
            return sim.sleep_until(t), stamps
        return None, stamps

    def charge_batch(self, segments: _t.Sequence[_t.Tuple[int, float, float]],
                     active_cores: _t.Optional[int] = None
                     ) -> _t.Tuple[_t.Optional[Event], _t.List[float]]:
        """:meth:`compute_batch` generalized to mixed segment kinds.

        ``segments`` is a sequence of ``(kind, a, b)`` descriptors:
        ``(SEG_COMPUTE, flops, bytes_moved)`` charges what one
        :meth:`compute` call would, ``(SEG_MEMCPY, nbytes, 0.0)`` what
        one :meth:`memcpy` call would.  The work-sharing runtime needs
        the mix because a local task may restore an `inout` protection
        copy (a memcpy) immediately before its kernel segment; batching
        the stretch as one wake must accumulate both with the exact
        float arithmetic of the interleaved call chain (``t = t + dt``
        per segment, ``compute_time += dt`` in the same order).

        Same return contract and same "split on interrupt" /
        observability caveats as :meth:`compute_batch` — and one more
        for callers: anything observable *between* segments (an update
        send, a subscribed protocol hook) must terminate the batch so
        it happens at its exact segment timestamp.  That split-on-send
        protocol lives in
        :meth:`repro.intra.runtime.IntraRuntime._execute_tasks_batched`.
        """
        machine = self.world.cluster.machine
        kernel_time = machine.kernel_time
        copy_time = machine.copy_time
        sim = self.sim
        t = sim.now
        compute_time = self.compute_time
        stamps: _t.List[float] = []
        append = stamps.append
        for kind, a, b in segments:
            if kind == SEG_COMPUTE:
                if a or b:
                    dt = kernel_time(a, b, active_cores)
                    compute_time += dt
                    t = t + dt
            else:
                dt = copy_time(a)
                compute_time += dt
                t = t + dt
            append(t)
        self.compute_time = compute_time
        if t > sim.now:
            return sim.sleep_until(t), stamps
        return None, stamps

    def memcpy(self, nbytes: float) -> Event:
        """Charge an in-memory copy (extra-copy of `inout` variables,
        application of received updates)."""
        dt = self.world.cluster.machine.copy_time(nbytes)
        self.compute_time += dt
        if self.sim._trace is None:
            return self.sim.sleep(dt)
        return self.sim.timeout(dt, label=f"memcpy:{self.name}")

    def sleep(self, duration: float) -> Event:
        """Idle for ``duration`` virtual seconds."""
        return self.sim.sleep(duration)

    # ------------------------------------------------------------ timing
    def region(self, name: str) -> "_Region":
        """Context manager accumulating wall-clock time into
        ``timers[name]``::

            with ctx.region("sections"):
                yield ctx.compute(...)
        """
        return _Region(self, name)

    @property
    def now(self) -> float:
        return self.sim.now

    # ------------------------------------------------------------ control
    @property
    def alive(self) -> bool:
        return self.endpoint.alive

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ProcContext {self.name} ep={self.endpoint.id} {self.slot}>"


class _Region:
    def __init__(self, ctx: ProcContext, name: str):
        self.ctx = ctx
        self.name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Region":
        self._t0 = self.ctx.sim.now
        return self

    def __exit__(self, *exc) -> None:
        self.ctx.timers[self.name] = (self.ctx.timers.get(self.name, 0.0)
                                      + self.ctx.sim.now - self._t0)


class _Send(Event):
    """One message on the callback transport (see the module docstring).

    The event fires for the start bounce, after ``o_send`` and after
    ``o_recv`` (each overhead skipped when zero, as the reference skips
    its timeout); in between, the message is the network's
    ``_Transfer``.
    """

    __slots__ = ("world", "src", "dst", "env", "injected", "xfer")

    def __init__(self, world: "MpiWorld", src: Endpoint, dst: Endpoint,
                 env: Envelope, injected: Event):
        super().__init__(world.sim)
        self.world = world
        self.src = src
        self.dst = dst
        self.env = env
        self.injected = injected
        self.xfer: _t.Optional["_Transfer"] = None
        # the start bounce of the reference's transfer process
        self._rearm(0.0, self._start)

    def _start(self, _ev: Event) -> None:
        # o_send: CPU-side injection overhead, paid before the DMA queue.
        o_send = self.world.network.spec.o_send
        if o_send:
            self._rearm(o_send, self._transfer)
        else:
            self._transfer(self)

    def _transfer(self, _ev: Event) -> None:
        self.xfer = self.world.network.transfer(
            self.src.node, self.dst.node, self.env.nbytes,
            on_injected=self._on_injected, on_arrived=self._on_arrived)

    def _on_injected(self) -> None:
        self.injected.succeed()
        self.world._uninjected[self.src.id].pop(self, None)

    def _on_arrived(self) -> None:
        # o_recv: receiver-side extraction overhead.
        o_recv = self.world.network.spec.o_recv
        if o_recv:
            self._rearm(o_recv, self._deliver)
        else:
            self._deliver(self)

    def _deliver(self, _ev: Event) -> None:
        self.dst.deliver(self.env)

    def retract(self) -> None:
        """The sender crashed before injection: drop the pending start
        or ``o_send`` stage, or retract the transfer from the NIC."""
        self._waiter = None
        if self.xfer is not None:
            self.xfer.retract()


class MpiWorld:
    """Simulator + cluster + endpoints + transport."""

    def __init__(self, cluster: Cluster, network_spec: NetworkSpec,
                 trace: _t.Optional[_t.Callable] = None):
        self.sim = Simulator(trace=trace)
        self.cluster = cluster
        self.network = Network(self.sim, network_spec, cluster.n_nodes,
                               hop_fn=cluster.hops)
        self.endpoints: _t.List[Endpoint] = []
        self.contexts: _t.List[ProcContext] = []
        self._next_context_id = 0
        #: messages that have not yet been injected — ``_Send`` events,
        #: or transfer processes on the reference path — keyed by source
        #: endpoint id (retracted if the sender crashes).
        #: Insertion-ordered on purpose: kill_endpoint iterates these to
        #: retract them, and a set of objects would iterate in
        #: id()-derived (allocation-address) order — nondeterministic
        #: run to run, which diverges otherwise identical simulations.
        self._uninjected: _t.Dict[
            int, _t.Dict[_t.Union[_Send, Process], None]] = {}

    # -------------------------------------------------------- membership
    def new_context(self) -> int:
        self._next_context_id += 1
        return self._next_context_id

    def spawn(self, slot: Slot, name: str = "") -> ProcContext:
        """Create a physical process slot (endpoint + context)."""
        self.cluster._check_node(slot.node)
        ep = Endpoint(self.sim, len(self.endpoints), slot.node,
                      name=name or f"p{len(self.endpoints)}")
        self.endpoints.append(ep)
        ctx = ProcContext(self, ep, slot, ep.name)
        self.contexts.append(ctx)
        self._uninjected[ep.id] = {}
        return ctx

    def start(self, ctx: ProcContext, program: _t.Generator) -> Process:
        """Begin executing a rank program on ``ctx``."""
        if ctx.process is not None:
            raise MpiError(f"{ctx.name} already has a running program")
        ctx.process = self.sim.process(program, name=ctx.name)
        return ctx.process

    # ---------------------------------------------------------- transport
    def post_send(self, src: Endpoint, dst_endpoint: int, src_rank: int,
                  tag: int, context: int, payload: _t.Any,
                  nbytes: int) -> Request:
        """Start a message transfer; returns the send request, which
        completes at *injection* (sender buffer reusable).

        The message travels as a ``_Send`` state machine, or as a
        ``_transfer`` process when the simulator runs its reference
        loop or traces (module docstring)."""
        if not 0 <= dst_endpoint < len(self.endpoints):
            raise MpiError(f"destination endpoint {dst_endpoint} unknown")
        if not src.alive:
            raise MpiError(f"send from dead endpoint {src.id}")
        env = Envelope(context=context, src_endpoint=src.id,
                       src_rank=src_rank, tag=tag, payload=payload,
                       nbytes=nbytes,
                       seq=src.next_seq(dst_endpoint, context))
        injected = Event(self.sim, label=f"inject:{src.name}")
        req = Request(injected, kind="send")
        if self.sim.fast_paths:
            msg = _Send(self, src, self.endpoints[dst_endpoint], env,
                        injected)
            self._uninjected[src.id][msg] = None
            return req
        # The transfer generator needs its own Process handle to deregister
        # itself at injection time; the handle only exists after
        # sim.process() returns, so pass it through a one-slot cell (the
        # body does not start executing until the next simulator step).
        cell: _t.Dict[str, Process] = {}
        proc = self.sim.process(
            self._transfer(src, dst_endpoint, env, injected, cell),
            name=f"xfer:{src.id}->{dst_endpoint}")
        cell["proc"] = proc
        self._uninjected[src.id][proc] = None
        return req

    def _transfer(self, src: Endpoint, dst_endpoint: int, env: Envelope,
                  injected: Event, cell: _t.Dict[str, "Process"]):
        dst = self.endpoints[dst_endpoint]

        def on_injected() -> None:
            injected.succeed()
            self._uninjected[src.id].pop(cell["proc"], None)

        # o_send: CPU-side injection overhead, paid before the DMA queue.
        if self.network.spec.o_send:
            yield self.sim.timeout(self.network.spec.o_send)
        yield from self.network.transfer_steps(src.node, dst.node,
                                               env.nbytes,
                                               on_injected=on_injected)
        # o_recv: receiver-side extraction overhead.
        if self.network.spec.o_recv:
            yield self.sim.timeout(self.network.spec.o_recv)
        dst.deliver(env)

    # ------------------------------------------------------------ failures
    def kill_endpoint(self, endpoint_id: int) -> None:
        """Crash the physical process owning ``endpoint_id``.

        Kills the rank program, drops its mailbox, and retracts messages
        it had posted but not yet injected onto the wire (messages past
        injection still arrive — the paper's "update fully sent to some
        replicas" scenario).
        """
        ep = self.endpoints[endpoint_id]
        if not ep.alive:
            return
        ep.kill()
        for msg in list(self._uninjected[endpoint_id]):
            if isinstance(msg, Process):
                msg.kill("sender crashed before injection")
            else:
                msg.retract()
        self._uninjected[endpoint_id].clear()
        ctx = self.contexts[endpoint_id]
        if ctx.process is not None:
            # Last: if this is a self-kill (crash triggered from within
            # the victim's own stack), ProcessKilled propagates out of
            # this call — all other bookkeeping is already done.
            ctx.process.kill(f"crash of {ep.name}")

    def notify_death(self, dead_endpoint: int,
                     observers: _t.Optional[_t.Iterable[int]] = None) -> None:
        """Propagate a failure-detector verdict to ``observers`` (all
        endpoints by default): their pending receives from the dead peer
        fail and future ones fail fast."""
        targets = (self.endpoints if observers is None
                   else [self.endpoints[i] for i in observers])
        for ep in targets:
            if ep.alive:
                ep.peer_died(dead_endpoint)

    # ------------------------------------------------------------ running
    def run(self, until: _t.Optional[float] = None,
            detect_deadlock: bool = True) -> None:
        """Run the simulation to completion (or ``until``)."""
        self.sim.run(until=until, detect_deadlock=detect_deadlock)


class MpiJob:
    """A launched set of ranks over a fresh ``MPI_COMM_WORLD``."""

    def __init__(self, world: MpiWorld, comm: Communicator,
                 contexts: _t.List[ProcContext],
                 processes: _t.List[Process]):
        self.world = world
        self.comm = comm
        self.contexts = contexts
        self.processes = processes

    @property
    def elapsed(self) -> float:
        """Virtual wall-clock time at the end of the run."""
        return self.world.sim.now

    def results(self) -> _t.List[_t.Any]:
        """Per-rank return values (call after ``world.run()``)."""
        return [p.value for p in self.processes]


ProgramFn = _t.Callable[..., _t.Generator]


def launch_job(world: MpiWorld, program: ProgramFn, n_ranks: int,
               placement: _t.Optional[_t.Sequence[Slot]] = None,
               args: _t.Tuple = (), kwargs: _t.Optional[dict] = None,
               name: str = "world") -> MpiJob:
    """Create ``n_ranks`` processes running ``program(ctx, comm, *args)``
    over a new communicator.

    ``program`` must be a generator function with signature
    ``program(ctx, comm, *args, **kwargs)``.
    """
    kwargs = kwargs or {}
    slots = placement or block_placement(world.cluster, n_ranks)
    if len(slots) < n_ranks:
        raise MpiError(f"placement provides {len(slots)} slots for "
                       f"{n_ranks} ranks")
    contexts = [world.spawn(slots[r], name=f"{name}.r{r}")
                for r in range(n_ranks)]
    comm = Communicator(world, [c.endpoint.id for c in contexts], name=name)
    processes = []
    for ctx in contexts:
        bound = comm.bind(ctx)
        processes.append(world.start(ctx, program(ctx, bound, *args,
                                                  **kwargs)))
    return MpiJob(world, comm, contexts, processes)


def run_mpi_job(cluster: Cluster, network_spec: NetworkSpec,
                program: ProgramFn, n_ranks: int,
                placement: _t.Optional[_t.Sequence[Slot]] = None,
                args: _t.Tuple = (), kwargs: _t.Optional[dict] = None,
                ) -> MpiJob:
    """One-shot: build a world, launch, run to completion."""
    world = MpiWorld(cluster, network_spec)
    job = launch_job(world, program, n_ranks, placement=placement,
                     args=args, kwargs=kwargs)
    world.run()
    return job
