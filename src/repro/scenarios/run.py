"""Run scenarios: build the world, launch the mode, install failures,
aggregate — the single execution path behind every experiment, example
and sweep.

:func:`_run_scenario` is a *pure function of the scenario* (the
simulation is deterministic), which is what makes
:func:`sweep_scenarios` safe to memoize on scenario hashes: any two
callers — different figures, an example, a CLI invocation — that
evaluate an equal scenario share one cached simulation.  The execution
toggle (``Simulator(fast=...)``, default
``repro.simulate.engine.FAST_DEFAULT``) is deliberately *not* part of
the scenario: both settings produce bit-identical :class:`ModeRun`
payloads, so it stays out of the cache key and cached bytes are
interchangeable between settings.

This module is the *execution* layer; the public entry points live in
:mod:`repro.api` (``repro.run`` / ``repro.sweep`` / ``repro.compare``),
which wrap the :class:`ModeRun` payload in a provenance-carrying
:class:`repro.results.RunResult`.  ``ModeRun`` itself stays the type
stored in the sweep cache, so cached bytes are unchanged by the facade.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..analysis import mean
from ..intra import launch_mode
from ..mpi import MpiWorld
from ..netmodel import Cluster, MachineSpec
from ..perf import point_cache_key, run_sweep
from ..replication import FailureInjector, NoLiveReplicaError
from .apps import resolve_program
from .failures import CrashEvent
from .spec import Scenario

#: cache namespace shared by every scenario sweep (cross-figure dedupe)
SCENARIO_SWEEP_TAG = "scenario"


@dataclasses.dataclass
class ModeRun:
    """Aggregated outcome of one scenario (one program in one mode)."""

    mode: str
    #: max over ranks of the 'solve' region (app wall time)
    wall_time: float
    #: per-region wall time, averaged over ranks (lowest-id surviving
    #: replica under replication, matching the paper's per-process
    #: averages; replicas are symmetric while all are alive)
    timers: _t.Dict[str, float]
    #: averaged intra-runtime statistics
    intra: _t.Dict[str, float]
    #: rank-0 application value (correctness payload)
    value: _t.Any
    #: the crash events the scenario's failure schedule materialized
    crashes: _t.Tuple[CrashEvent, ...] = ()


def nodes_for(mode: str, n_logical: int, machine: MachineSpec,
              degree: int = 2, spread: int = 1) -> int:
    """Cluster size needed by each mode's placement."""
    cores = machine.cores_per_node
    group = -(-n_logical // cores)
    if mode == "native":
        return group
    return group * (1 + (degree - 1) * spread)


def make_world(scenario: Scenario) -> MpiWorld:
    """A fresh simulated cluster sized for the scenario's placement."""
    machine = scenario.resolved_machine()
    cluster = Cluster(
        nodes_for(scenario.mode, scenario.n_logical, machine,
                  scenario.degree, scenario.spread),
        machine, distance_model=scenario.distance_model)
    return MpiWorld(cluster, scenario.resolved_network())


def _run_scenario(scenario: Scenario, *,
                  before_run: _t.Optional[_t.Callable[[MpiWorld, _t.Any],
                                                      None]] = None
                  ) -> ModeRun:
    """Execute one scenario end to end and aggregate its results.

    ``before_run(world, job)`` is an advanced hook for callers that need
    to instrument the live job before virtual time starts (e.g. the
    protocol-precise hook-triggered crashes of
    ``examples/failure_injection.py``); scenarios carrying such a hook
    are no longer pure data, so cached sweeps must not use it.
    """
    world = make_world(scenario)
    coord = None
    if scenario.restart is not None:
        # Scenario-expressible restart (§VI): launch the app's
        # Restartable shape under a policy-driven coordinator instead
        # of the flat program.  Scenario validation already pinned
        # mode="intra" and degree=2.
        from ..replication.restart import launch_restartable_job
        from .apps import get_app
        try:
            entry = get_app(scenario.app)
        except KeyError:
            entry = None
        if entry is None or entry.restartable is None:
            raise ValueError(
                f"scenario carries a restart policy but app "
                f"{scenario.app!r} has no registered restartable "
                f"factory; register_app(..., restartable=...) one "
                f"(e.g. app 'stepsum')")
        app = entry.restartable(scenario.config)
        job, coord = launch_restartable_job(
            world, app, scenario.n_logical, fd_delay=scenario.fd_delay,
            spread=scenario.spread, scheduler=scenario.make_scheduler(),
            policy=scenario.restart)
    else:
        program = resolve_program(scenario.app)
        kw: _t.Dict[str, _t.Any] = dict(
            args=() if scenario.config is None else (scenario.config,))
        if scenario.mode != "native":
            kw.update(degree=scenario.degree, spread=scenario.spread,
                      fd_delay=scenario.fd_delay)
        if scenario.mode == "intra":
            kw.update(scheduler=scenario.make_scheduler(),
                      copy_strategy=scenario.copy_strategy)
        job = launch_mode(scenario.mode, world, program,
                          scenario.n_logical, **kw)

    crashes: _t.Tuple[CrashEvent, ...] = ()
    if scenario.mode != "native":
        # Native jobs have no replicas to kill: a crash-stop failure of
        # an unreplicated rank is fatal, which is the paper's point.
        crashes = scenario.failures.materialize(scenario.n_logical,
                                                scenario.degree)
        if crashes:
            FailureInjector(job.manager).apply(crashes)
    if before_run is not None:
        before_run(world, job)
    world.run()

    if scenario.mode == "native":
        results = job.results()
    else:
        results = []
        for lrank in range(job.manager.n_logical):
            live = job.manager.alive_replicas(lrank)
            if not live:
                raise NoLiveReplicaError(lrank)
            results.append(live[0].app_process.value)

    if all(hasattr(r, "timers") and hasattr(r, "intra") for r in results):
        wall = max(r.timers.get("solve", r.end_time) for r in results)
        # sorted(): the aggregated dicts land in the pickled sweep
        # cache, where insertion order is part of the stored bytes —
        # set order would make those bytes hash-seed dependent
        timer_keys = set().union(*(r.timers.keys() for r in results))
        timers = {k: mean([r.timers.get(k, 0.0) for r in results])
                  for k in sorted(timer_keys)}
        intra_keys = set().union(*(r.intra.keys() for r in results))
        intra = {k: mean([float(r.intra.get(k, 0) or 0) for r in results])
                 for k in sorted(intra_keys)}
        value = results[0].value
    else:
        # program did not return an AppResult (e.g. a didactic example
        # returning raw arrays): report the end of virtual time
        wall, timers, intra, value = world.sim.now, {}, {}, results[0]
    if coord is not None:
        # surface restart activity through the intra stats channel so
        # the cached ModeRun layout (and old cached bytes) stay intact
        intra = dict(intra)
        intra["restarts_completed"] = float(coord.restarts_completed)
        intra["restarts_started"] = float(coord.restarts_started)
    return ModeRun(mode=scenario.mode, wall_time=wall, timers=timers,
                   intra=intra, value=value, crashes=crashes)


def sweep_scenarios(scenarios: _t.Sequence[Scenario],
                    **sweep_kw: _t.Any) -> _t.List[ModeRun]:
    """Evaluate a batch of scenarios through the sweep driver
    (process-pool parallelism + on-disk caching per the perf config).

    All scenario sweeps share one cache namespace keyed by the scenario
    itself, so equal scenarios dedupe across figures, examples and CLI
    runs.
    """
    scenarios = list(scenarios)
    for s in scenarios:
        if not isinstance(s, Scenario):
            raise TypeError(f"sweep_scenarios expects Scenario points, "
                            f"got {type(s).__name__}")
    return run_sweep(scenarios, _run_scenario, tag=SCENARIO_SWEEP_TAG,
                     **sweep_kw)


def scenario_cache_key(scenario: Scenario) -> str:
    """The sweep-cache key under which this scenario's result is
    memoized: a SHA-256 hex digest of the scenario's stable
    serialization, the cache namespace tag (:data:`SCENARIO_SWEEP_TAG`,
    shared by *all* scenario sweeps so equal scenarios dedupe across
    figures, examples and CLI runs) and
    :data:`repro.perf.CACHE_VERSION`.

    The key is identical across processes and hosts — it depends only
    on the spec's field values, never on object identity or hash
    seeds — so two runs anywhere that evaluate an equal scenario share
    one on-disk result (``.perf_cache/<k[:2]>/<k>.pkl``).  Equal
    scenarios (e.g. a JSON round-trip twin) always map to the same key;
    any field change, including inside ``config`` or ``failures``,
    re-keys.  Bumping ``CACHE_VERSION`` invalidates every stored
    result after a model change; performance-only work (e.g. the PR 3
    batched dispatch) is bit-result-identical by construction and
    deliberately does *not* re-key.  See ``docs/scenarios.md``.
    """
    return point_cache_key(_run_scenario, scenario,
                           tag=SCENARIO_SWEEP_TAG)
