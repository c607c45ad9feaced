"""The curated public facade: ``repro.run`` / ``repro.sweep`` /
``repro.iter_sweep`` / ``repro.compare`` / ``repro.scenario``.

One stable, versioned entry layer over the whole reproduction: every
workload — a paper figure point, an example, a CLI invocation, a future
dashboard — names a :class:`~repro.scenarios.Scenario` (directly or by
its registry name) and gets back a structured
:class:`~repro.results.RunResult` / :class:`~repro.results.ResultSet`
with cache provenance attached.  All functions here are re-exported
lazily at the top level (``import repro; repro.run(...)``); see
``docs/api.md`` for the tour and the stability policy.

Design invariants:

* The facade *wraps* the scenario execution layer
  (:mod:`repro.scenarios.run`) and the sweep driver
  (:mod:`repro.perf.sweep`); it never changes what is simulated, how
  results are cached (scenario-hash keys, :class:`ModeRun` bytes) or
  the determinism guarantees underneath.
* Sweeps stream: :func:`iter_sweep` yields results as the worker pool
  completes them; :func:`sweep` is the ordered batch form with an
  optional ``on_result`` progress callback.
* The execution toggle (``Simulator(fast=...)``, process-wide default
  ``repro.simulate.engine.FAST_DEFAULT``: fast paths vs the seed
  reference engine loop, message transport and task-by-task sections)
  is a pure execution detail: both settings produce bit-identical
  :class:`RunResult` payloads, so it never enters cache keys — cached
  bytes written under one setting are read back under the other.
* Name resolution imports :mod:`repro.experiments` on demand so every
  registered figure/example scenario is addressable without eagerly
  importing the experiment harness at ``import repro`` time.
"""

from __future__ import annotations

import typing as _t

from .perf import PointFailure
from .perf import iter_sweep as _perf_iter_sweep
from .results import ResultSet, RunResult
from .scenarios import Scenario, scenario_cache_key
from .scenarios.run import SCENARIO_SWEEP_TAG, _run_scenario

__all__ = ["ResultSet", "RunResult", "Scenario", "compare",
           "iter_sweep", "run", "scenario", "sweep"]

#: the paper's three execution modes, in canonical comparison order
MODES: _t.Tuple[str, ...] = ("native", "sdr", "intra")

ScenarioLike = _t.Union[str, Scenario]


def _ensure_registry() -> None:
    """Make every registered scenario name resolvable: the figure
    modules register their grids at import, so importing the experiment
    harness (idempotent, lazy) populates the registry."""
    import repro.experiments  # noqa: F401  (import-time registration)


def scenario(name_or_scenario: ScenarioLike,
             **overrides: _t.Any) -> Scenario:
    """Resolve a scenario: a registry name (``"fig5b:p16:intra"``) or a
    :class:`Scenario` instance, with optional field overrides applied
    (``repro.scenario("fig5b:p16:intra", degree=3)``).

    The returned spec is frozen; chain
    :meth:`~repro.scenarios.Scenario.with_overrides` /
    :meth:`~repro.scenarios.Scenario.replace` /
    :meth:`~repro.scenarios.Scenario.with_failures` to derive variants.
    """
    if isinstance(name_or_scenario, Scenario):
        s = name_or_scenario
    elif isinstance(name_or_scenario, str):
        _ensure_registry()
        from .scenarios import get_scenario
        s = get_scenario(name_or_scenario)
    else:
        raise TypeError(f"expected a Scenario or a registered scenario "
                        f"name, got {type(name_or_scenario).__name__}")
    return s.with_overrides(overrides) if overrides else s


def run(name_or_scenario: ScenarioLike, *,
        cache: _t.Optional[bool] = None,
        cache_dir: _t.Optional[_t.Any] = None,
        before_run: _t.Optional[_t.Callable[..., None]] = None,
        retries: int = 0,
        backoff: float = 0.5,
        on_error: str = "raise",
        fabric: _t.Optional[_t.Any] = None,
        **overrides: _t.Any) -> RunResult:
    """Run one scenario end to end; returns a :class:`RunResult`.

    ``cache``/``cache_dir`` override the process-wide sweep-cache
    config (:func:`repro.perf.configure`); the result's ``cache_key`` /
    ``cache_hit`` report how the cache treated this run.

    ``retries``/``backoff``/``on_error`` are the robustness knobs of
    :func:`repro.perf.iter_sweep`; under ``on_error="return"`` a run
    that keeps failing comes back as a failed :class:`RunResult`
    (``result.ok`` False, the failure in ``result.error``) instead of
    raising.

    ``before_run(world, job)`` is the advanced instrumentation hook of
    the scenario runner (e.g. protocol-precise hook-triggered crashes);
    a hooked run is no longer a pure function of the scenario, so it
    always executes fresh and bypasses the cache entirely
    (``cache_key is None``).

    ``fabric`` serves/computes the run through a
    :class:`repro.fabric.Fabric` instead of this process — see
    :func:`sweep`.
    """
    s = scenario(name_or_scenario, **overrides)
    if before_run is not None:
        mode_run = _run_scenario(s, before_run=before_run)
        return RunResult.from_mode_run(mode_run, s)
    result, = iter_sweep([s], cache=cache, cache_dir=cache_dir,
                         retries=retries, backoff=backoff,
                         on_error=on_error, fabric=fabric)
    return result


def iter_sweep(scenarios: _t.Iterable[ScenarioLike], *,
               workers: _t.Optional[int] = None,
               cache: _t.Optional[bool] = None,
               cache_dir: _t.Optional[_t.Any] = None,
               timeout: _t.Optional[float] = None,
               retries: int = 0,
               backoff: float = 0.5,
               on_error: str = "raise",
               fabric: _t.Optional[_t.Any] = None
               ) -> _t.Iterator[RunResult]:
    """Streaming sweep: yield a :class:`RunResult` per scenario *as the
    pool completes them* (cache hits first, then fresh simulations in
    completion order — not input order; each result's ``scenario``
    identifies it).  Lazy: nothing runs until the first ``next()``.

    Layered on :func:`repro.perf.iter_sweep` with the shared scenario
    cache namespace, so streaming consumers, :func:`sweep` and the
    figure harness all dedupe onto the same scenario-hash keys and
    cached bytes.  ``timeout``/``retries``/``backoff``/``on_error``
    are the sweep driver's robustness knobs: with
    ``on_error="return"`` a scenario that exhausts its attempts yields
    a failed :class:`RunResult` (``.ok`` False) and the sweep keeps
    going.

    ``fabric`` (a :class:`repro.fabric.Fabric`) swaps the local worker
    pool for the distributed fabric: warm points stream straight out of
    the fabric's result store, cold points are enqueued for whatever
    ``python -m repro.fabric.worker`` daemons share the root, and the
    iterator polls results in as they land — see :func:`sweep`.
    """
    for _i, result in _iter_indexed([scenario(s) for s in scenarios],
                                    workers=workers, cache=cache,
                                    cache_dir=cache_dir, timeout=timeout,
                                    retries=retries, backoff=backoff,
                                    on_error=on_error, fabric=fabric):
        yield result


def _iter_indexed(resolved: _t.Sequence[Scenario], *,
                  workers: _t.Optional[int] = None,
                  cache: _t.Optional[bool] = None,
                  cache_dir: _t.Optional[_t.Any] = None,
                  timeout: _t.Optional[float] = None,
                  retries: int = 0,
                  backoff: float = 0.5,
                  on_error: str = "raise",
                  fabric: _t.Optional[_t.Any] = None
                  ) -> _t.Iterator[_t.Tuple[int, RunResult]]:
    """(input index, RunResult) pairs in completion order — the shared
    core of :func:`iter_sweep` and :func:`sweep`."""
    if fabric is not None:
        yield from _iter_fabric(resolved, fabric, timeout=timeout,
                                on_error=on_error)
        return
    for item in _perf_iter_sweep(resolved, _run_scenario,
                                 workers=workers, cache=cache,
                                 cache_dir=cache_dir,
                                 tag=SCENARIO_SWEEP_TAG,
                                 timeout=timeout, retries=retries,
                                 backoff=backoff, on_error=on_error):
        key = (item.cache_key if item.cache_key is not None
               else scenario_cache_key(item.point))
        if isinstance(item.value, PointFailure):
            yield item.index, RunResult.from_failure(
                item.value, item.point, cache_key=key)
            continue
        hit = item.cache_hit if item.cache_key is not None else None
        yield item.index, RunResult.from_mode_run(
            item.value, item.point, cache_key=key, cache_hit=hit)


def _iter_fabric(resolved: _t.Sequence[Scenario], fabric: _t.Any, *,
                 timeout: _t.Optional[float] = None,
                 on_error: str = "raise"
                 ) -> _t.Iterator[_t.Tuple[int, RunResult]]:
    """The fabric-backed sweep core: serve warm points from the
    fabric's store, enqueue cold ones for the workers sharing its root,
    poll the rest in.

    Semantics mirror the local driver where they can: points dedupe on
    the same scenario-hash keys, a point already warm *at sweep start*
    yields ``cache_hit=True``, one computed during this sweep (by a
    fabric worker) yields ``cache_hit=False``, so fabric and serial
    results are byte-identical.  Retry policy, though, lives in the
    *queue* (the fabric's ``max_attempts``/``backoff``, charged per
    worker attempt), not in per-sweep ``retries`` — a point the queue
    parks as ``failed`` surfaces as a
    :class:`~repro.perf.PointFailure` (``on_error="return"``) or
    raises (``"raise"``).  ``timeout`` is the overall wait budget for
    the sweep's cold points (no workers running means no progress)."""
    if on_error not in ("raise", "return"):
        raise ValueError(f"on_error must be 'raise' or 'return', got "
                         f"{on_error!r}")
    import time as _time

    pending: _t.List[_t.Tuple[int, str]] = []
    duplicates: _t.Dict[str, _t.List[int]] = {}
    seen: _t.Dict[str, int] = {}
    warm: _t.Dict[str, _t.Any] = {}
    for i, s in enumerate(resolved):
        key = fabric.record_scenario(s)
        if key in seen:
            duplicates.setdefault(key, []).append(i)
            continue
        seen[key] = i
        mode_run = fabric.load_result(key)
        if mode_run is not None:
            warm[key] = mode_run
            yield i, RunResult.from_mode_run(mode_run, s, cache_key=key,
                                             cache_hit=True)
        else:
            fabric.enqueue_scenario(s)
            pending.append((i, key))

    def _fan_out(key: str, make: _t.Callable[[int], RunResult]
                 ) -> _t.Iterator[_t.Tuple[int, RunResult]]:
        for j in duplicates.get(key, ()):  # same key, same result
            yield j, make(j)

    # duplicates of warm points fan out after the uniques, like the
    # local driver's in-sweep dedupe
    for key, mode_run in warm.items():
        yield from _fan_out(key, lambda j: RunResult.from_mode_run(
            mode_run, resolved[j], cache_key=key, cache_hit=True))

    deadline = (None if timeout is None else
                _time.monotonic() + timeout)  # detlint: ignore[DET003] -- wait budget for remote workers, not simulated time
    while pending:
        still: _t.List[_t.Tuple[int, str]] = []
        for i, key in pending:
            mode_run = fabric.load_result(key)
            if mode_run is not None:
                # computed during this sweep → a cold-run result,
                # exactly like the serial driver's fresh computation;
                # its same-key duplicates dedupe as hits, also like
                # the local driver
                yield i, RunResult.from_mode_run(
                    mode_run, resolved[i], cache_key=key,
                    cache_hit=False)
                yield from _fan_out(key, lambda j: RunResult.from_mode_run(
                    mode_run, resolved[j], cache_key=key,
                    cache_hit=True))
                continue
            item = fabric.queue.get(key)
            if item is not None and item.state == "failed":
                failure = PointFailure(
                    error=item.error or "point failed in fabric",
                    kind="worker-lost" if "worker-lost" in
                         (item.error or "") else "error",
                    attempts=item.attempts)
                if on_error == "raise":
                    raise RuntimeError(
                        f"fabric point {key[:12]}… failed after "
                        f"{item.attempts} attempt(s): {failure.error}")
                yield i, RunResult.from_failure(failure, resolved[i],
                                                cache_key=key)
                yield from _fan_out(key, lambda j: RunResult.from_failure(
                    failure, resolved[j], cache_key=key))
                continue
            still.append((i, key))
        pending = still
        if not pending:
            break
        if deadline is not None and _time.monotonic() >= deadline:  # detlint: ignore[DET003] -- wait budget for remote workers, not simulated time
            failure = PointFailure(
                error=f"fabric sweep timed out with {len(pending)} "
                      f"point(s) still pending (are workers running?)",
                kind="timeout", attempts=0)
            if on_error == "raise":
                raise TimeoutError(failure.error)
            for i, key in pending:
                yield i, RunResult.from_failure(failure, resolved[i],
                                                cache_key=key)
                yield from _fan_out(key, lambda j: RunResult.from_failure(
                    failure, resolved[j], cache_key=key))
            return
        _time.sleep(fabric.poll)


def sweep(scenarios: _t.Iterable[ScenarioLike], *,
          workers: _t.Optional[int] = None,
          cache: _t.Optional[bool] = None,
          cache_dir: _t.Optional[_t.Any] = None,
          timeout: _t.Optional[float] = None,
          retries: int = 0,
          backoff: float = 0.5,
          on_error: str = "raise",
          on_result: _t.Optional[_t.Callable[[RunResult], None]] = None,
          fabric: _t.Optional[_t.Any] = None
          ) -> ResultSet:
    """Evaluate a batch of scenarios; returns a :class:`ResultSet` in
    input order.

    ``workers`` fans the points out over a process pool; results are
    memoized on scenario hashes per the perf config.  ``on_result`` is
    invoked once per result *as it completes* (completion order — the
    streaming progress hook), while the returned set is always ordered
    like the input.  The robustness knobs
    (``timeout``/``retries``/``backoff``/``on_error``) pass through to
    :func:`repro.perf.iter_sweep`; under ``on_error="return"`` failed
    points appear in the set as failed :class:`RunResult`\\ s
    (``.ok`` False) rather than aborting the sweep.

    ``fabric`` (a :class:`repro.fabric.Fabric`) runs the sweep through
    the distributed fabric instead of a local pool: warm points serve
    immediately from the fabric's store, cold ones are enqueued for the
    worker daemons sharing its root, and a re-run of an interrupted
    sweep resumes from whatever they completed.  Results are
    byte-identical to the local path (same keys, same stored bytes);
    retry policy moves to the fabric's queue
    (``Fabric(max_attempts=..., backoff=...)``), so the per-sweep
    ``retries``/``backoff``/``workers``/``cache`` knobs are ignored in
    fabric mode and ``timeout`` bounds the total wait for cold points.
    """
    resolved = [scenario(s) for s in scenarios]
    ordered: _t.List[_t.Optional[RunResult]] = [None] * len(resolved)
    for i, result in _iter_indexed(resolved, workers=workers,
                                   cache=cache, cache_dir=cache_dir,
                                   timeout=timeout, retries=retries,
                                   backoff=backoff, on_error=on_error,
                                   fabric=fabric):
        ordered[i] = result
        if on_result is not None:
            on_result(result)
    return ResultSet(ordered)


def compare(name_or_scenario: ScenarioLike,
            modes: _t.Sequence[str] = MODES, *,
            workers: _t.Optional[int] = None,
            cache: _t.Optional[bool] = None,
            cache_dir: _t.Optional[_t.Any] = None,
            timeout: _t.Optional[float] = None,
            retries: int = 0,
            backoff: float = 0.5,
            on_error: str = "raise",
            fabric: _t.Optional[_t.Any] = None,
            **overrides: _t.Any) -> ResultSet:
    """The paper's headline artifact as one call: the same workload in
    several execution modes, returned as a :class:`ResultSet` ordered
    like ``modes``.

    ``name_or_scenario`` may be:

    * a registry *family* prefix — ``"example:hpccg"`` — when
      ``<prefix>:<mode>`` is registered for every requested mode (the
      registered points may differ in more than ``mode``, e.g. the
      doubled per-logical problem of the Figure 5 convention);
    * a single registered name or a :class:`Scenario`, from which the
      other modes are derived by replacing ``mode`` only.
    """
    if isinstance(name_or_scenario, str):
        _ensure_registry()
        from .scenarios import get_scenario, scenario_names
        names = set(scenario_names())
        if all(f"{name_or_scenario}:{m}" in names for m in modes):
            points = [get_scenario(f"{name_or_scenario}:{m}")
                      .with_overrides(overrides) for m in modes]
            return sweep(points, workers=workers, cache=cache,
                         cache_dir=cache_dir, timeout=timeout,
                         retries=retries, backoff=backoff,
                         on_error=on_error, fabric=fabric)
    base = scenario(name_or_scenario, **overrides)
    points = [base.replace(mode=m) for m in modes]
    return sweep(points, workers=workers, cache=cache,
                 cache_dir=cache_dir, timeout=timeout, retries=retries,
                 backoff=backoff, on_error=on_error, fabric=fabric)
