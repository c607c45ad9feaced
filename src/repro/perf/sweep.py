"""Parallel experiment-sweep driver with on-disk result caching.

Every figure of the reproduction is a *sweep*: a list of independent
(mode, program, problem) points, each of which runs a full discrete-event
simulation.  Points share nothing at runtime (determinism makes each one
a pure function of its descriptor), which makes the sweep embarrassingly
parallel and its results safely cacheable.

:func:`run_sweep` fans the points out over a process pool and memoizes
each point's result on disk, keyed by a *stable* serialization of the
point descriptor (:func:`stable_token` — plain ``repr`` is not stable
for sets/dataclasses across hash seeds).

Defaults are conservative: serial and uncached.  The experiment CLI
(``python -m repro.experiments --workers N``) and the perf benchmark
opt in through :func:`configure`; library callers can also pass
``workers=`` / ``cache=`` explicitly.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import enum
import hashlib
import pathlib
import pickle
import time
import typing as _t
import warnings
from concurrent.futures.process import BrokenProcessPool

from .. import _envflags

#: bump to invalidate every cached result (e.g. on model changes)
CACHE_VERSION = 2

_DEFAULT_CACHE_DIR = pathlib.Path(".perf_cache")


@dataclasses.dataclass
class SweepConfig:
    """Process-wide defaults for :func:`run_sweep`."""

    workers: int = 1
    cache: bool = False
    cache_dir: pathlib.Path = _DEFAULT_CACHE_DIR


def _env_workers(name: str = "REPRO_WORKERS") -> int:
    """Parse the worker-count env var defensively.

    A garbage value must not make ``import repro.perf.sweep`` raise
    (sweeps are imported by every experiment module), and a value the
    :func:`configure` validation would reject (``workers < 1``) must not
    sneak past it just because it arrived via the environment.  Either
    way :func:`repro._envflags.env_int` warns and falls back to the
    serial default of 1.
    """
    return _envflags.env_int(name, 1, minimum=1)


_config = SweepConfig(
    workers=1,
    cache=_envflags.env_flag("REPRO_SWEEP_CACHE", False),
    cache_dir=pathlib.Path(_envflags.env_str("REPRO_CACHE_DIR",
                                             str(_DEFAULT_CACHE_DIR))),
)


def configure(workers: _t.Optional[int] = None,
              cache: _t.Optional[bool] = None,
              cache_dir: _t.Optional[_t.Union[str, pathlib.Path]] = None
              ) -> SweepConfig:
    """Set process-wide sweep defaults; returns the live config."""
    if workers is not None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        _config.workers = int(workers)
    if cache is not None:
        _config.cache = bool(cache)
    if cache_dir is not None:
        _config.cache_dir = pathlib.Path(cache_dir)
    return _config


def get_config() -> SweepConfig:
    """The live process-wide sweep configuration."""
    return _config


# The env default goes through the same validation as explicit callers
# (``_env_workers`` already clamps to >= 1, so this cannot raise at
# import time).
configure(workers=_env_workers())


# ------------------------------------------------------------ stable keys
def stable_token(obj: _t.Any) -> str:
    """A deterministic, hash-seed-independent serialization of a sweep
    point descriptor.

    Handles the types experiment configs are made of: primitives,
    sequences, dicts, sets/frozensets (sorted), enums, dataclasses,
    callables (by qualified name) and plain attribute objects.  Unknown
    objects fall back to ``repr`` — fine as long as the repr does not
    embed memory addresses (a ``<... at 0x...>`` repr raises instead of
    silently producing an unstable key).
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return repr(obj)
    if isinstance(obj, float):
        return repr(obj)  # repr round-trips floats exactly
    if isinstance(obj, enum.Enum):
        return f"enum:{type(obj).__qualname__}.{obj.name}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # Fields flagged ``omit_if_default`` are skipped while at their
        # default value, so adding such a field to a descriptor (e.g.
        # ``Scenario.restart``) leaves every pre-existing cache key —
        # where the field necessarily holds its default — unchanged.
        fields = ", ".join(
            f"{f.name}={stable_token(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
            if not (f.metadata.get("omit_if_default")
                    and getattr(obj, f.name) == f.default))
        return f"dc:{type(obj).__qualname__}({fields})"
    if isinstance(obj, (list, tuple)):
        kind = "list" if isinstance(obj, list) else "tuple"
        return f"{kind}[{', '.join(stable_token(v) for v in obj)}]"
    if isinstance(obj, (set, frozenset)):
        return f"set[{', '.join(sorted(stable_token(v) for v in obj))}]"
    if isinstance(obj, dict):
        items = sorted((stable_token(k), stable_token(v))
                       for k, v in obj.items())
        return f"dict[{', '.join(f'{k}: {v}' for k, v in items)}]"
    if callable(obj) and hasattr(obj, "__qualname__"):
        return f"fn:{getattr(obj, '__module__', '?')}.{obj.__qualname__}"
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        return f"obj:{type(obj).__qualname__}({stable_token(attrs)})"
    r = repr(obj)
    if " at 0x" in r:
        raise TypeError(
            f"cannot build a stable cache key for {type(obj).__name__}: "
            f"repr embeds a memory address ({r})")
    return f"repr:{r}"


def _point_key(fn: _t.Callable, point: _t.Any, tag: str) -> str:
    blob = f"v{CACHE_VERSION}|{tag or stable_token(fn)}|{stable_token(point)}"
    return hashlib.sha256(blob.encode()).hexdigest()


def point_cache_key(fn: _t.Callable, point: _t.Any, tag: str = "") -> str:
    """The on-disk cache key :func:`run_sweep` uses for one point — a
    stable hash of the point descriptor (and the tag namespace), so
    callers can reason about result identity (e.g. scenario hashes: see
    :func:`repro.scenarios.scenario_cache_key`)."""
    return _point_key(fn, point, tag)


# ------------------------------------------------------------- disk cache
# Since PR 10 the cache's bytes live behind the ResultStore protocol of
# :mod:`repro.fabric.store` (the sharded-file oracle layout by default,
# SQLite via ``REPRO_CACHE_BACKEND=sqlite``).  Stores are memoized per
# (backend, root) so a long sweep reuses one handle; pool workers start
# with a clean slate via :func:`_worker_init`.
_STORES: _t.Dict[_t.Tuple[str, str], _t.Any] = {}


def _result_store(cache_dir: pathlib.Path) -> _t.Any:
    from ..fabric.store import get_cache_backend, open_store
    slot = (get_cache_backend(), str(cache_dir))
    store = _STORES.get(slot)
    if store is None:
        store = _STORES[slot] = open_store(cache_dir, slot[0])
    return store


def _cache_path(cache_dir: pathlib.Path, key: str) -> pathlib.Path:
    """The file-backend shard path — pinned layout
    (``tests/api/test_cache_compat.py``); the SQLite backend stores the
    same bytes in its ``results`` table instead."""
    return cache_dir / f"{key[:2]}" / f"{key}.pkl"


def _cache_load(cache_dir: pathlib.Path, key: str) -> _t.Tuple[bool, _t.Any]:
    store = _result_store(cache_dir)
    try:
        data = store.get(key)
        if data is None:
            return False, None      # an ordinary miss: nothing stored
        return True, pickle.loads(data)
    except Exception as exc:        # noqa: BLE001 — unpickling corrupt
        # bytes can raise nearly anything; none of it may fail the sweep
        # Quarantine: an unreadable/corrupt entry must neither crash the
        # sweep nor shadow its slot forever.  Move it aside (kept for
        # post-mortems, ignored by loads: ``.corrupt`` file or
        # ``corrupt`` table row), warn, and report a miss — the point
        # recomputes and _cache_store rewrites the entry.
        where = store.quarantine(key, f"{type(exc).__name__}: {exc}")
        note = f"; entry quarantined to {where}" if where else ""
        label = f"{key}.pkl" if store.backend == "file" else f"{key[:12]}…"
        warnings.warn(
            f"ignoring corrupt sweep-cache entry {label} "
            f"({type(exc).__name__}: {exc}){note}; recomputing the "
            f"point", RuntimeWarning, stacklevel=3)
        return False, None


def _cache_store(cache_dir: pathlib.Path, key: str, value: _t.Any) -> None:
    try:
        _result_store(cache_dir).put(
            key, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # noqa: BLE001 — disk-full, locked DB, unpicklable
        pass  # caching is best-effort; never fail the sweep


def clear_result_cache(cache_dir: _t.Optional[_t.Union[str, pathlib.Path]]
                       = None) -> int:
    """Delete all cached sweep results; returns the number removed.

    Uniform across store backends: the file layout also sweeps the
    ``.tmp<pid>`` droppings a crashed writer leaves behind, the
    ``.corrupt`` files :func:`_cache_load` quarantined, and prunes
    emptied shard directories; the SQLite backend empties its
    ``results`` *and* ``corrupt`` tables.  Residue never counts toward
    the return value, which is cached *results* only.
    """
    root = pathlib.Path(cache_dir) if cache_dir else _config.cache_dir
    return _result_store(root).clear()


# ------------------------------------------------------------- the driver
#: upper bound on one retry-backoff sleep, seconds
_MAX_BACKOFF = 30.0


def retry_backoff(backoff: float, k: int) -> float:
    """The wait before retry ``k`` (0-based): ``backoff * 2**k`` seconds,
    capped at 30 s.  The one retry curve shared by the local sweep
    (:func:`run_sweep`) and the fabric work queue
    (:mod:`repro.fabric.queue`)."""
    return min(backoff * (2 ** k), _MAX_BACKOFF)


def _worker_init(cache_backend: _t.Optional[str] = None) -> None:
    """Pool-worker initializer: mirror the parent's cache backend.

    Freshly spawned workers re-read ``REPRO_CACHE_BACKEND`` on import,
    so env-var users inherit the backend for free — but a backend
    selected programmatically via
    :func:`repro.fabric.set_cache_backend` lives only in the parent
    process.  Pinning it here keeps sweeps backend-faithful either way.
    Forked workers also drop any memoized store handles — an SQLite
    connection must never cross a ``fork``.
    """
    _STORES.clear()
    if cache_backend is not None:
        from repro.fabric.store import set_cache_backend
        set_cache_backend(cache_backend)


@dataclasses.dataclass
class PointFailure:
    """Structured outcome of a sweep point that exhausted its retries.

    Yielded as a :class:`SweepItem`'s ``value`` under
    ``on_error="return"`` instead of raising, so one pathological point
    cannot take down a long sweep.  Failures are never written to the
    cache — the point recomputes on the next sweep.

    ``kind`` is ``"error"`` (``fn`` raised), ``"timeout"`` (the point
    exceeded the per-point budget) or ``"worker-lost"`` (the pool
    worker running — or queued to run — the point died).
    """

    error: str
    kind: str = "error"
    attempts: int = 1


# This module is importlib.reload()-ed by tests to re-run the
# import-time env parsing; pin one canonical class object across
# reloads so isinstance checks on previously-imported references and
# previously-created failures stay true.
PointFailure = globals().setdefault("_PointFailure", PointFailure)


@dataclasses.dataclass
class SweepItem:
    """One completed sweep point, as yielded by :func:`iter_sweep`.

    ``index`` is the point's position in the input sequence (yields
    arrive in *completion* order, not input order).  ``cache_hit`` is
    True when the value came from the on-disk cache or was deduped onto
    an equal point in the same sweep; ``cache_key`` is the on-disk key
    (``None`` when caching is disabled for the sweep).
    """

    index: int
    point: _t.Any
    value: _t.Any
    cache_hit: bool
    cache_key: _t.Optional[str]


def iter_sweep(points: _t.Sequence[_t.Any],
               fn: _t.Callable[[_t.Any], _t.Any],
               workers: _t.Optional[int] = None,
               cache: _t.Optional[bool] = None,
               cache_dir: _t.Optional[_t.Union[str, pathlib.Path]] = None,
               tag: str = "",
               timeout: _t.Optional[float] = None,
               retries: int = 0,
               backoff: float = 0.5,
               on_error: str = "raise") -> _t.Iterator[SweepItem]:
    """Streaming form of :func:`run_sweep`: yield a :class:`SweepItem`
    per point *as results become available* instead of one ordered list
    at the end.

    Cache hits yield first (in input order, essentially instantly);
    pending points follow as the pool completes them, each followed by
    any same-key duplicates it resolves.  Caching semantics — keys,
    stored bytes, the in-sweep duplicate dedupe — are byte-for-byte the
    same as :func:`run_sweep` (which is implemented on this iterator),
    so streaming consumers and batch consumers share one cache.

    Parameters are those of :func:`run_sweep` plus the robustness
    knobs (also accepted by :func:`run_sweep`):

    * ``timeout`` — soft per-point wall-clock budget in seconds (pool
      runs only; inline execution cannot be preempted).  A round of
      pool work is abandoned once it exceeds one budget per submission
      wave; unfinished points count a ``"timeout"`` attempt.
    * ``retries`` — how many times a failed point (exception, timeout,
      dead worker) is re-attempted, with exponential backoff
      (``backoff * 2**k`` seconds before retry round ``k``, capped at
      30 s).  Worker death never poisons the sweep: completed points
      keep their results and the survivors retry on a fresh pool.
    * ``on_error`` — ``"raise"`` (default) re-raises the first point
      that exhausts its attempts; ``"return"`` yields it as a
      :class:`SweepItem` whose value is a structured
      :class:`PointFailure` (never cached) and keeps sweeping.

    The iterator is lazy: nothing runs until the first ``next()``, and
    abandoning it mid-sweep shuts the worker pool down cleanly.
    """
    if on_error not in ("raise", "return"):
        raise ValueError(f"on_error must be 'raise' or 'return', got "
                         f"{on_error!r}")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive (or None)")
    if backoff < 0:
        raise ValueError("backoff must be non-negative")
    cfg = _config
    n_workers = cfg.workers if workers is None else workers
    use_cache = cfg.cache if cache is None else cache
    root = pathlib.Path(cache_dir) if cache_dir else cfg.cache_dir

    points = list(points)
    pending: _t.List[int] = []
    duplicates: _t.Dict[int, _t.List[int]] = {}
    keys: _t.List[_t.Optional[str]]
    if use_cache:
        keys = [_point_key(fn, p, tag) for p in points]
        # Dedupe pending work by cache key: duplicate points in one cold
        # sweep compute once and fan the result out, matching the
        # cross-run dedupe the shared cache namespace already provides.
        first_with_key: _t.Dict[str, int] = {}
        for i, key in enumerate(keys):
            owner = first_with_key.get(key)
            if owner is not None:
                duplicates.setdefault(owner, []).append(i)
                continue
            hit, value = _cache_load(root, key)
            if hit:
                yield SweepItem(i, points[i], value, True, key)
            else:
                first_with_key[key] = i
                pending.append(i)
    else:
        keys = [None] * len(points)
        pending = list(range(len(points)))

    def finish(i: int, value: _t.Any) -> _t.Iterator[SweepItem]:
        if use_cache:
            _cache_store(root, keys[i], value)
        yield SweepItem(i, points[i], value, False, keys[i])
        for dup in duplicates.get(i, ()):
            yield SweepItem(dup, points[dup], value, True, keys[dup])

    def fail(i: int, failure: PointFailure) -> _t.Iterator[SweepItem]:
        # failures are never cached: the point recomputes next sweep,
        # and duplicates share the failure (same key, same outcome)
        yield SweepItem(i, points[i], failure, False, keys[i])
        for dup in duplicates.get(i, ()):
            yield SweepItem(dup, points[dup], failure, False, keys[dup])

    if not pending:
        return
    if n_workers > 1 and len(pending) > 1:
        yield from _pool_rounds(points, fn, pending, n_workers, timeout,
                                retries, backoff, on_error, finish, fail)
    else:
        yield from _serial_rounds(points, fn, pending, retries, backoff,
                                  on_error, finish, fail)


def _serial_rounds(points: _t.List[_t.Any], fn: _t.Callable,
                   pending: _t.List[int], retries: int, backoff: float,
                   on_error: str, finish: _t.Callable,
                   fail: _t.Callable) -> _t.Iterator[SweepItem]:
    """Inline execution with bounded retry (no pool, no preemption —
    ``timeout`` does not apply here)."""
    for i in pending:
        for attempt in range(retries + 1):
            try:
                value = fn(points[i])
            except Exception as exc:
                if attempt < retries:
                    time.sleep(retry_backoff(backoff, attempt))
                    continue
                if on_error == "raise":
                    raise
                yield from fail(i, PointFailure(
                    f"{type(exc).__name__}: {exc}", "error",
                    attempt + 1))
                break
            else:
                yield from finish(i, value)
                break


def _pool_rounds(points: _t.List[_t.Any], fn: _t.Callable,
                 pending: _t.List[int], n_workers: int,
                 timeout: _t.Optional[float], retries: int,
                 backoff: float, on_error: str, finish: _t.Callable,
                 fail: _t.Callable) -> _t.Iterator[SweepItem]:
    """Pool execution in rounds: each round runs the still-pending
    points on a *fresh* pool, so a worker death (which poisons a
    :class:`~concurrent.futures.ProcessPoolExecutor`) costs one attempt
    for the in-flight points — never the results already completed, and
    never the sweep."""
    attempts: _t.Dict[int, int] = {i: 0 for i in pending}
    failures: _t.Dict[int, PointFailure] = {}
    raisable: _t.Dict[int, BaseException] = {}
    todo = list(pending)
    round_no = 0
    while todo:
        if round_no:
            time.sleep(retry_backoff(backoff, round_no - 1))
        round_no += 1
        width = min(n_workers, len(todo))
        from repro.fabric.store import get_cache_backend
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=width, initializer=_worker_init,
            initargs=(get_cache_backend(),))
        retry: _t.List[int] = []
        drained = False
        abandoned = False
        try:
            futures = {pool.submit(fn, points[i]): i for i in todo}
            waiting = set(futures)
            deadline = None
            if timeout is not None:
                # soft per-point budget: the round gets one timeout per
                # submission wave (queued points have not started yet)
                deadline = time.monotonic() + timeout * -(-len(todo)
                                                          // width)
            while waiting:
                wait_for = None if deadline is None else max(
                    0.0, deadline - time.monotonic())
                done, waiting = concurrent.futures.wait(
                    waiting, timeout=wait_for,
                    return_when=concurrent.futures.FIRST_COMPLETED)
                if not done:
                    # budget exhausted: every straggler counts a
                    # timeout attempt; its worker is abandoned (a
                    # running future cannot be killed, only orphaned).
                    # Stragglers are charged in point order so the
                    # retry round is deterministic (futures are
                    # identity-hashed; raw set order is not).
                    for fut in sorted(waiting, key=futures.__getitem__):
                        i = futures[fut]
                        fut.cancel()
                        attempts[i] += 1
                        failures[i] = PointFailure(
                            f"timed out after {timeout}s", "timeout",
                            attempts[i])
                        retry.append(i)
                    waiting = set()
                    abandoned = True
                    break
                broken = False
                # completion batches arrive as identity-hashed sets;
                # iterate them in point order so a serial replay of the
                # same wave sequence yields results identically
                for fut in sorted(done, key=futures.__getitem__):
                    i = futures[fut]
                    try:
                        value = fut.result()
                    except BrokenProcessPool as exc:
                        broken = True
                        attempts[i] += 1
                        failures[i] = PointFailure(
                            f"worker died ({exc})", "worker-lost",
                            attempts[i])
                        retry.append(i)
                    except Exception as exc:
                        attempts[i] += 1
                        failures[i] = PointFailure(
                            f"{type(exc).__name__}: {exc}", "error",
                            attempts[i])
                        raisable[i] = exc
                        retry.append(i)
                    else:
                        yield from finish(i, value)
                if broken:
                    # the pool is poisoned: in-flight siblings are lost
                    # with it; charge them one attempt and rebuild —
                    # in point order, for a deterministic retry round
                    for fut in sorted(waiting, key=futures.__getitem__):
                        i = futures[fut]
                        attempts[i] += 1
                        failures[i] = PointFailure(
                            "worker died (pool broken)", "worker-lost",
                            attempts[i])
                        retry.append(i)
                    waiting = set()
            drained = True
        finally:
            # A consumer that abandons the stream (GeneratorExit) must
            # not block on the queued remainder, and neither may a
            # timed-out round; a fully drained round has every future
            # done, so waiting is free.
            pool.shutdown(wait=drained and not abandoned,
                          cancel_futures=True)
        todo = []
        for i in retry:
            if attempts[i] <= retries:
                todo.append(i)
                continue
            failure = failures[i]
            if on_error == "raise":
                exc = raisable.get(i)
                if exc is not None:
                    raise exc
                raise RuntimeError(
                    f"sweep point {i} failed after {failure.attempts} "
                    f"attempt(s): {failure.error}")
            yield from fail(i, failure)


def run_sweep(points: _t.Sequence[_t.Any], fn: _t.Callable[[_t.Any], _t.Any],
              workers: _t.Optional[int] = None,
              cache: _t.Optional[bool] = None,
              cache_dir: _t.Optional[_t.Union[str, pathlib.Path]] = None,
              tag: str = "",
              timeout: _t.Optional[float] = None,
              retries: int = 0,
              backoff: float = 0.5,
              on_error: str = "raise") -> _t.List[_t.Any]:
    """Evaluate ``fn(point)`` for every point, in order.

    This is the single fan-out/caching choke point of the repo: every
    figure, ablation, extension and CLI run routes its points through
    here (scenario sweeps via
    :func:`repro.scenarios.sweep_scenarios`), so ``--workers`` /
    ``--no-cache`` behave uniformly everywhere.  See ``docs/cli.md``
    for the user-facing semantics and ``docs/architecture.md`` for
    where the driver sits in the stack.

    Parameters
    ----------
    points:
        Picklable point descriptors.  Each must be a *pure description*
        of the run (configs, mode names, counts — no live objects):
        results are memoized on the descriptor's stable serialization
        (:func:`stable_token`), so anything that should invalidate a
        cached result must be part of the descriptor.
    fn:
        Module-level callable (picklable by reference when
        ``workers > 1``); must be deterministic in ``point`` — the
        cache stores its first result forever (until
        :data:`CACHE_VERSION` is bumped or the cache is cleared).
    workers:
        Process-pool width; ``None`` uses the :func:`configure`\\ d
        default (CLI ``--workers N``, env ``REPRO_WORKERS``).  With 1
        worker — or a single pending point — everything runs inline in
        this process (no pool, no pickling).  Cache hits never spawn
        workers.
    cache:
        Override the configured on-disk memoization (CLI
        ``--no-cache`` maps to ``False``; env ``REPRO_SWEEP_CACHE``
        sets the default).  Caching is best-effort: unreadable or
        corrupt entries recompute, write failures never fail the sweep.
    cache_dir:
        Cache root (default ``.perf_cache/``, env ``REPRO_CACHE_DIR``).
    tag:
        Cache-key namespace; defaults to ``fn``'s qualified name.
        Scenario sweeps pass one shared tag so equal scenarios dedupe
        *across* figures, examples and CLI runs (see
        :func:`repro.scenarios.scenario_cache_key`).
    timeout, retries, backoff, on_error:
        Robustness knobs, as documented on :func:`iter_sweep`.  Under
        ``on_error="return"`` a point that exhausts its attempts shows
        up in the result list as a :class:`PointFailure` instead of
        raising.

    Returns results in the same order as ``points``.
    """
    points = list(points)
    results: _t.List[_t.Any] = [None] * len(points)
    for item in iter_sweep(points, fn, workers=workers, cache=cache,
                           cache_dir=cache_dir, tag=tag, timeout=timeout,
                           retries=retries, backoff=backoff,
                           on_error=on_error):
        results[item.index] = item.value
    return results
