"""Which of repro's public functions the traced run wraps, per process.

Three profiles, one per kind of process the benchmark starts:

``sweep``
    a process that simulates (paper-figures, failure-sweep): the
    simulate / mpi / netmodel / kernels / apps / scenarios / perf layers;
``serve``
    the fabric service: request handling, store and queue reads, result
    encoding and the scenario lookups of the ``/scenario`` route;
``client``
    the fabric-serve load generator: the HTTP client and result decoding.

Counters and spans are named ``<layer>.<what>``; :func:`per_layer`
turns the merged summaries of all processes into the per-layer metrics.
"""

from __future__ import annotations

import typing as _t

from tracing import (Patches, Tracer, count_wrapper, generator_wrapper,
                     span_wrapper)

KERNELS = ("spmv_rows", "ddot_partial", "waxpby", "apply_27pt", "apply_7pt",
           "push_particles", "charge_deposit", "grid_sum_partial",
           "solve_field", "build_stencil_csr")
APP_DISPATCHERS = ("kernel_waxpby", "kernel_ddot", "kernel_spmv",
                   "kernel_grid_sum")
COLLECTIVES = ("barrier", "bcast", "reduce", "allreduce", "gather",
               "allgather", "scatter", "alltoall")
CHARGES = ("compute", "compute_batch", "charge_batch", "memcpy")
ROUTES = ("result", "scenario", "healthz", "stats")

PROFILES = ("sweep", "serve", "client")


def install(tracer: Tracer, profile: str) -> Patches:
    """Wrap the profile's targets; the caller restores them with
    :meth:`Patches.restore`."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    import repro
    import repro.api
    import repro.experiments  # noqa: F401  (binds every app module)
    p = Patches()

    def span_f(module: _t.Any, attr: str, name: str) -> None:
        p.function(module, attr, lambda f: span_wrapper(tracer, name, f),
                   name)

    def span_m(cls: type, attr: str, name: str) -> None:
        p.method(cls, attr, lambda f: span_wrapper(tracer, name, f),
                 f"{name}:{cls.__name__}.{attr}")

    def count_m(cls: type, attr: str, name: str,
                size: _t.Optional[_t.Tuple[str, int, str]] = None) -> None:
        p.method(cls, attr, lambda f: count_wrapper(tracer, name, f, size),
                 f"{name}:{cls.__name__}.{attr}")

    from repro.fabric.store import FileStore, SqliteStore
    from repro.scenarios import run as scen_run

    # scenario resolution and cache keys happen in every process kind
    # except the load generator
    if profile != "client":
        span_f(repro.api, "scenario", "scenarios.resolve")
        span_f(scen_run, "scenario_cache_key", "scenarios.cache_key")

    if profile == "sweep":
        import repro.apps.common as app_common
        import repro.kernels as kernels
        from repro.mpi.collectives import CollectiveOps
        from repro.mpi.world import MpiWorld, ProcContext
        from repro.netmodel.network import Network
        from repro.scenarios import failures
        from repro.simulate.engine import Simulator

        span_m(MpiWorld, "run", "simulate.run")
        count_m(Simulator, "process", "simulate.processes")
        count_m(Simulator, "sleep", "simulate.sleeps")
        count_m(Simulator, "sleep_until", "simulate.sleeps")
        count_m(MpiWorld, "post_send", "mpi.messages",
                size=("mpi.bytes", 7, "nbytes"))
        for attr in COLLECTIVES:
            count_m(CollectiveOps, attr, "mpi.collectives")
        for attr in CHARGES:
            count_m(ProcContext, attr, "mpi.compute_charges")
        count_m(Network, "transfer", "netmodel.transfers",
                size=("netmodel.bytes", 3, "nbytes"))
        count_m(MpiWorld, "kill_endpoint", "replication.kills")
        for fn in KERNELS:
            span_f(kernels, fn, f"kernels.{fn}")
        for fn in APP_DISPATCHERS:
            name = f"apps.{fn}"
            p.function(app_common, fn,
                       lambda f, n=name: generator_wrapper(tracer, n, f),
                       name)
        span_f(scen_run, "make_world", "scenarios.make_world")
        for cls in vars(failures).values():
            if (isinstance(cls, type) and "materialize" in vars(cls)
                    and issubclass(cls, failures.FailureSchedule)):
                span_m(cls, "materialize", "scenarios.materialize")
        for store in (FileStore, SqliteStore):
            span_m(store, "get", "perf.store_get")
            span_m(store, "put", "perf.store_put")

    elif profile == "serve":
        from repro.fabric import serve
        from repro.fabric.queue import WorkQueue
        from repro.results import RunResult

        def route_counter(f: _t.Callable[..., None]) -> _t.Callable[..., None]:
            traced = span_wrapper(tracer, "fabric.serve.request", f)

            def do_get(handler: _t.Any) -> None:
                route = handler.path.split("?", 1)[0].strip("/").split("/")[0]
                if route in ROUTES:
                    tracer.count(f"fabric.serve.requests.{route}")
                traced(handler)
            do_get.calls = traced.calls  # type: ignore[attr-defined]
            return do_get
        p.method(serve._Handler, "do_GET", route_counter,
                 "fabric.serve.request")
        span_m(WorkQueue, "scenario_for", "fabric.queue.scenario_for")
        for store in (FileStore, SqliteStore):
            span_m(store, "get", "fabric.store.get")
        span_m(RunResult, "to_json", "results.to_json")

    else:
        from repro.fabric.client import FabricClient
        from repro.results import RunResult
        span_m(FabricClient, "_get", "fabric.client")
        span_m(RunResult, "from_json", "results.from_json")
    return p


#: wrappers no workload can fire: nothing in src/ calls these (the
#: abstract base schedule's materialize is always overridden)
NEVER_CALLED = (
    "kernels.apply_7pt",
    *[f"mpi.collectives:CollectiveOps.{c}" for c in
      ("barrier", "gather", "allgather", "scatter", "alltoall")],
    "scenarios.materialize:FailureSchedule.materialize",
)

#: wrappers whose layer (or code path) the workload does not reach
NOT_REACHED = {
    "paper-figures": (
        # cache off: no result store; no failure schedules, so no kills
        *[f"perf.store_{op}:{s}.{op}" for op in ("get", "put")
          for s in ("FileStore", "SqliteStore")],
        "replication.kills:MpiWorld.kill_endpoint",
        *[f"scenarios.materialize:{c}.materialize" for c in
          ("CascadingFailures", "FixedFailures", "_SeededArrivals")],
    ),
    "failure-sweep": (
        # HPCCG kernel-bench and StepSum points only, on the file store;
        # sweep cache keys are computed by the perf layer itself
        "kernels.apply_27pt", "kernels.charge_deposit",
        "kernels.grid_sum_partial", "kernels.push_particles",
        "kernels.solve_field", "apps.kernel_grid_sum",
        "mpi.compute_charges:ProcContext.compute_batch",
        "mpi.compute_charges:ProcContext.memcpy",
        "perf.store_get:SqliteStore.get", "perf.store_put:SqliteStore.put",
        "scenarios.cache_key",
    ),
    # the service reads a SQLite fabric root
    "fabric-serve": ("fabric.store.get:FileStore.get",),
}


def silent_wrappers(workload: str, calls: _t.Mapping[str, float]
                    ) -> _t.List[str]:
    """Wrappers that recorded no call although the workload reaches
    their code — a binding the patch missed, or a path that stopped
    running."""
    allowed = set(NEVER_CALLED) | set(NOT_REACHED[workload])
    return sorted(label for label, n in calls.items()
                  if n == 0 and label not in allowed)


# ------------------------------------------------------- per-layer metrics
PER_LAYER: _t.List[_t.Tuple[str, str, str]] = [
    ("simulate.run_s", "s", "lower"),
    ("simulate.self_s", "s", "lower"),
    ("simulate.processes", "count", "lower"),
    ("simulate.sleeps", "count", "lower"),
    ("mpi.messages", "count", "lower"),
    ("mpi.bytes", "bytes", "lower"),
    ("mpi.collectives", "count", "lower"),
    ("mpi.compute_charges", "count", "lower"),
    ("netmodel.transfers", "count", "lower"),
    ("netmodel.bytes", "bytes", "lower"),
    *[(f"kernels.{fn}.{m}", u, "lower") for fn in KERNELS
      for m, u in (("calls", "count"), ("self_s", "s"))],
    ("kernels.csr_cache_hit_ratio", "ratio", "higher"),
    *[(f"apps.{fn}.calls", "count", "lower") for fn in APP_DISPATCHERS],
    ("apps.self_s", "s", "lower"),
    ("intra.sections", "count", "lower"),
    ("intra.tasks_launched", "count", "lower"),
    ("intra.tasks_executed", "count", "lower"),
    ("intra.update_msgs_sent", "count", "lower"),
    ("intra.update_bytes_sent", "bytes", "lower"),
    ("intra.reexec_ratio", "ratio", "lower"),
    ("intra.eff_p128", "ratio", "higher"),
    ("replication.sdr_eff_p128", "ratio", "higher"),
    ("replication.crashes", "count", "lower"),
    ("replication.kills", "count", "lower"),
    ("replication.recoveries", "count", "lower"),
    ("replication.restarts", "count", "lower"),
    ("scenarios.resolve_s", "s", "lower"),
    ("scenarios.cache_key_s", "s", "lower"),
    ("scenarios.make_world_s", "s", "lower"),
    ("scenarios.materialize_s", "s", "lower"),
    ("perf.store_get.calls", "count", "lower"),
    ("perf.store_get.s", "s", "lower"),
    ("perf.store_put.calls", "count", "lower"),
    ("perf.store_put.s", "s", "lower"),
    ("perf.cache_hit_ratio", "ratio", "higher"),
    *[(f"fabric.serve.requests.{r}", "count", "higher") for r in ROUTES],
    ("fabric.serve.request_s", "s", "lower"),
    ("fabric.store.get_s", "s", "lower"),
    ("fabric.queue.scenario_for_s", "s", "lower"),
    ("fabric.client.s", "s", "lower"),
    ("fabric.stats_hit_ratio", "ratio", "higher"),
    ("results.to_json_s", "s", "lower"),
    ("results.from_json_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def per_layer(summary: _t.Mapping[str, _t.Any],
              extra: _t.Mapping[str, float]) -> _t.Dict[str, float]:
    """Every :data:`PER_LAYER` metric from a merged trace summary plus
    the values measured outside the spans (``extra``); a layer the
    workload does not reach reads 0."""
    spans = summary.get("spans", {})
    counters = summary.get("counters", {})

    def incl(name: str) -> float:
        return float(spans.get(name, {}).get("incl_s", 0.0))

    def own(name: str) -> float:
        return float(spans.get(name, {}).get("self_s", 0.0))

    def calls(name: str) -> float:
        return float(spans.get(name, {}).get("count", 0))

    out = {name: 0.0 for name, _, _ in PER_LAYER}
    for name in ("simulate.processes", "simulate.sleeps", "mpi.messages",
                 "mpi.bytes", "mpi.collectives", "mpi.compute_charges",
                 "netmodel.transfers", "netmodel.bytes",
                 "replication.kills"):
        out[name] = float(counters.get(name, 0))
    out["simulate.run_s"] = incl("simulate.run")
    out["simulate.self_s"] = own("simulate.run")
    for fn in KERNELS:
        out[f"kernels.{fn}.calls"] = calls(f"kernels.{fn}")
        out[f"kernels.{fn}.self_s"] = own(f"kernels.{fn}")
    for fn in APP_DISPATCHERS:
        out[f"apps.{fn}.calls"] = float(counters.get(f"apps.{fn}.calls", 0))
    out["apps.self_s"] = sum(own(f"apps.{fn}") for fn in APP_DISPATCHERS)
    for what in ("resolve", "cache_key", "make_world", "materialize"):
        out[f"scenarios.{what}_s"] = incl(f"scenarios.{what}")
    for op in ("get", "put"):
        out[f"perf.store_{op}.calls"] = calls(f"perf.store_{op}")
        out[f"perf.store_{op}.s"] = incl(f"perf.store_{op}")
    for route in ROUTES:
        out[f"fabric.serve.requests.{route}"] = float(
            counters.get(f"fabric.serve.requests.{route}", 0))
    out["fabric.serve.request_s"] = incl("fabric.serve.request")
    out["fabric.store.get_s"] = incl("fabric.store.get")
    out["fabric.queue.scenario_for_s"] = incl("fabric.queue.scenario_for")
    out["fabric.client.s"] = incl("fabric.client")
    out["results.to_json_s"] = incl("results.to_json")
    out["results.from_json_s"] = incl("results.from_json")
    for name, value in extra.items():
        if name not in out:
            raise KeyError(f"{name} is not a per-layer metric")
        out[name] = float(value)
    return out
