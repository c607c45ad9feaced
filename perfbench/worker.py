"""Child processes of the benchmark; each runs in a fresh interpreter.

``python perfbench/worker.py <command> ...`` with ``PYTHONPATH=src``:

``setup``    import repro, populate the registry, resolve the workload's
             scenarios, print ``ready`` and exit (timed by the parent);
``sweep``    the paper-figures or failure-sweep pass, written as JSON;
``prefill``  compute the fabric-serve points into a SQLite fabric root
             through the fabric worker loop;
``load``     drive a running fabric service with a closed loop of
             client threads.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import sys
import threading
import time
import typing as _t

import workloads as wl
from probe import REFERENCE_S, Meter, probe


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _backends() -> _t.Dict[str, str]:
    from repro.fabric import get_cache_backend
    from repro.simulate import get_engine_backend
    return {"engine": get_engine_backend(), "cache": get_cache_backend()}


class _Trace:
    """Install the profile's wrappers when tracing, and report what they
    recorded once restored."""

    def __init__(self, enabled: bool, profile: str) -> None:
        self.tracer = self.patches = None
        if enabled:
            import layers
            from tracing import Tracer
            self.tracer = Tracer()
            self.patches = layers.install(self.tracer, profile)

    def set_point(self, point: int) -> None:
        if self.tracer is not None:
            self.tracer.current_point = point

    def report(self, spans_path: _t.Optional[pathlib.Path]
               ) -> _t.Dict[str, _t.Any]:
        if self.tracer is None or self.patches is None:
            return {}
        self.patches.restore()
        if spans_path is not None:
            self.tracer.write(spans_path)
        return {"summary": self.tracer.summary(),
                "calls": self.patches.calls(),
                "leftovers": self.patches.leftovers()}


def _timed_sweep(points: _t.Sequence[_t.Any], trace: _Trace, every: float,
                 **kwargs: _t.Any) -> _t.Tuple[Meter, _t.Any]:
    """``repro.sweep`` timed per arriving result (the first from the
    call), with host-speed probes at least ``every`` seconds apart."""
    import repro
    meter = Meter(every)

    def arrived(_result: _t.Any) -> None:
        meter.mark()
        trace.set_point(len(meter.gaps))

    trace.set_point(0)
    results = repro.sweep(points, on_result=arrived, **kwargs)
    meter.close()
    return meter, results


def _layer_extras(results: _t.Sequence[_t.Any]) -> _t.Dict[str, float]:
    """Per-layer values read off the results of a pass."""
    def total(key: str) -> float:
        return float(sum(r.intra.get(key, 0.0) for r in results))

    executed = total("tasks_executed")
    return {
        "intra.sections": total("sections"),
        "intra.tasks_launched": total("tasks_launched"),
        "intra.tasks_executed": executed,
        "intra.update_msgs_sent": total("update_msgs_sent"),
        "intra.update_bytes_sent": total("update_bytes_sent"),
        "intra.reexec_ratio": (total("tasks_reexecuted") / executed
                               if executed else 0.0),
        "replication.crashes": float(sum(len(r.crashes) for r in results)),
        "replication.recoveries": total("recoveries"),
        "replication.restarts": total("restarts_completed"),
    }


def cmd_setup(args: argparse.Namespace) -> int:
    import repro
    if args.workload == "paper-figures":
        points = wl.paper_figure_inputs()
    else:
        points = [repro.scenario(n) for n in wl.grid_point_names(args.seed)]
    print(f"ready {len(points)}", flush=True)
    print(f"probe {probe()!r}", flush=True)
    return 0


class _Times:
    """Raw and reference-speed times of a workload's operations."""

    def __init__(self) -> None:
        self.raw: _t.List[float] = []
        self.ref: _t.List[float] = []

    def add(self, meter: Meter) -> None:
        self.raw += meter.gaps
        self.ref += meter.reference_gaps()

    def as_dict(self, name: str) -> _t.Dict[str, _t.List[float]]:
        return {name: self.raw, name[:-len("_s")] + "_ref_s": self.ref}


def cmd_sweep(args: argparse.Namespace) -> int:
    """One paper-figures sweep, or failure-sweep cycles of a cold pass
    (fresh cache directory) followed by warm passes."""
    trace = _Trace(args.trace, "sweep")
    from repro.kernels import csr_cache_info
    checks: _t.List[wl.Check] = []
    walls, points, warm = _Times(), _Times(), _Times()
    hits, reads = 0, 0
    computed: _t.List[_t.Any] = []      # every cold pass's results
    extras: _t.Dict[str, float] = {}
    if args.workload == "paper-figures":
        # points take 0.01-3 s: probe after every one
        meter, results = _timed_sweep(wl.paper_figure_inputs(), trace, 0.0,
                                      cache=False)
        points.add(meter)
        walls.raw.append(sum(points.raw))
        walls.ref.append(sum(points.ref))
        computed += results
        paper, effs = wl.paper_checks(results)
        checks += paper
        extras = {"intra.eff_p128": effs["intra_eff_p128"],
                  "replication.sdr_eff_p128": effs["sdr_eff_p128"]}
    else:
        effs = {}
        names = wl.grid_point_names(args.seed)
        started = time.perf_counter()
        for cycle in range(args.cold_passes):
            cache = {"cache": True,
                     "cache_dir": pathlib.Path(args.cache_dir) / str(cycle)}
            meter, cold = _timed_sweep(names, trace, 0.05, **cache)
            walls.raw.append(sum(meter.gaps))
            walls.ref.append(sum(meter.reference_gaps()))
            points.add(meter)
            digests = [wl.point_digest(r) for r in cold]
            if not computed:
                results, first = cold, digests
            computed += cold
            checks.append((f"cold{cycle}.bytes_equal_cold0", digests == first))
            hits += sum(bool(r.cache_hit) for r in cold)
            reads += len(cold)
            # warm passes fill this cycle's share of --seconds (checks
            # included, so the run's length is bounded by it)
            deadline = started + args.seconds * (cycle + 1) / args.cold_passes
            passes = 0
            while passes < 1 or time.perf_counter() < deadline:
                meter, again = _timed_sweep(names, trace, 0.05, **cache)
                warm.add(meter)
                passes += 1
                hits += sum(bool(r.cache_hit) for r in again)
                reads += len(again)
                checks.append((f"cold{cycle}.warm{passes}.all_hits",
                               all(r.cache_hit for r in again)))
                checks.append((f"cold{cycle}.warm{passes}.bytes_equal_cold",
                               [wl.point_digest(r) for r in again]
                               == digests))
        extras["perf.cache_hit_ratio"] = hits / reads
    failures = sum(not r.ok for r in computed)
    checks.append(("no_point_failures", failures == 0))
    csr = csr_cache_info()
    extras.update(_layer_extras(computed))
    extras["kernels.csr_cache_hit_ratio"] = (
        csr["hits"] / (csr["hits"] + csr["misses"])
        if csr["hits"] + csr["misses"] else 0.0)
    out = {"backends": _backends(), "effs": effs,
           **walls.as_dict("sweep_s"), **points.as_dict("point_s"),
           **warm.as_dict("warm_point_s"),
           "ops": len(computed) + len(warm.raw), "op_failures": failures,
           "digest": wl.combined_digest([wl.point_digest(r)
                                         for r in results]),
           "checks": checks, "rss_mb": _rss_mb(), "extras": extras,
           "trace": trace.report(args.spans)}
    pathlib.Path(args.out).write_text(json.dumps(out))
    return 0


def cmd_prefill(args: argparse.Namespace) -> int:
    """Fill each fabric root with the points, resolving, recording and
    enqueueing them and then running the fabric worker loop inline."""
    import repro
    from repro.fabric import Fabric
    from repro.fabric.worker import process_one
    from repro.results import RunResult
    names = wl.grid_point_names(args.seed)
    walls, points = _Times(), _Times()
    checks: _t.List[wl.Check] = []
    failures = 0
    for n, root in enumerate(args.roots):
        with Fabric(root, backend="sqlite") as fabric:
            meter = Meter(0.05)
            scenarios = [repro.scenario(name) for name in names]
            keys = [fabric.record_scenario(s) for s in scenarios]
            for s in scenarios:
                fabric.enqueue_scenario(s)
            while process_one(fabric, "perfbench-prefill") is not None:
                meter.mark()
            meter.close()
            stored = [fabric.load_result(k) for k in keys]
        points.add(meter)
        walls.raw.append(sum(meter.gaps))
        walls.ref.append(sum(meter.reference_gaps()))
        failures += sum(m is None for m in stored)
        digests = [wl.point_digest(RunResult.from_mode_run(m, s, cache_key=k))
                   if m is not None else "" for m, s, k in
                   zip(stored, scenarios, keys)]
        if n == 0:
            first = digests
        checks.append((f"prefill{n}.bytes_equal_prefill0", digests == first))
    checks.append(("prefill.all_points_stored", failures == 0))
    out = {**walls.as_dict("sweep_s"), **points.as_dict("point_s"),
           "names": names, "keys": keys,
           "point_digests": first, "digest": wl.combined_digest(first),
           "ops": len(points.raw), "op_failures": failures,
           "backends": _backends(), "checks": checks}
    pathlib.Path(args.out).write_text(json.dumps(out))
    return 0


#: fabric-serve requests between two host-speed probes
CHUNK = 100


def cmd_load(args: argparse.Namespace) -> int:
    """Closed loop of ``--clients`` threads over the seeded request plan,
    in chunks of CHUNK requests with probes between chunks, until
    ``--rounds`` whole rounds or ``--seconds`` have passed (whole rounds,
    at least one)."""
    trace = _Trace(args.trace, "client")
    from repro.fabric import FabricClient
    prefill = json.loads(pathlib.Path(args.prefill).read_text())
    names, keys = prefill["names"], prefill["keys"]
    plan = wl.request_plan(args.seed, len(names))
    clients = [FabricClient(args.url, timeout=30.0)
               for _ in range(args.clients)]
    # on the service's CPU, where the probes time the work's CPU
    os.sched_setaffinity(0, {args.cpu})
    lock = threading.Lock()
    done: _t.List[_t.Tuple[int, float, _t.Any]] = []
    req, walls = _Times(), _Times()
    speed = probe()
    sent = 0
    t0 = time.perf_counter()
    while True:
        at = sent % len(plan)
        chunk = iter(plan[at:at + CHUNK])
        latencies: _t.List[float] = []

        def client_loop(client: _t.Any) -> None:
            while True:
                with lock:
                    item = next(chunk, None)
                if item is None:
                    return
                route, i = item
                start = time.perf_counter()
                try:
                    got: _t.Any = (client.result(keys[i])
                                   if route == "result"
                                   else client.run(names[i], wait=False))
                except Exception as exc:  # noqa: BLE001 — counted failed
                    got = exc
                dt = time.perf_counter() - start
                with lock:
                    latencies.append(dt)
                    done.append((i, dt, got))

        threads = [threading.Thread(target=client_loop, args=(c,))
                   for c in clients]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - started
        after = probe()
        scale = REFERENCE_S / ((speed + after) / 2)
        req.raw += latencies
        req.ref += [dt * scale for dt in latencies]
        walls.raw.append(wall)
        walls.ref.append(wall * scale)
        speed = after
        sent += CHUNK
        if sent % len(plan) == 0 and (
                sent // len(plan) >= args.rounds if args.rounds
                else time.perf_counter() - t0 >= args.seconds):
            break
    stats = FabricClient(args.url).stats()
    report = trace.report(args.spans)
    expected = prefill["point_digests"]
    failures = sum(isinstance(got, Exception) or got is None
                   or wl.point_digest(got) != expected[i]
                   for i, _, got in done)
    served = stats["hits"] + stats["misses"]
    out = {"wall_s": sum(walls.raw), "wall_ref_s": sum(walls.ref),
           **req.as_dict("req_s"), "ops": len(done),
           "op_failures": failures,
           "stats_hit_ratio": stats["hits"] / served if served else 0.0,
           "checks": [("serve.no_misses", stats["misses"] == 0)],
           "trace": report}
    pathlib.Path(args.out).write_text(json.dumps(out))
    return 0


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/worker.py")
    sub = parser.add_subparsers(dest="command", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--workload", choices=wl.WORKLOADS[:2],
                       required=True)
    setup.add_argument("--seed", type=int, required=True)
    sweep = sub.add_parser("sweep")
    sweep.add_argument("--workload", choices=wl.WORKLOADS[:2],
                       required=True)
    sweep.add_argument("--seed", type=int, required=True)
    sweep.add_argument("--seconds", type=float, required=True)
    sweep.add_argument("--cold-passes", type=int, default=1)
    sweep.add_argument("--cache-dir")
    sweep.add_argument("--trace", type=int, default=0)
    sweep.add_argument("--spans", type=pathlib.Path)
    sweep.add_argument("--out", required=True)
    prefill = sub.add_parser("prefill")
    prefill.add_argument("--seed", type=int, required=True)
    prefill.add_argument("--roots", nargs="+", required=True)
    prefill.add_argument("--out", required=True)
    load = sub.add_parser("load")
    load.add_argument("--url", required=True)
    load.add_argument("--seed", type=int, required=True)
    load.add_argument("--prefill", required=True)
    load.add_argument("--clients", type=int, default=2)
    load.add_argument("--cpu", type=int, required=True,
                      help="the CPU the service is pinned to")
    load.add_argument("--seconds", type=float, default=0.0)
    load.add_argument("--rounds", type=int, default=0)
    load.add_argument("--trace", type=int, default=0)
    load.add_argument("--spans", type=pathlib.Path)
    load.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    return {"setup": cmd_setup, "sweep": cmd_sweep, "prefill": cmd_prefill,
            "load": cmd_load}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
