"""End-to-end benchmark of the replication simulator, its sweep cache
and its result service.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see perfbench/README.md):

``paper-figures``  the paper's figure scenarios: cold, serial, cache-off
                   sweeps, each in a fresh interpreter;
``failure-sweep``  a seeded grid:failures slice plus grid:restart through
                   the result cache: cold passes, each followed by warm
                   passes;
``fabric-serve``   the same points served by ``repro.fabric.serve`` from a
                   SQLite fabric root to a closed loop of 2 client threads.

Timings in the result line are scaled to reference host speed (see
perfbench/probe.py); the raw times are on the detail line.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run plus the
tracing overhead.  The line before it holds provenance and the
workload's own figures.  Every layer timing is taken by this package's
wrappers around repro's public functions; repro itself is unchanged and
no ``REPRO_*`` variable is set.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import typing as _t
import urllib.error
import urllib.parse
import urllib.request

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from probe import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: (name, unit); every workload reports each of them
END_TO_END = [("setup_s", "s"), ("sweep_s", "s"), ("point_ms_p50", "ms"),
              ("point_ms_tail", "ms"), ("op_ms_p50", "ms"),
              ("op_ms_tail", "ms"), ("op_per_s", "1/s"),
              ("peak_rss_mb", "MB")]
#: target percentile of the tail metrics (see stats.tail_q); the detail
#: line adds p99 where at least 10 samples lie beyond it
TAIL = 95.0
#: set-ups per run; setup_s is their median
SETUP_REPEATS = 5
#: timed cold passes per run, reported as their median: paper-figures
#: sweeps (each in a fresh interpreter), failure-sweep cold passes and
#: fabric-serve prefills (each into a fresh directory)
COLD_PASSES = {"paper-figures": 2, "failure-sweep": 3, "fabric-serve": 3}
#: load-generator threads of fabric-serve
CLIENTS = 2
#: the fabric service and its load generator share one CPU, so that a
#: request never waits for the host to wake another vCPU and the probe
#: between request chunks times the CPU that does the work
FABRIC_CPU = min(os.sched_getaffinity(0))
#: no single child may outlive this, so a run ends within 180 s
CHILD_TIMEOUT = 150.0


class Run:
    """One benchmark invocation: its scratch directory, the child
    processes it starts and the checks it accumulates."""

    def __init__(self, root: pathlib.Path, workload: str, seed: int,
                 seconds: float, trace: bool) -> None:
        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.trace = seconds, trace
        self.work = root / ".perfbench" / f"run-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]]
                                   if self.env.get("PYTHONPATH") else []))
        self.checks: _t.List[_t.Tuple[str, bool]] = []
        self.ops = 0
        self.op_failures = 0
        self._services: _t.List[subprocess.Popen] = []
        #: calls recorded per wrapper by the traced run
        self.wrapper_calls: _t.Dict[str, float] = {}

    def spans(self, tag: str) -> pathlib.Path:
        """Where a traced process writes its spans; kept after the run."""
        trace_dir = self.root / ".perfbench" / "trace"
        return trace_dir / f"{self.workload}-{tag}.json"

    # ------------------------------------------------------- children
    def _argv(self, script: str, *args: _t.Any) -> _t.List[str]:
        return [sys.executable, str(HERE / script), *map(str, args)]

    def child(self, *args: _t.Any) -> None:
        subprocess.run(self._argv("worker.py", *args), cwd=self.root,
                       env=self.env, check=True, timeout=CHILD_TIMEOUT,
                       stdout=subprocess.DEVNULL)

    def child_json(self, name: str, *args: _t.Any) -> _t.Dict[str, _t.Any]:
        out = self.work / f"{name}.json"
        self.child(*args, "--out", out)
        return json.loads(out.read_text())

    def time_setup(self) -> _t.Tuple[float, float]:
        """Interpreter start → registry populated and the workload's
        scenarios resolved: (seconds, seconds at reference speed)."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            self._argv("worker.py", "setup", "--workload", self.workload,
                       "--seed", self.seed),
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline() if proc.stdout else ""
            elapsed = time.perf_counter() - t0
            speed = proc.stdout.readline() if proc.stdout else ""
            if not (line.startswith("ready") and speed.startswith("probe")):
                raise RuntimeError(f"setup child said {line + speed!r}")
        finally:
            if proc.stdout:
                proc.stdout.close()
            rc = proc.wait(timeout=CHILD_TIMEOUT)
        if rc:
            raise RuntimeError(f"setup child exited {rc}")
        return elapsed, elapsed * REFERENCE_S / float(speed.split()[1])

    def start_service(self, fabric_root: pathlib.Path, tag: str,
                      first_name: str, trace: bool) -> _t.Tuple[
                          subprocess.Popen, str, _t.Tuple[float, float],
                          pathlib.Path]:
        """Launch the fabric service; returns once ``/healthz`` and a
        first ``/scenario`` lookup (which loads the registry) answer
        200, with the time that took (raw and at reference speed)."""
        out = self.work / f"serve-{tag}.json"
        err_path = self.work / f"serve-{tag}.err"
        args = ["--root", fabric_root, "--out", out, "--trace", int(trace),
                "--cpu", FABRIC_CPU]
        if trace:
            args += ["--spans", self.spans(f"serve-{tag}")]
        t0 = time.perf_counter()
        with open(err_path, "w") as err:
            proc = subprocess.Popen(self._argv("serve_launcher.py", *args),
                                    cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
        self._services.append(proc)
        deadline = t0 + 60
        url = ""
        while not url:
            for line in err_path.read_text().splitlines():
                if line.startswith("probe "):
                    speed = float(line.split()[1])
                if line.startswith("fabric service on "):
                    url = line.split()[3]
            if proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("fabric service did not start: "
                                   + err_path.read_text()[-2000:])
            time.sleep(0.002)
        route = "/scenario/" + urllib.parse.quote(first_name, safe="")
        for path in ("/healthz", route):
            while _status(url + path) != 200:
                if proc.poll() is not None or time.perf_counter() > deadline:
                    raise RuntimeError(f"fabric service never answered "
                                       f"{path} with 200")
                time.sleep(0.002)
        elapsed = time.perf_counter() - t0
        return proc, url, (elapsed, elapsed * REFERENCE_S / speed), out

    def stop_service(self, proc: subprocess.Popen,
                     out: pathlib.Path) -> _t.Dict[str, _t.Any]:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        self._services.remove(proc)
        return json.loads(out.read_text())

    def close(self) -> None:
        for proc in list(self._services):
            proc.kill()
            proc.wait()
        shutil.rmtree(self.work, ignore_errors=True)

    # --------------------------------------------------------- checks
    def add(self, part: _t.Mapping[str, _t.Any]) -> None:
        """Count a child's operations and checks."""
        self.ops += part.get("ops", 0)
        self.op_failures += part.get("op_failures", 0)
        self.checks += [(name, bool(ok)) for name, ok in
                        part.get("checks", ())]

    def check_digest(self, key: str, digest: str) -> None:
        """The result digest must equal the one any earlier run in this
        checkout recorded for the same inputs."""
        ledger_path = self.root / ".perfbench" / "digests.json"
        ledger = (json.loads(ledger_path.read_text())
                  if ledger_path.exists() else {})
        known = ledger.setdefault(key, digest)
        self.checks.append((f"digest_matches_earlier_runs[{key}]",
                            known == digest))
        tmp = ledger_path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        tmp.replace(ledger_path)

    def check_trace(self, report: _t.Mapping[str, _t.Any]) -> None:
        self.wrapper_calls = dict(report["calls"])
        silent = layers.silent_wrappers(self.workload, report["calls"])
        self.checks += [(f"wrapper_fired[{w}]", False) for w in silent]
        self.checks.append(("wrappers_fired", not silent))
        self.checks.append(("patches_restored", not report["leftovers"]))

    def failed_checks(self) -> _t.List[str]:
        return [name for name, ok in self.checks if not ok]


def _status(url: str) -> int:
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            resp.read()
            return resp.status
    except urllib.error.HTTPError as err:
        return err.code
    except OSError:
        return 0


def _ledger_key(workload: str, seed: int) -> str:
    # failure-sweep and fabric-serve compute the same points, so their
    # digests for one seed must agree with each other too
    return "paper-figures" if workload == "paper-figures" \
        else f"grid-points:seed={seed}"


# --------------------------------------------------------------- workloads
def _sweep_args(run: Run, tag: str, trace: bool) -> _t.List[_t.Any]:
    args: _t.List[_t.Any] = ["sweep", "--workload", run.workload, "--seed",
                             run.seed, "--seconds", run.seconds,
                             "--trace", int(trace)]
    if run.workload == "failure-sweep":
        args += ["--cache-dir", run.work / f"cache-{tag}",
                 "--cold-passes", COLD_PASSES[run.workload]]
    if trace:
        args += ["--spans", run.spans(tag)]
    return args


def _sweeps(run: Run, tag: str, trace: bool,
            children: int = 1) -> _t.Dict[str, _t.Any]:
    """Sweep children's results: lists concatenated, peak RSS the
    largest, anything else from the last child."""
    merged: _t.Dict[str, _t.Any] = {}
    for k in range(children):
        part = run.child_json(f"{tag}{k}",
                              *_sweep_args(run, f"{tag}{k}", trace))
        run.add(part)
        run.check_digest(_ledger_key(run.workload, run.seed),
                         part["digest"])
        for key, value in part.items():
            if isinstance(value, list) and key in merged:
                merged[key] = merged[key] + value
            elif key == "rss_mb" and key in merged:
                merged[key] = max(merged[key], value)
            else:
                merged[key] = value
    return merged


def sweep_workload(run: Run) -> _t.Tuple[_t.Dict[str, float],
                                         _t.Dict[str, _t.Any]]:
    """paper-figures / failure-sweep: (metrics, detail)."""
    if run.trace:
        plain = _sweeps(run, "plain", False)
        traced = _sweeps(run, "traced", True)
        run.checks.append(("traced_digest_equals_untraced",
                           plain["digest"] == traced["digest"]))
        run.check_trace(traced["trace"])
        untraced_s = statistics.median(plain["sweep_ref_s"])
        traced_s = statistics.median(traced["sweep_ref_s"])
        extra = dict(traced["extras"])
        extra.update({"trace.untraced_s": untraced_s,
                      "trace.traced_s": traced_s,
                      "trace.overhead_s": traced_s - untraced_s})
        metrics = layers.per_layer(traced["trace"]["summary"], extra)
        return metrics, {"result_digest": traced["digest"],
                         "backends": traced["backends"]}

    setups = [run.time_setup() for _ in range(SETUP_REPEATS)]
    # paper-figures sweeps each need a fresh interpreter; failure-sweep
    # runs its cold passes in one child
    res = _sweeps(run, "sweep", False, children=(
        COLD_PASSES[run.workload] if run.workload == "paper-figures" else 1))

    def end_to_end(k: int, kind: str) -> _t.Tuple[
            _t.Dict[str, float], _t.Tuple[_t.Dict[str, float],
                                          _t.Dict[str, float]]]:
        # warm reads are failure-sweep's repeated operation; the figure
        # points are paper-figures' only one
        ops = res[f"warm_point{kind}"] or res[f"point{kind}"]
        return _end_to_end([s[k] for s in setups], res[f"sweep{kind}"],
                           res[f"point{kind}"], ops, sum(ops), res["rss_mb"])

    metrics, _ = end_to_end(1, "_ref_s")
    raw, (p, o) = end_to_end(0, "_s")
    detail: _t.Dict[str, _t.Any] = {
        "result_digest": res["digest"], "backends": res["backends"],
        "raw": raw, "setup_samples_s": [s[0] for s in setups],
        "sweep_samples_s": res["sweep_s"],
        "samples": {"point": _sample_info(p), "op": _sample_info(o)}}
    if run.workload == "paper-figures":
        effs = res["effs"]
        detail["paper_figures"] = {
            "sweep_s": raw["sweep_s"], "sdr_eff": effs["sdr_eff_p128"],
            "intra_eff": effs["intra_eff_p128"], "fig5b_efficiencies": effs}
    else:
        detail["failure_sweep"] = {
            "sweep_s": raw["sweep_s"], "point_ms_p50": raw["point_ms_p50"],
            f"point_ms_p{p['tail_q']:g}": raw["point_ms_tail"],
            "warm_point_ms_p50": raw["op_ms_p50"],
            f"warm_point_ms_p{o['tail_q']:g}": raw["op_ms_tail"],
            **_p99("warm_point_ms_p99", res["warm_point_s"])}
    return metrics, detail


def _end_to_end(setups: _t.Sequence[float], sweeps: _t.Sequence[float],
                points: _t.Sequence[float], ops: _t.Sequence[float],
                op_wall: float, rss_mb: float) -> _t.Tuple[
                    _t.Dict[str, float], _t.Tuple[_t.Dict[str, float],
                                                  _t.Dict[str, float]]]:
    """The end-to-end metrics from per-operation times in seconds, and
    the point and operation summaries behind them."""
    p, o = stats.summarize(points, TAIL), stats.summarize(ops, TAIL)
    return {"setup_s": statistics.median(setups),
            "sweep_s": statistics.median(sweeps),
            "point_ms_p50": 1e3 * p["p50"], "point_ms_tail": 1e3 * p["tail"],
            "op_ms_p50": 1e3 * o["p50"], "op_ms_tail": 1e3 * o["tail"],
            "op_per_s": len(ops) / op_wall, "peak_rss_mb": rss_mb}, (p, o)


def fabric_workload(run: Run) -> _t.Tuple[_t.Dict[str, float],
                                          _t.Dict[str, _t.Any]]:
    roots = [run.work / f"fabric{k}"
             for k in range(COLD_PASSES["fabric-serve"])]
    root = roots[0]
    prefill_path = run.work / "prefill.json"
    run.child("prefill", "--seed", run.seed, "--roots", *roots,
              "--out", prefill_path)
    prefill = json.loads(prefill_path.read_text())
    run.add(prefill)
    first = prefill["names"][0]

    def load(url: str, tag: str, trace: bool,
             **budget: _t.Any) -> _t.Dict[str, _t.Any]:
        args: _t.List[_t.Any] = [
            "load", "--url", url, "--seed", run.seed, "--prefill",
            prefill_path, "--clients", CLIENTS, "--trace", int(trace),
            "--cpu", FABRIC_CPU]
        for k, v in budget.items():
            args += [f"--{k}", v]
        if trace:
            args += ["--spans", run.spans(f"client-{tag}")]
        part = run.child_json(f"load-{tag}", *args)
        run.add(part)
        return part

    if run.trace:
        # one round against an untraced service, after a warm-up round
        # that fills the page cache, then one round traced
        parts = {}
        for tag, traced in (("plain", False), ("traced", True)):
            proc, url, _, out = run.start_service(root, tag, first, traced)
            if not traced:
                load(url, "warmup", False, rounds=1)
            parts[tag] = load(url, tag, traced, rounds=1)
            served = run.stop_service(proc, out)
        reports = [served["trace"], parts["traced"]["trace"]]
        walls = {tag: part["wall_ref_s"] for tag, part in parts.items()}
        summary = tracing.merge_summaries(r["summary"] for r in reports)
        calls: _t.Dict[str, float] = {}
        for r in reports:
            calls.update(r["calls"])
        run.check_trace({"calls": calls, "leftovers": sum(
            (r["leftovers"] for r in reports), [])})
        run.check_digest(_ledger_key(run.workload, run.seed),
                         prefill["digest"])
        metrics = layers.per_layer(summary, {
            "fabric.stats_hit_ratio": parts["traced"]["stats_hit_ratio"],
            "trace.untraced_s": walls["plain"],
            "trace.traced_s": walls["traced"],
            "trace.overhead_s": walls["traced"] - walls["plain"]})
        return metrics, {"result_digest": prefill["digest"],
                         "backends": prefill["backends"]}

    setups = []
    for k in range(SETUP_REPEATS):
        proc, url, elapsed, out = run.start_service(root, f"setup{k}",
                                                    first, False)
        setups.append(elapsed)
        if k < SETUP_REPEATS - 1:
            run.stop_service(proc, out)
    part = load(url, "run", False, seconds=run.seconds)
    served = run.stop_service(proc, out)
    run.check_digest(_ledger_key(run.workload, run.seed), prefill["digest"])

    def end_to_end(k: int, kind: str) -> _t.Tuple[
            _t.Dict[str, float], _t.Tuple[_t.Dict[str, float],
                                          _t.Dict[str, float]]]:
        return _end_to_end([s[k] for s in setups], prefill[f"sweep{kind}"],
                           prefill[f"point{kind}"], part[f"req{kind}"],
                           part[f"wall{kind}"], served["rss_mb"])

    metrics, _ = end_to_end(1, "_ref_s")
    raw, (p, o) = end_to_end(0, "_s")
    return metrics, {
        "result_digest": prefill["digest"], "backends": prefill["backends"],
        "raw": raw, "setup_samples_s": [s[0] for s in setups],
        "sweep_samples_s": prefill["sweep_s"],
        "samples": {"point": _sample_info(p), "op": _sample_info(o)},
        "fabric_serve": {"req_ms_p50": raw["op_ms_p50"],
                         f"req_ms_p{o['tail_q']:g}": raw["op_ms_tail"],
                         **_p99("req_ms_p99", part["req_s"]),
                         "req_per_s": raw["op_per_s"],
                         "stats_hit_ratio": part["stats_hit_ratio"]}}


def _p99(name: str, samples: _t.Sequence[float]) -> _t.Dict[str, float]:
    """``{name: p99 in ms}`` when at least 10 samples lie beyond it."""
    if stats.beyond(len(samples), 99) < stats.MIN_BEYOND:
        return {}
    return {name: 1e3 * stats.percentile(samples, 99)}


def _sample_info(summary: _t.Mapping[str, float]) -> _t.Dict[str, float]:
    return {"n": summary["n"], "tail_q": summary["tail_q"],
            "beyond_tail": stats.beyond(int(summary["n"]),
                                        summary["tail_q"])}


def _git_commit(root: pathlib.Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro is "
              "missing)", file=sys.stderr)
        return 2

    # a termination request unwinds through the finally below, which
    # stops every child process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(root, args.workload, args.seed, args.seconds,
              bool(args.trace))
    try:
        if args.workload == "fabric-serve":
            metrics, detail = fabric_workload(run)
        else:
            metrics, detail = sweep_workload(run)
    finally:
        run.close()

    failed = run.op_failures + len(run.failed_checks())
    attempted = run.ops + len(run.checks)
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "error_rate": failed / attempted,
        "wrapper_calls": run.wrapper_calls, "failed_checks":
            run.failed_checks(), "checks": len(run.checks),
        "provenance": {"cpu_count": os.cpu_count(),
                       "python": platform.python_version(),
                       "numpy": np.__version__,
                       "git_commit": _git_commit(root),
                       "clients": CLIENTS if args.workload == "fabric-serve"
                       else 1}})
    print(json.dumps(detail, sort_keys=True))
    units = (dict(END_TO_END) if not args.trace
             else layers.PER_LAYER_UNITS)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
