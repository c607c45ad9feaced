"""The fabric result service: cached simulations over HTTP.

``python -m repro.fabric.serve --root DIR`` exposes one fabric root
(stdlib :class:`~http.server.ThreadingHTTPServer`; no third-party
dependencies) so results can be *served* instead of recomputed:

``GET /healthz``
    200 liveness probe.
``GET /stats``
    200 — service hit/miss counters plus the store and queue
    snapshots.
``GET /result/<cache_key>``
    200 with the lossless :class:`~repro.results.RunResult` JSON on a
    warm hit; 202 (and an enqueue for the workers) when the key is
    known but cold; 404 when the fabric has never seen the key —
    resolve it through ``/scenario/<name>`` first.
``GET /scenario/<name>``
    Resolves a registry name (grid members included) to its cache key,
    records the binding, then behaves like ``/result``: 200 on warm,
    202 + enqueue on cold, 404 (with suggestions) for unknown names.

Responses are JSON; a warm ``RunResult`` round-trips bytes-exactly
through :meth:`~repro.results.RunResult.from_json`, which is what
:class:`~repro.fabric.client.FabricClient` relies on.  The service
never simulates anything itself — cold points go on the durable queue
for ``python -m repro.fabric.worker`` daemons, keeping request latency
flat no matter how expensive the scenario is.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import threading
import typing as _t
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .core import Fabric
from .store import _load_entry

__all__ = ["FabricServer", "main", "make_server"]


class FabricServer(ThreadingHTTPServer):
    """One fabric root behind HTTP; handler threads share the fabric
    (per-thread SQLite connections underneath) and the hit/miss
    counters."""

    daemon_threads = True

    def __init__(self, address: _t.Tuple[str, int], fabric: Fabric, *,
                 quiet: bool = True) -> None:
        super().__init__(address, _Handler)
        self.fabric = fabric
        self.quiet = quiet
        self.hits = 0
        self.misses = 0
        self._counter_lock = threading.Lock()

    def count(self, hit: bool) -> None:
        with self._counter_lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _Handler(BaseHTTPRequestHandler):
    server: FabricServer  # narrowed — we are only ever FabricServer's

    # ------------------------------------------------------------ plumbing
    def log_message(self, fmt: str, *args: _t.Any) -> None:
        if not self.server.quiet:
            super().log_message(fmt, *args)

    def _send_json(self, status: int, payload: _t.Mapping[str, _t.Any]
                   ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_result_json(self, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 — http.server's contract
        path = urllib.parse.urlsplit(self.path).path
        try:
            if path in ("/healthz", "/healthz/"):
                return self._send_json(200, {"status": "ok"})
            if path in ("/stats", "/stats/"):
                return self._do_stats()
            if path.startswith("/result/"):
                return self._do_result(path[len("/result/"):])
            if path.startswith("/scenario/"):
                # scenario names contain "/" (grid members), so the
                # whole remainder is the name
                return self._do_scenario(
                    urllib.parse.unquote(path[len("/scenario/"):]))
            self._send_json(404, {
                "error": f"no such route: {path}",
                "routes": ["/healthz", "/stats", "/result/<cache_key>",
                           "/scenario/<name>"]})
        except BrokenPipeError:
            pass  # client went away mid-response; nothing to salvage
        except Exception as exc:  # noqa: BLE001 — one bad request must
            # not kill the handler thread silently
            self._send_json(500, {
                "error": f"{type(exc).__name__}: {exc}"})

    def _do_stats(self) -> None:
        fabric = self.server.fabric
        self._send_json(200, {
            "hits": self.server.hits,
            "misses": self.server.misses,
            **fabric.stats()})

    def _serve_key(self, key: str, scenario_json: str) -> None:
        """Common tail of both routes: warm → 200 RunResult JSON, cold
        → enqueue + 202."""
        fabric = self.server.fabric
        # a corrupt entry is quarantined by the shared decode step and
        # reads as a miss; the service has no console to warn to, so
        # the 202 + recompute below is the whole handling
        hit, mode_run, _problem = _load_entry(fabric.store, key)
        if hit:
            from ..results import RunResult
            from ..scenarios.spec import Scenario
            scenario = Scenario.from_json(scenario_json)
            result = RunResult.from_mode_run(
                mode_run, scenario, cache_key=key, cache_hit=True)
            self.server.count(hit=True)
            return self._send_result_json(result.to_json())
        fabric.queue.enqueue(key, scenario_json)
        self.server.count(hit=False)
        self._send_json(202, {
            "status": "pending", "cache_key": key,
            "hint": "a fabric worker will compute this point; "
                    "poll again"})

    def _do_result(self, key: str) -> None:
        fabric = self.server.fabric
        scenario_json = fabric.queue.scenario_for(key)
        if scenario_json is None:
            self.server.count(hit=False)
            return self._send_json(404, {
                "error": f"unknown cache key {key!r}",
                "hint": "resolve it via /scenario/<name> first so the "
                        "fabric learns the key ↔ scenario binding"})
        self._serve_key(key, scenario_json)

    def _do_scenario(self, name: str) -> None:
        from ..api import scenario as resolve_scenario
        from ..scenarios.registry import UnknownScenarioError
        try:
            scenario = resolve_scenario(name)
        except UnknownScenarioError as exc:
            self.server.count(hit=False)
            return self._send_json(404, {
                "error": f"unknown scenario {name!r}",
                "suggestions": list(getattr(exc, "suggestions", ()))})
        fabric = self.server.fabric
        key = fabric.record_scenario(scenario)
        self._serve_key(key, scenario.to_json())


def make_server(fabric: Fabric, host: str = "127.0.0.1",
                port: int = 0, *, quiet: bool = True) -> FabricServer:
    """Bind (``port=0`` → ephemeral) but do not serve; callers run
    :meth:`~socketserver.BaseServer.serve_forever` on a thread of
    their choosing and ``shutdown()``/``server_close()`` when done."""
    return FabricServer((host, port), fabric, quiet=quiet)


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fabric.serve",
        description="Serve a fabric root over HTTP: warm results "
                    "stream back as lossless RunResult JSON, cold "
                    "points are queued for the workers.")
    parser.add_argument("--root", required=True, metavar="DIR",
                        help="the fabric root (shared store + queue)")
    parser.add_argument("--backend", choices=("file", "sqlite"),
                        default=None,
                        help="result-store backend (default: the "
                             "REPRO_CACHE_BACKEND selection)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8752,
                        help="bind port; 0 picks an ephemeral one "
                             "(default: 8752)")
    parser.add_argument("--verbose", action="store_true",
                        help="log each request to stderr")
    args = parser.parse_args(argv)

    fabric = Fabric(args.root, backend=args.backend)
    server = make_server(fabric, args.host, args.port,
                         quiet=not args.verbose)
    print(f"fabric service on {server.url} "
          f"(root={pathlib.Path(args.root)}, "
          f"backend={fabric.store.backend})",
          file=sys.stderr, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        return 130
    finally:
        server.server_close()
        fabric.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
