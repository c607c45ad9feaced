"""Run ``repro.fabric.serve.main`` (what ``python -m repro.fabric.serve``
runs), optionally traced, and write what the process recorded when it
stops.

``python perfbench/serve_launcher.py --root DIR --out FILE --cpu N
[--trace 1]``
with ``PYTHONPATH=src``.  After a host-speed probe the service binds an
ephemeral port and prints its URL on stderr; SIGINT stops it, after
which FILE receives the peak RSS and, when traced, the span summary.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import sys

from probe import probe


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/serve_launcher.py")
    parser.add_argument("--root", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", type=pathlib.Path)
    parser.add_argument("--cpu", type=int, required=True,
                        help="the CPU the service is pinned to")
    args = parser.parse_args()

    os.sched_setaffinity(0, {args.cpu})
    # the host-speed probe that scales this service's start-up time
    print(f"probe {probe()!r}", file=sys.stderr, flush=True)
    tracer = patches = None
    if args.trace:
        import layers
        from tracing import Tracer
        tracer = Tracer()
        patches = layers.install(tracer, "serve")
    from repro.fabric import serve
    try:
        rc = serve.main(["--root", args.root, "--backend", "sqlite",
                         "--port", "0"])
    finally:
        out = {"rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024}
        if tracer is not None and patches is not None:
            patches.restore()
            if args.spans is not None:
                tracer.write(args.spans)
            out["trace"] = {"summary": tracer.summary(),
                            "calls": patches.calls(),
                            "leftovers": patches.leftovers()}
        pathlib.Path(args.out).write_text(json.dumps(out))
    return 0 if rc in (0, 130) else rc


if __name__ == "__main__":
    sys.exit(main())
