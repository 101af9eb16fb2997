"""Traced launcher of the serve daemon.

Installs the span wrappers of :mod:`tracing` (including the daemon's
per-request dispatch), then calls ``run_serve`` exactly as ``repro serve``
does.  On SIGINT the daemon stops and the recorded spans are written as
JSON to ``--spans-out``.  Run as::

    python3 perfbench/serve_daemon.py --spans-out spans.json \\
        --state-dir state --port 0 --workers 1
"""
from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import SRC  # noqa: E402

sys.path.insert(0, SRC)

import tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--workers", type=int, required=True)
    args = parser.parse_args()

    from repro.serve import run_serve

    tracer = tracing.Tracer(run_id="serve-daemon", prefix="d")
    inst = tracing.install(tracer, serve=True)
    try:
        run_serve(port=args.port, state_dir=args.state_dir,
                  workers=args.workers)
    finally:
        inst.remove()
        with open(args.spans_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
