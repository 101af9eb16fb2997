"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload campaign-ref --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs the same fixed work twice, untraced and then under the
span wrappers of ``tracing.py``, and reports the per-layer metrics, the
tracing overhead, and writes the per-layer budget table to
``perfbench/out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Workloads (see README.md for what each loads and bypasses):

* ``campaign-ref``   — ``run_campaigns(jobs=1)`` on the default backend:
  faulted trials on the reference interpreter;
* ``campaign-batch`` — the same campaign on the lane-vectorized engine;
* ``serve``          — ``repro serve`` under a closed-loop client.
"""
from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402

from common import (  # noqa: E402
    BACKENDS,
    BASE_ENV,
    OUT,
    SRC,
    env_stamp,
    have_sources,
    metric,
    scratch_dir,
    workload_env,
)

WORKLOADS = ("campaign-ref", "campaign-batch", "serve")

#: (name, unit) of every end-to-end metric, printed by every untraced run
END_TO_END = (
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("trials_per_s", "1/s"),
    ("protection_rate", "ratio"), ("p50_ms", "ms"), ("tail_ms", "ms"),
    ("requests_per_s", "1/s"), ("norm_cycles", "ratio"),
    ("norm_instrs", "ratio"),
)

#: (name, unit) of every per-layer metric, printed by every traced run; a
#: layer a workload does not use reads 0
PER_LAYER = (
    ("eval.prepare.calls", "count"), ("eval.prepare.busy_s", "s"),
    ("eval.context.busy_s", "s"), ("eval.plan.busy_s", "s"),
    ("eval.tally.busy_s", "s"), ("eval.checkpoint.writes", "count"),
    ("eval.checkpoint.bytes", "B"),
    ("pipeline.protect.calls", "count"), ("pipeline.protect.busy_s", "s"),
    ("pipeline.cache.hit_ratio", "ratio"),
    ("core.train.busy_s", "s"),
    ("runtime.interp.calls", "count"), ("runtime.interp.busy_s", "s"),
    ("runtime.batch.calls", "count"), ("runtime.batch.lanes", "count"),
    ("runtime.batch.busy_s", "s"),
    ("runtime.compiled.calls", "count"), ("runtime.compiled.busy_s", "s"),
    ("ir.parse.busy_s", "s"), ("ir.print.busy_s", "s"),
    ("serve.protect_warm.p50_ms", "ms"), ("serve.protect_cold.p50_ms", "ms"),
    ("serve.run.p50_ms", "ms"),
    ("serve.protect_warm.overhead_ms", "ms"),
    ("serve.protect_cold.overhead_ms", "ms"),
    ("serve.run.overhead_ms", "ms"),
    ("serve.manifest.busy_s", "s"),
    ("serve.dedup.followers", "count"), ("serve.admission.rejected", "count"),
    ("trace.overhead_pct", "%"), ("trace.budget_gap_pct", "%"),
)

#: the traced run's self-time rows must sum to each phase's wall time
#: within this share of it
BUDGET_TOLERANCE = 0.02


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _pin_hash_seed() -> None:
    """Re-execute under ``PYTHONHASHSEED=0`` unless already pinned (the
    same process, so nothing is left running)."""
    if os.environ.get("PYTHONHASHSEED") != BASE_ENV["PYTHONHASHSEED"]:
        env = dict(os.environ, PYTHONHASHSEED=BASE_ENV["PYTHONHASHSEED"])
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def _setup_probes(args, count: int):
    """*count* more set-ups of a campaign workload, each in a fresh process
    timed from its own start; returns their set-up times."""
    import subprocess

    times = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0",
             "--setup-probe"],
            capture_output=True, text=True, timeout=170)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr[-2000:]}")
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _finish(args, body: dict, stamp_start: dict) -> dict:
    """Fill the metric set, write the artifacts, and build the last line."""
    import tracing

    trace = bool(args.trace)
    if trace:
        values = dict(body["layer_metrics"])
        values["trace.overhead_pct"] = body["trace_overhead"] * 100.0
        gaps = tracing.budget_gaps(body["budget"], body["walls"])
        values["trace.budget_gap_pct"] = max(abs(g) for g in gaps.values()) \
            * 100.0 if gaps else 0.0
        metrics = {name: metric(values.get(name, 0), unit)
                   for name, unit in PER_LAYER}
        if any(abs(g) > BUDGET_TOLERANCE for g in gaps.values()):
            body["notes"].append(
                f"budget self-time sum off the wall time by more than "
                f"{BUDGET_TOLERANCE:.0%}: {gaps}")
    else:
        metrics = body["metrics"]
        missing = [n for n, _u in END_TO_END if n not in metrics]
        if missing:
            raise RuntimeError(f"workload did not report {missing}")

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace"
                             f"{args.trace}")
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "env_start": stamp_start, "env_end": env_stamp(),
        "metrics": metrics,
        **{k: v for k, v in body.items()
           if k not in ("metrics", "layer_metrics")},
    }
    if trace:
        record["budget_tolerance"] = BUDGET_TOLERANCE
        with open(stem + "-budget.md", "w", encoding="utf-8") as handle:
            handle.write(tracing.render_table(
                body["budget"], body["walls"],
                f"{args.workload} seed {args.seed}: per-layer budget "
                f"({args.seconds:g} s of work)", BUDGET_TOLERANCE))
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)

    for note in body["notes"]:
        print(f"perfbench: {note}")
    if "tail" in body:
        t = body["tail"]
        print(f"perfbench: tail_ms is p{t['percentile']:g} of "
              f"{t['samples']} samples ({t['of']})")
    print(f"perfbench: env {json.dumps(record['env_end'], sort_keys=True)}")
    print(f"perfbench: artifacts {os.path.relpath(stem, os.getcwd())}.*")
    return {
        "correct": body["failed"] == 0 and not body["notes"],
        "attempted": body["attempted"],
        "failed": body["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not have_sources():
        print(f"perfbench: no program sources under {SRC}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    _pin_hash_seed()

    tmp = scratch_dir(args.workload)
    os.environ.update(workload_env(BACKENDS[args.workload],
                                   os.path.join(tmp, "cache")))
    sys.path.insert(0, SRC)
    try:
        if args.setup_probe:
            import campaigns

            campaigns.setup()
            print(json.dumps({"setup_s": time.perf_counter() - T_START}))
            return 0
        t_stamp = time.perf_counter()
        stamp_start = env_stamp()
        # the stamp is bookkeeping, not set-up: the set-up probes skip it
        t_start = T_START + (time.perf_counter() - t_stamp)
        if args.workload == "serve":
            import serve_load

            body = serve_load.run(args.seed, args.seconds, bool(args.trace),
                                  tmp)
        else:
            import campaigns

            body = campaigns.run(
                args.workload, args.seed, args.seconds, bool(args.trace),
                t_start, tmp, lambda: _setup_probes(args, 2))
        result = _finish(args, body, stamp_start)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
