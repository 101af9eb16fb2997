"""The campaign workloads: ``repro campaign``'s engine on four groups.

Both workloads call ``run_campaigns(..., jobs=1)`` with a checkpoint file,
the default fault-kind mix and scale 0.45, exactly as the CLI does; they
differ only in the backend.  ``campaign-ref`` keeps the default backend,
so every faulted trial runs on the reference interpreter and the golden
and counting runs on the compiled backend.  ``campaign-batch`` selects
the lane-vectorized batch engine, which runs each chunk as one batch.

The work is fixed before timing starts: the trial count per group comes
from ``--seconds`` and a per-engine rate, so one seed and one
``--seconds`` always inject the same faults into the same inputs.
"""
from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from statistics import median

from common import BACKENDS, geomean, metric, peak_rss_mb, tail

#: (workload, scheme): duplication, prediction, detection-only and a
#: temporal protocol
GROUPS: Tuple[Tuple[str, str], ...] = (
    ("conv1d", "SWIFT-R"),
    ("blackscholes", "AR50"),
    ("lud", "SWIFT"),
    ("kde", "CKPT8"),
)

#: injection runs use the CLI's campaign scale cap
SCALE = 0.45


@dataclass(frozen=True)
class Engine:
    #: trials per chunk (one checkpoint write each; one lane batch on the
    #: batch backend)
    chunk: int
    #: trials per second on a 2-core x86-64 host (Python 3.11), used only
    #: to size the fixed work so the timed phase lasts about --seconds
    rate: float


ENGINES: Dict[str, Engine] = {
    # the CLI default backend: faulted trials on the reference interpreter;
    # chunks of 10 only make checkpoints finer (the interpreter runs one
    # trial at a time whatever the chunk)
    "campaign-ref": Engine(chunk=10, rate=41.0),
    # the CLI's chunk of 25 trials is one 25-lane batch
    "campaign-batch": Engine(chunk=25, rate=120.0),
}

#: chunks per group at the least, so even a tiny run has (chunks - 1) * 4
#: >= 20 latency samples: enough for a tail percentile
MIN_CHUNKS = 6


@dataclass
class Group:
    workload: object
    scheme: str
    profiles: Optional[dict]


@dataclass
class Checked:
    """What re-running a chunk outside ``run_campaigns`` needs."""
    group: Group
    inp: object
    prepared: object
    ctx: object


def trials_per_group(engine: Engine, seconds: float) -> int:
    return max(2 * MIN_CHUNKS,
               int(round(engine.rate * seconds / len(GROUPS))))


def chunk_size(engine: Engine, trials: int) -> int:
    """The engine's chunk, but at least :data:`MIN_CHUNKS` chunks per
    group."""
    return max(1, min(engine.chunk, trials // MIN_CHUNKS))


def setup() -> List[Group]:
    """Everything ``repro campaign`` does before ``run_campaigns``:
    imports, building each workload, and training the RSkip groups
    through a scale-0.45 harness."""
    from repro.eval import Harness
    import repro.eval.campaign_engine  # noqa: F401  (imports are set-up)
    from repro.pipeline.registry import canonical_scheme, get_scheme
    from repro.workloads import get_workload

    groups = []
    for name, scheme in GROUPS:
        workload = get_workload(name)
        descriptor = get_scheme(scheme)
        profiles = None
        if descriptor.needs_training:
            profiles = Harness(workload, scale=SCALE, timing=False) \
                .profiles_for(descriptor.acceptable_range)
        groups.append(Group(workload, canonical_scheme(scheme), profiles))
    return groups


def campaign_input(workload, seed: int):
    """The input ``run_campaigns`` injects into at *seed*."""
    return workload.test_inputs(1, seed=seed + 17, scale=SCALE)[0]


def checked_groups(groups: List[Group], seed: int) -> List[Checked]:
    """Prepared programs and golden/counting contexts for the untimed
    cross-check, built after the timed phase (and after its peak RSS is
    read) so the timed process holds only what the CLI holds."""
    from repro.eval.fault_campaign import campaign_context
    from repro.eval.schemes import prepare

    out = []
    for group in groups:
        prepared = prepare(group.workload, group.scheme, None, group.profiles)
        inp = campaign_input(group.workload, seed)
        out.append(Checked(group, inp, prepared,
                           campaign_context(prepared, group.workload, inp)))
    return out


Chunks = List[List[Tuple[int, float]]]


def timed_campaign(groups: List[Group], seed: int, trials: int, chunk: int,
                   checkpoint: str) -> Tuple[dict, float, Chunks]:
    """The timed phase: one ``run_campaigns`` call.  Returns the results,
    the wall time and, per group in order, each chunk's ``(trials, wall
    seconds)``.  With ``jobs=1`` chunks complete group by group in trial
    order, so the progress marks split into groups by position."""
    from repro.eval.campaign_engine import run_campaigns

    marks: List[Tuple[int, float]] = []

    def progress(done: int, total: int, elapsed: float) -> None:
        marks.append((done, elapsed))

    t0 = time.perf_counter()
    results = run_campaigns(
        [(g.workload, g.scheme, g.profiles) for g in groups],
        trials=trials, seed=seed, scale=SCALE, jobs=1,
        checkpoint=checkpoint, progress=progress, chunk=chunk,
    )
    wall = time.perf_counter() - t0
    spans = [(d1 - d0, e1 - e0)
             for (d0, e0), (d1, e1) in zip(marks, marks[1:]) if d1 > d0]
    per_group = len(spans) // len(groups)
    if per_group * len(groups) != len(spans):
        raise RuntimeError(f"{len(spans)} chunk marks for "
                           f"{len(groups)} groups")
    return results, wall, [spans[i * per_group:(i + 1) * per_group]
                           for i in range(len(groups))]


def chunk_latency(per_group: Chunks
                  ) -> Tuple[float, float, float, int, List[float]]:
    """``p50_ms`` and ``tail_ms`` of a campaign from its chunk latencies.

    Each group's first chunk also pays that group's prepare and golden
    runs, so it is left out.  Groups differ in per-trial cost, so every
    chunk's ms per trial is divided by its group's mean and the ratios are
    pooled.  ``p50_ms`` and ``tail_ms`` are the pooled median and tail of
    that ratio times the mean over groups of each group's mean ms per
    trial.  A group's own median would not do: a batch chunk of kde either
    holds a trial that runs to the hang budget or not, so its chunk times
    are bimodal and their median jumps with the seed.  Returns ``(p50,
    tail, percentile, samples, group means)``.
    """
    means, ratios = [], []
    for spans in per_group:
        steady = [seconds * 1000.0 / count for count, seconds in spans[1:]]
        mean = (sum(seconds for _c, seconds in spans[1:]) * 1000.0
                / sum(count for count, _s in spans[1:]))
        means.append(mean)
        ratios += [v / mean for v in steady]
    level = sum(means) / len(means)
    ratio, pct, n = tail(ratios)
    return level * median(ratios), level * ratio, pct, n, means


def load_chunks(checkpoint: str) -> Dict[str, dict]:
    with open(checkpoint, encoding="utf-8") as handle:
        return json.load(handle)["chunks"]


def _canon(data: dict) -> str:
    return json.dumps(data, sort_keys=True)


def rerun_chunk(check: Checked, key: str, seed: int, engine: str) -> dict:
    """Re-run one checkpointed chunk on *engine* (``ref`` or ``batch``),
    untimed, through the block runners ``run_campaigns`` uses."""
    from repro.eval.fault_campaign import (
        run_trial_block,
        run_trial_block_batch,
    )

    _w, _s, start, count = key.split("|")
    start, count = int(start), int(count)
    group = check.group
    args = (check.prepared, group.workload, check.inp, check.ctx,
            group.scheme, seed, start, count)
    if engine == "batch":
        result = run_trial_block_batch(*args, profiles=group.profiles)
    else:
        result = run_trial_block(*args)
    return json.loads(json.dumps(result.to_dict()))


def cross_check(chunks: Dict[str, dict], checks: List[Checked], seed: int,
                other: str) -> Tuple[int, int, List[str]]:
    """Re-run one sampled chunk per group on the *other* engine and compare
    its tallies byte for byte with the checkpointed chunk.

    Returns ``(trials compared, trials in mismatching chunks, messages)``.
    """
    rng = random.Random(f"cross-check:{seed}")
    compared = failed = 0
    notes = []
    for check in checks:
        prefix = f"{check.group.workload.name}|{check.group.scheme}|"
        keys = sorted((k for k in chunks if k.startswith(prefix)),
                      key=lambda k: int(k.split("|")[2]))
        key = rng.choice(keys)
        count = int(key.split("|")[3])
        compared += count
        try:
            mine = rerun_chunk(check, key, seed, other)
        except Exception as exc:  # a crash on either engine is a failure
            failed += count
            notes.append(f"{key}: {other} re-run raised "
                         f"{type(exc).__name__}: {exc}")
            continue
        if _canon(mine) != _canon(chunks[key]):
            failed += count
            notes.append(f"{key}: {other} tallies differ from the "
                         f"checkpointed chunk")
    return compared, failed, notes


def check_results(results: dict, chunks: Dict[str, dict], groups, trials
                  ) -> List[str]:
    """The merged results must hold every group's trials and equal the
    sum of the checkpointed chunks."""
    from repro.eval.fault_campaign import CampaignResult

    notes = []
    for group in groups:
        label = (group.workload.name, group.scheme)
        result = results.get(label)
        if result is None or result.trials != trials:
            notes.append(f"{label}: expected {trials} trials")
            continue
        parts = sorted(
            (k for k in chunks if k.startswith(f"{label[0]}|{label[1]}|")),
            key=lambda k: int(k.split("|")[2]))
        merged = CampaignResult.from_dict(chunks[parts[0]])
        for key in parts[1:]:
            merged.merge(CampaignResult.from_dict(chunks[key]))
        if _canon(merged.to_dict()) != _canon(result.to_dict()):
            notes.append(f"{label}: merged checkpoint differs from result")
    return notes


def overhead(checks: List[Checked]) -> Tuple[float, float]:
    """The paper's overhead metrics on the campaign inputs: geomean over
    groups of protected / UNSAFE simulated cycles and dynamic
    instructions (reference interpreter with the timing model)."""
    from repro.eval import Harness

    cycles, instrs = [], []
    for check in checks:
        harness = Harness(check.group.workload, scale=SCALE)
        base = harness.run_scheme("UNSAFE", check.inp)
        record = harness.run_scheme(check.group.scheme, check.inp,
                                    golden=base.output)
        cycles.append(record.cycles / base.cycles)
        instrs.append(record.steps / base.steps)
    return geomean(cycles), geomean(instrs)


def protection_rate(results: dict) -> Tuple[int, int]:
    from repro.runtime import Outcome

    correct = sum(r.tallies.get(Outcome.CORRECT, 0) for r in results.values())
    total = sum(r.trials for r in results.values())
    return correct, total


def run(name: str, seed: int, seconds: float, trace: bool, t_start: float,
        tmp: str, setup_probe) -> dict:
    """One run of a campaign workload; returns the result body."""
    import tracing
    from repro.runtime import Outcome

    engine = ENGINES[name]
    backend = BACKENDS[name]
    # the engine that re-runs a sampled chunk to cross-check tallies
    other = "ref" if backend == "batch" else "batch"
    trials = trials_per_group(engine, seconds)
    chunk = chunk_size(engine, trials)
    tracer = tracing.Tracer(run_id=f"{name}:{seed}") if trace else None

    walls: Dict[str, float] = {}
    inst = tracing.install(tracer) if tracer else None
    t0 = time.perf_counter()
    if tracer:
        with tracer.span("bench.setup"):
            groups = setup()
        inst.remove()
    else:
        groups = setup()
    t1 = time.perf_counter()
    walls["bench.setup"] = t1 - t0

    checkpoint = os.path.join(tmp, "campaign.json")
    results, wall, spans = timed_campaign(
        groups, seed, trials, chunk, checkpoint)
    rss = peak_rss_mb()
    chunks = load_chunks(checkpoint)
    checkpoint_bytes = os.path.getsize(checkpoint)

    notes = check_results(results, chunks, groups, trials)
    checks = checked_groups(groups, seed)
    compared, mismatched, cross_notes = cross_check(
        chunks, checks, seed, other)
    correct, total = protection_rate(results)
    attempted = total + compared
    # a group whose merged result is inconsistent fails all its trials
    failed = mismatched + trials * len(notes)
    notes += cross_notes

    body = {
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "work": {"groups": [f"{w}/{s}" for w, s in GROUPS],
                 "trials_per_group": trials, "chunk": chunk,
                 "scale": SCALE, "backend": backend,
                 "cross_check_engine": other,
                 "cross_checked_trials": compared},
        # where the timed phase went, and the trials that ran to the hang
        # budget (the costliest outcome, and one that varies with the seed)
        "groups": {f"{g.workload.name}/{g.scheme}": {
            "seconds": sum(s for _c, s in group_spans),
            "hangs": results[(g.workload.name, g.scheme)].tallies.get(
                Outcome.HANG, 0)}
            for g, group_spans in zip(groups, spans)},
    }
    if not trace:
        norm_cycles, norm_instrs = overhead(checks)
        p50, tail_ms, pct, n, means = chunk_latency(spans)
        for label, mean in zip(body["groups"], means):
            body["groups"][label]["mean_ms_per_trial"] = mean
        body["tail"] = {"percentile": pct, "samples": n,
                        "of": "chunk latency per trial over its group's "
                              "mean"}
        setups = [t1 - t_start] + setup_probe()
        body["setup_samples_s"] = setups
        body["metrics"] = {
            "setup_s": metric(median(setups), "s"),
            "peak_rss_mb": metric(rss, "MB"),
            "trials_per_s": metric(total / wall, "1/s"),
            "protection_rate": metric(correct / total, "ratio"),
            "p50_ms": metric(p50, "ms"),
            "tail_ms": metric(tail_ms, "ms"),
            "requests_per_s": metric(len(chunks) / wall, "1/s"),
            "norm_cycles": metric(norm_cycles, "ratio"),
            "norm_instrs": metric(norm_instrs, "ratio"),
        }
        return body

    # traced pass: the same work again, under the wrappers
    from repro.pipeline.cache import get_cache

    cache = get_cache()
    before = dict(cache.stats()) if cache is not None else None
    traced_ckpt = os.path.join(tmp, "campaign-traced.json")
    inst = tracing.install(tracer)
    t2 = time.perf_counter()
    try:
        with tracer.span("bench.timed"):
            traced_results, _w, _l = timed_campaign(
                groups, seed, trials, chunk, traced_ckpt)
    finally:
        inst.remove()
    walls["bench.timed"] = time.perf_counter() - t2
    if {k: r.to_dict() for k, r in traced_results.items()} != \
            {k: r.to_dict() for k, r in results.items()}:
        body["notes"].append("traced pass tallied differently")
        body["failed"] += total
    hits = misses = 0
    if cache is not None:
        after = cache.stats()
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
    budget = tracing.analyse(tracer.spans)
    body["budget"] = budget
    body["walls"] = walls
    body["trace_overhead"] = (walls["bench.timed"] - wall) / wall
    body["layer_metrics"] = layer_metrics(
        budget, hits, misses, len(chunks), checkpoint_bytes)
    return body


def layer_metrics(budget: dict, hits: int, misses: int, writes: int,
                  nbytes: int) -> Dict[str, float]:
    """Per-layer values of the timed phase (training: of the setup)."""
    timed = budget.get("bench.timed", {}).get("layers", {})
    setup_layers = budget.get("bench.setup", {}).get("layers", {})

    def row(name, layers=timed):
        return layers.get(name, {"calls": 0, "busy_s": 0.0, "lanes": 0})

    out = {
        "eval.checkpoint.writes": writes,
        "eval.checkpoint.bytes": nbytes,
        "pipeline.cache.hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "core.train.busy_s": row("core.train", setup_layers)["busy_s"],
        "runtime.batch.lanes": row("runtime.batch")["lanes"],
    }
    for layer in ("eval.prepare", "pipeline.protect", "runtime.interp",
                  "runtime.batch", "runtime.compiled"):
        out[f"{layer}.calls"] = row(layer)["calls"]
    for layer in ("eval.prepare", "eval.context", "eval.plan", "eval.tally",
                  "pipeline.protect", "runtime.interp", "runtime.batch",
                  "runtime.compiled", "ir.parse", "ir.print"):
        out[f"{layer}.busy_s"] = row(layer)["busy_s"]
    return out
