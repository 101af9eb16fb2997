"""The ``serve`` workload: ``repro serve`` under a closed-loop client.

One client on one keep-alive connection sends the next request only after
the previous reply arrived.  The request list is generated from the seed
before the daemon starts:

* ~60% warm ``/protect`` of workload x scheme pairs loaded during set-up
  (artifact-cache reads);
* ~30% cold ``/protect`` of unique generated IR (parse, passes, cache
  writes);
* ~10% ``/run`` of workload x scheme pairs, UNSAFE included (reference
  interpreter with the timing model).

Every class appears in fixed proportions and every warm and ``/run`` pair
equally often; the seed picks the order, the generated IR and the
``/run`` input.
"""
from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from statistics import median

from common import (
    BACKENDS,
    HERE,
    geomean,
    metric,
    split_counts,
    tail,
    vm_hwm_mb,
    workload_env,
)

WARM_WORKLOADS = ("blackscholes", "conv1d", "lud", "sgemm", "kde")
WARM_SCHEMES = ("SWIFT", "SWIFT-R", "AR50", "CKPT8")
COLD_SCHEMES = ("SWIFT", "SWIFT-R", "AR50", "CKPT8", "REPLAY2")
RUN_WORKLOADS = ("lud", "sgemm", "conv1d", "kde")
RUN_SCHEMES = ("UNSAFE", "SWIFT", "SWIFT-R", "AR50", "CKPT8")
RUN_SCALE = 0.3
SHARES = {"protect_warm": 0.6, "protect_cold": 0.3, "run": 0.1}

#: requests per second on a 2-core x86-64 host (Python 3.11), used only to
#: size the fixed request list so the timed phase lasts about --seconds
RATE = 85.0

#: request executor threads of the daemon: the closed loop never has more
#: than one request in flight, and a fixed thread count keeps the daemon's
#: peak RSS independent of how the executor happened to spawn threads
WORKERS = 1

#: daemon set-ups per untraced run; the median is ``setup_s``
SETUP_REPEATS = 3

#: replies compared with the same call made in-process, per class
VERIFY_SAMPLES = {"protect_warm": 4, "protect_cold": 4, "run": 3}

Request = Tuple[str, str, dict]  # (class, path, body)


def run_seed(seed: int) -> int:
    """The ``/run`` input (and training) seed of one benchmark seed."""
    return 1 + seed % 7


def make_requests(seed: int, seconds: float) -> List[Request]:
    """The fixed, shuffled request list of one run."""
    rng = random.Random(f"serve-mix:{seed}")
    total = max(len(RUN_WORKLOADS) * len(RUN_SCHEMES) + 20,
                int(round(RATE * seconds)))
    warm_pairs = [(w, s) for w in WARM_WORKLOADS for s in WARM_SCHEMES]
    run_pairs = [(w, s) for w in RUN_WORKLOADS for s in RUN_SCHEMES]
    n_run = max(1, round(total * SHARES["run"] / len(run_pairs))) \
        * len(run_pairs)
    n_cold = round(total * SHARES["protect_cold"])
    n_warm = total - n_run - n_cold

    from repro.difftest.generator import generate
    from repro.ir.printer import format_module

    requests: List[Request] = []
    for pair, count in zip(warm_pairs, split_counts(n_warm, len(warm_pairs))):
        requests += [("protect_warm", "/protect",
                      {"workload": pair[0], "scheme": pair[1],
                       "optimize": True})] * count
    stream = 1000 + seed
    for index in range(n_cold):
        text = format_module(generate(stream, index).module)
        requests.append(("protect_cold", "/protect",
                         {"ir": text, "scheme": COLD_SCHEMES[index % len(
                             COLD_SCHEMES)], "optimize": True}))
    rs = run_seed(seed)
    for w, s in run_pairs:
        requests += [("run", "/run", {"workload": w, "scheme": s,
                                      "scale": RUN_SCALE, "seed": rs})] \
            * (n_run // len(run_pairs))
    rng.shuffle(requests)
    return requests


def warm_requests(seed: int) -> List[Request]:
    """Set-up: protect every warm pair once, train every ``/run`` RSkip
    pair at the ``/run`` input's parameters."""
    out: List[Request] = [
        ("setup", "/protect", {"workload": w, "scheme": s, "optimize": True})
        for w in WARM_WORKLOADS for s in WARM_SCHEMES
    ]
    out += [("setup", "/train", {"workload": w, "scheme": s,
                                 "scale": RUN_SCALE, "seed": run_seed(seed)})
            for w in RUN_WORKLOADS for s in RUN_SCHEMES if s.startswith("AR")]
    return out


def _default_sigint() -> None:
    """Runs in the daemon's process before exec.  A benchmark started in
    the background inherits an ignored SIGINT, and exec keeps it ignored;
    the daemon stops (and the traced one writes its spans) on SIGINT, so
    restore the default."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Daemon:
    """One ``repro serve`` process with its own state dir."""

    def __init__(self, tmp: str, tag: str, spans_out: Optional[str] = None):
        self.state = os.path.join(tmp, f"state-{tag}")
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, os.path.join(HERE, "serve_daemon.py"),
                   "--spans-out", spans_out]
        cmd += ["--port", "0", "--state-dir", self.state,
                "--workers", str(WORKERS)]
        self.log = open(os.path.join(tmp, f"daemon-{tag}.log"), "w")
        self.proc = subprocess.Popen(
            cmd, env=dict(os.environ, **workload_env(
                BACKENDS["serve"], os.path.join(tmp, f"cache-{tag}"))),
            stdout=subprocess.PIPE, stderr=self.log, text=True,
            preexec_fn=_default_sigint)
        self.host, self.port = self._wait_listening()
        self.conn = http.client.HTTPConnection(self.host, self.port,
                                               timeout=120)

    def _wait_listening(self) -> Tuple[str, int]:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if "listening on http://" in line:
                address = line.rsplit("http://", 1)[1].strip()
                host, _, port = address.partition(":")
                return host, int(port)
            if not line and self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError("serve daemon did not start")

    def call(self, path: str, body: Optional[bytes], headers: dict,
             method: str = "POST") -> Tuple[int, bytes]:
        self.conn.request(method, path, body=body, headers=headers)
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def stats(self) -> dict:
        status, data = self.call("/stats", None, {}, method="GET")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(data)

    def stop(self) -> None:
        try:
            self.conn.close()
        except (AttributeError, OSError):
            pass
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


HEADERS = {"content-type": "application/json", "x-repro-client": "bench"}


def drive(daemon: Daemon, requests: List[Request], tracer=None,
          keep: Optional[set] = None) -> dict:
    """Send *requests* in a closed loop.  Returns latencies (s), statuses,
    the wall time and the raw replies of the indices in *keep*."""
    bodies = [json.dumps(body).encode() for _c, _p, body in requests]
    latencies: List[float] = []
    statuses: List[int] = []
    replies: Dict[int, bytes] = {}
    errors: List[str] = []
    t0 = time.perf_counter()
    for i, (_cls, path, _body) in enumerate(requests):
        headers = HEADERS
        frame = None
        if tracer is not None:
            frame = tracer.open("serve.client", run=f"op{i}")
            headers = dict(HEADERS, **{"x-bench-span": frame[1],
                                       "x-bench-op": f"op{i}"})
        t = time.perf_counter()
        try:
            status, data = daemon.call(path, bodies[i], headers)
        except (OSError, http.client.HTTPException) as exc:
            status, data = 0, b""
            errors.append(f"op{i}: {type(exc).__name__}: {exc}")
            daemon.conn.close()  # reconnects on the next request
        latencies.append(time.perf_counter() - t)
        if frame is not None:
            tracer.close(frame)
        statuses.append(status)
        if keep is not None and i in keep:
            replies[i] = data
    wall = time.perf_counter() - t0
    return {"latencies": latencies, "statuses": statuses, "wall": wall,
            "replies": replies, "errors": errors}


def setup_daemon(tmp: str, tag: str, seed: int, spans_out=None,
                 tracer=None) -> Tuple[Daemon, float]:
    """Spawn a daemon and load its warm set; returns it and the set-up
    time (spawn until the warm set is loaded)."""
    t0 = time.perf_counter()
    daemon = Daemon(tmp, tag, spans_out)
    try:
        out = drive(daemon, warm_requests(seed), tracer)
    except BaseException:
        daemon.stop()
        raise
    if any(s != 200 for s in out["statuses"]):
        daemon.stop()
        raise RuntimeError(f"warm-up failed: {out['statuses']} "
                           f"{out['errors']}")
    return daemon, time.perf_counter() - t0


def sample_indices(requests: List[Request], seed: int) -> Dict[str, List[int]]:
    rng = random.Random(f"serve-verify:{seed}")
    picks = {}
    for cls, n in VERIFY_SAMPLES.items():
        idx = [i for i, r in enumerate(requests) if r[0] == cls]
        picks[cls] = sorted(rng.sample(idx, min(n, len(idx))))
    return picks


def verify_reply(request: Request, reply: dict) -> Optional[str]:
    """The same call made in-process; returns a mismatch message or None."""
    cls, _path, body = request
    if cls == "run":
        from repro.eval import Harness
        from repro.workloads import get_workload

        workload = get_workload(body["workload"])
        harness = Harness(workload, scale=body["scale"], seed=body["seed"])
        inp = workload.test_inputs(1, seed=body["seed"] + 17,
                                   scale=body["scale"])[0]
        golden = harness.run_scheme("UNSAFE", inp)
        record = harness.run_scheme(body["scheme"], inp,
                                    golden=golden.output)
        expect = {"steps": record.steps, "cycles": record.cycles,
                  "correct": record.correct, "skip_rate": record.skip_rate}
    else:
        from repro.ir.parser import parse_module
        from repro.ir.printer import format_module
        from repro.pipeline import protect
        from repro.workloads import get_workload

        module = (parse_module(body["ir"]) if "ir" in body
                  else get_workload(body["workload"]).build())
        protected = protect(module, body["scheme"], optimize=body["optimize"])
        expect = {"scheme": protected.scheme,
                  "passes": [run.name for run in protected.pass_runs],
                  "module": format_module(protected.module)}
    got = {k: reply.get(k) for k in expect}
    if got != expect:
        diff = sorted(k for k in expect if got[k] != expect[k])
        return f"{cls} {body.get('workload', 'ir')}/{body['scheme']}: " \
               f"reply differs in {diff}"
    return None


def _run_ratios(requests: List[Request], replies: Dict[int, bytes]
                ) -> Tuple[List[float], List[float], int, int, List[str]]:
    """/run replies: overhead ratios against UNSAFE, correct count, total,
    and determinism notes (one pair must always answer the same)."""
    seen: Dict[Tuple[str, str], dict] = {}
    notes = []
    correct = total = 0
    for i, (cls, _p, body) in enumerate(requests):
        if cls != "run" or i not in replies:
            continue
        try:
            reply = json.loads(replies[i])
        except ValueError:
            notes.append(f"op{i}: unparsable /run reply")
            continue
        total += 1
        correct += bool(reply.get("correct"))
        key = (body["workload"], body["scheme"])
        view = {k: reply.get(k) for k in ("steps", "cycles", "correct")}
        if key in seen and seen[key] != view:
            notes.append(f"op{i}: /run {key} answered differently")
        seen.setdefault(key, view)
    cycles, instrs = [], []
    for (w, s), view in seen.items():
        base = seen.get((w, "UNSAFE"))
        if s == "UNSAFE" or base is None:
            continue
        cycles.append(view["cycles"] / base["cycles"])
        instrs.append(view["steps"] / base["steps"])
    return cycles, instrs, correct, total, notes


def run(seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    """One run of the serve workload; returns the result body."""
    import tracing

    requests = make_requests(seed, seconds)
    picks = sample_indices(requests, seed)
    keep = {i for idx in picks.values() for i in idx}
    keep |= {i for i, r in enumerate(requests) if r[0] == "run"}

    setups = []
    repeats = 1 if trace else SETUP_REPEATS
    daemon = None
    for rep in range(repeats):
        if daemon is not None:
            daemon.stop()
        daemon, took = setup_daemon(tmp, f"u{rep}", seed)
        setups.append(took)
    try:
        before = daemon.stats()
        out = drive(daemon, requests, keep=keep)
        after = daemon.stats()
        rss = vm_hwm_mb(daemon.proc.pid)
    finally:
        daemon.stop()

    notes = list(out["errors"])
    failed = sum(1 for s in out["statuses"] if s != 200)
    cycles, instrs, correct, total, run_notes = _run_ratios(
        requests, out["replies"])
    notes += run_notes
    failed += len(run_notes)
    verified = 0
    for cls, idx in picks.items():
        for i in idx:
            verified += 1
            try:
                reply = json.loads(out["replies"][i])
                problem = verify_reply(requests[i], reply)
            except Exception as exc:  # a crash in the check is a failure
                problem = f"op{i}: check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                failed += 1
                notes.append(problem)
    rejected = after["admission"]["rejected"] - before["admission"]["rejected"]

    lat_ms = [x * 1000.0 for x in out["latencies"]]
    body = {
        "attempted": len(requests) + verified,
        "failed": failed,
        "notes": notes,
        "work": {"requests": len(requests),
                 "mix": {c: sum(1 for r in requests if r[0] == c)
                         for c in SHARES},
                 "run_scale": RUN_SCALE, "run_seed": run_seed(seed),
                 "clients": 1, "loop": "closed, one keep-alive connection",
                 "verified_replies": verified},
    }
    by_class = {c: [lat_ms[i] for i, r in enumerate(requests) if r[0] == c]
                for c in SHARES}
    if not trace:
        tail_ms, pct, n = tail(lat_ms)
        body["tail"] = {"percentile": pct, "samples": n,
                        "of": "request latency"}
        body["setup_samples_s"] = setups
        body["metrics"] = {
            "setup_s": metric(median(setups), "s"),
            "peak_rss_mb": metric(rss, "MB"),
            "trials_per_s": metric(total / out["wall"], "1/s"),
            "protection_rate": metric(correct / total, "ratio"),
            "p50_ms": metric(median(lat_ms), "ms"),
            "tail_ms": metric(tail_ms, "ms"),
            "requests_per_s": metric(len(requests) / out["wall"], "1/s"),
            "norm_cycles": metric(geomean(cycles), "ratio"),
            "norm_instrs": metric(geomean(instrs), "ratio"),
        }
        return body

    # traced pass: the same requests against a fresh traced daemon
    tracer = tracing.Tracer(run_id=f"serve:{seed}", prefix="c")
    spans_out = os.path.join(tmp, "daemon-spans.json")
    walls = {}
    t0 = time.perf_counter()
    with tracer.span("bench.setup"):
        traced, _took = setup_daemon(tmp, "traced", seed, spans_out, tracer)
    walls["bench.setup"] = time.perf_counter() - t0
    try:
        t1 = time.perf_counter()
        with tracer.span("bench.timed"):
            tout = drive(traced, requests, tracer)
        walls["bench.timed"] = time.perf_counter() - t1
    finally:
        traced.stop()
    failed += sum(1 for s in tout["statuses"] if s != 200)
    with open(spans_out, encoding="utf-8") as handle:
        daemon_spans = [tuple(s) for s in json.load(handle)]
    spans = tracer.spans + daemon_spans
    budget = tracing.analyse(spans)
    body["failed"] = failed
    body["budget"] = budget
    body["walls"] = walls
    body["trace_overhead"] = (walls["bench.timed"] - out["wall"]) / out["wall"]

    in_daemon = {s[5]: s[3] - s[2] for s in daemon_spans
                 if s[1] == "serve.request"}
    cache_before, cache_after = before["cache"] or {}, after["cache"] or {}
    hits = cache_after.get("hits", 0) - cache_before.get("hits", 0)
    misses = cache_after.get("misses", 0) - cache_before.get("misses", 0)
    layer = {
        "pipeline.cache.hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "serve.dedup.followers": after["dedup"]["dedup_hits"]
        - before["dedup"]["dedup_hits"],
        "serve.admission.rejected": rejected,
    }
    for cls, values in by_class.items():
        layer[f"serve.{cls}.p50_ms"] = median(values)
        over = [(tout["latencies"][i] - in_daemon[f"op{i}"]) * 1000.0
                for i, r in enumerate(requests)
                if r[0] == cls and f"op{i}" in in_daemon]
        layer[f"serve.{cls}.overhead_ms"] = median(over) if over else 0.0
    timed = budget.get("bench.timed", {}).get("layers", {})
    for name in ("pipeline.protect", "runtime.interp", "runtime.compiled"):
        layer[f"{name}.calls"] = timed.get(name, {}).get("calls", 0)
    for name in ("pipeline.protect", "runtime.interp", "runtime.compiled",
                 "ir.parse", "ir.print", "serve.manifest"):
        layer[f"{name}.busy_s"] = timed.get(name, {}).get("busy_s", 0.0)
    setup_layers = budget.get("bench.setup", {}).get("layers", {})
    layer["core.train.busy_s"] = setup_layers.get(
        "core.train", {}).get("busy_s", 0.0)
    body["layer_metrics"] = layer
    return body
