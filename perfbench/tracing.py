"""In-memory spans around the program's layer boundaries.

The benchmark never edits the program: a traced run replaces a fixed set
of the program's functions and methods with wrappers that record one span
per call (name, start, end, parent span, run id) and restores the
originals afterwards.  Spans stay in a list until the run ends; nothing is
written while the measured work runs.

A layer's *self* time is its span's duration minus the part of that
interval its child spans cover.  Because every span below a phase root
(``bench.setup`` / ``bench.timed``) nests inside it, the self times of one
phase add up to the root's duration, which is the phase's wall time.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: (layer span name, module, attribute path, modules whose global binding
#: is replaced — None means every loaded ``repro`` module that binds the
#: same function object).  ``eval.prepare`` is bound only in the campaign
#: modules: that is the campaign's per-group and per-lane prepare, while
#: the harness's own prepare (``/run`` in the daemon) stays untraced.
TARGETS: Tuple[Tuple[str, str, str, Optional[Tuple[str, ...]]], ...] = (
    ("eval.prepare", "repro.eval.schemes", "prepare",
     ("repro.eval.campaign_engine", "repro.eval.fault_campaign")),
    ("eval.context", "repro.eval.fault_campaign", "campaign_context", None),
    ("eval.plan", "repro.runtime.faults", "random_plan", None),
    ("eval.tally", "repro.eval.fault_campaign", "_tally_trial", None),
    ("eval.checkpoint", "repro.eval.campaign_engine", "_save_checkpoint",
     None),
    ("pipeline.protect", "repro.pipeline.protect", "protect", None),
    ("core.train", "repro.eval.harness", "Harness.profiles_for", None),
    ("runtime.interp", "repro.runtime.interpreter", "Interpreter.run", None),
    ("runtime.batch", "repro.runtime.batch", "BatchExecutor.run", None),
    ("runtime.compiled", "repro.runtime.compiler", "CompiledExecutor.run",
     None),
    ("ir.parse", "repro.ir.parser", "parse_module", None),
    ("ir.print", "repro.ir.printer", "format_module", None),
    ("serve.manifest", "repro.obs.manifest", "RunManifest.write_to", None),
)

#: the daemon's per-request entry point, wrapped as the ``serve.request``
#: span; its run id is the client's operation id (``x-bench-op`` header)
#: and its parent the client's span (``x-bench-span`` header)
DISPATCH = ("repro.serve.app", "ServeApp._dispatch")

#: phase roots: every other span descends from one of them
PHASES = ("bench.setup", "bench.timed")


class Tracer:
    """Collects spans from any thread; one instance per traced run.

    Parents come from a per-thread stack.  A span opened on a thread whose
    stack is empty (a daemon executor thread) takes :attr:`ambient` as its
    parent: the request being dispatched.  That is exact for the closed
    loop the benchmark drives, where one request is in flight at a time.
    """

    def __init__(self, run_id: str, prefix: str = ""):
        self.run_id = run_id
        self.prefix = prefix
        #: (id, name, start, end, parent, run, lanes)
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.ambient: Optional[Tuple[str, str]] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: Optional[str] = None,
             run: Optional[str] = None) -> tuple:
        stack = self._stack()
        if parent is None:
            if stack:
                parent, inherited = stack[-1][1], stack[-1][2]
            elif self.ambient is not None:
                parent, inherited = self.ambient
            else:
                inherited = None
            run = run or inherited
        sid = f"{self.prefix}{next(self._ids)}"
        frame = (name, sid, run or self.run_id, parent, time.perf_counter())
        stack.append(frame)
        return frame

    def close(self, frame: tuple, lanes: int = 0) -> None:
        end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        else:  # an exception unwound past an inner span
            stack.remove(frame)
        name, sid, run, parent, start = frame
        self.spans.append((sid, name, start, end, parent, run, lanes))

    def span(self, name: str, parent: Optional[str] = None,
             run: Optional[str] = None):
        tracer = self

        class _Span:
            def __enter__(self):
                self.frame = tracer.open(name, parent, run)
                return self.frame

            def __exit__(self, *exc):
                tracer.close(self.frame)

        return _Span()


def _resolve(module_name: str, attr_path: str):
    module = importlib.import_module(module_name)
    owner = module
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def _wrap(tracer: Tracer, name: str, fn, is_method_of_batch: bool = False):
    if is_method_of_batch:
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            frame = tracer.open(name)
            try:
                return fn(self, *args, **kwargs)
            finally:
                tracer.close(frame, lanes=self.n_lanes)
        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(frame)
    return wrapper


def _wrap_dispatch(tracer: Tracer, fn):
    @functools.wraps(fn)
    async def wrapper(self, request):
        headers = request.headers
        frame = tracer.open("serve.request",
                            parent=headers.get("x-bench-span"),
                            run=headers.get("x-bench-op"))
        tracer.ambient = (frame[1], frame[2])
        try:
            return await fn(self, request)
        finally:
            tracer.ambient = None
            tracer.close(frame)
    return wrapper


class Installation:
    """The wrappers of one traced pass; :meth:`remove` restores the program."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def remove(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


def install(tracer: Tracer, serve: bool = False) -> Installation:
    """Wrap every :data:`TARGETS` boundary (and with *serve* the daemon's
    dispatch) so calls record spans into *tracer*."""
    import repro.eval  # noqa: F401  (load every module a target lives in)
    import repro.eval.campaign_engine  # noqa: F401
    import repro.runtime.batch  # noqa: F401

    if serve:
        import repro.serve.app  # noqa: F401
    inst = Installation()
    for name, module_name, attr_path, only in TARGETS:
        module, owner, attr = _resolve(module_name, attr_path)
        original = getattr(owner, attr)
        wrapper = _wrap(tracer, name, original,
                        is_method_of_batch=(name == "runtime.batch"))
        if owner is not module:  # a method: one binding, on its class
            inst.replace(owner, attr, wrapper)
            continue
        holders = (
            [sys.modules[m] for m in only] if only is not None else
            [m for key, m in list(sys.modules.items())
             if key == "repro" or key.startswith("repro.")]
        )
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    inst.replace(holder, key, wrapper)
    if serve:
        _, owner, attr = _resolve(*DISPATCH)
        inst.replace(owner, attr, _wrap_dispatch(tracer, getattr(owner, attr)))
    return inst


# -- analysis -----------------------------------------------------------------
def _union(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def analyse(spans: Sequence[tuple]) -> Dict[str, dict]:
    """Per-phase, per-layer budget of *spans*.

    Returns ``{phase: {"wall_s", "layers": {name: {"calls", "busy_s",
    "self_s", "lanes"}}, "self_sum_s", "unrooted"}}``.  ``busy_s`` is the
    union of the layer's own intervals (inclusive of its children),
    ``self_s`` the summed self time.  A span whose parent chain does not
    reach a phase root is counted under ``unrooted`` and left out.
    """
    by_id = {s[0]: s for s in spans}
    children: Dict[str, List[tuple]] = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append(s)

    phase_of: Dict[str, Optional[str]] = {}

    def phase(sid: str) -> Optional[str]:
        chain = []
        found = None
        cur = sid
        while cur is not None:
            if cur in phase_of:
                found = phase_of[cur]
                break
            span = by_id.get(cur)
            if span is None:
                break
            chain.append(cur)
            if span[1] in PHASES and span[4] is None:
                found = span[1]
                break
            cur = span[4]
        for c in chain:
            phase_of[c] = found
        return found

    out: Dict[str, dict] = {}
    intervals: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    for s in spans:
        ph = phase(s[0])
        if ph is None:
            continue
        entry = out.setdefault(ph, {"wall_s": 0.0, "layers": {},
                                    "self_sum_s": 0.0})
        sid, name, start, end, _parent, _run, lanes = s
        covered = _union(
            (max(c[2], start), min(c[3], end))
            for c in children.get(sid, ()) if min(c[3], end) > max(c[2], start)
        )
        self_s = max(0.0, (end - start) - covered)
        row = entry["layers"].setdefault(
            name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "lanes": 0})
        row["calls"] += 1
        row["self_s"] += self_s
        row["lanes"] += lanes
        entry["self_sum_s"] += self_s
        intervals.setdefault((ph, name), []).append((start, end))
        if name == ph:
            entry["wall_s"] += end - start
    for (ph, name), ivs in intervals.items():
        out[ph]["layers"][name]["busy_s"] = _union(ivs)
    unrooted = sum(1 for s in spans if phase(s[0]) is None)
    for entry in out.values():
        entry["unrooted"] = unrooted
    return out


def budget_gaps(budget: Dict[str, dict],
                walls: Dict[str, float]) -> Dict[str, float]:
    """Per phase, the self-time sum minus the wall time measured outside
    the phase's root span, as a share of that wall time."""
    return {
        ph: (budget[ph]["self_sum_s"] - wall) / wall
        for ph, wall in walls.items() if ph in budget and wall > 0
    }


def render_table(budget: Dict[str, dict], walls: Dict[str, float],
                 title: str, tolerance: float) -> str:
    """The per-layer budget as a markdown table, one section per phase."""
    lines = [f"# {title}", ""]
    for ph in PHASES:
        entry = budget.get(ph)
        if entry is None or ph not in walls:
            continue
        wall = walls[ph]
        lines += [f"## {ph}: wall {wall:.4f} s", "",
                  "| layer | calls | busy s | self s | self % |",
                  "|---|---:|---:|---:|---:|"]
        rows = sorted(entry["layers"].items(),
                      key=lambda kv: -kv[1]["self_s"])
        for name, row in rows:
            share = row["self_s"] / wall * 100 if wall else 0.0
            lines.append(f"| {name} | {row['calls']} | {row['busy_s']:.4f} "
                         f"| {row['self_s']:.4f} | {share:.1f} |")
        gap = entry["self_sum_s"] - wall
        lines += ["", f"self-time sum {entry['self_sum_s']:.4f} s vs wall "
                  f"{wall:.4f} s measured outside the root span (difference "
                  f"{gap:+.4f} s; tolerance {tolerance:.0%} of wall); "
                  f"{entry['unrooted']} span(s) outside any phase", ""]
    return "\n".join(lines)
