"""Shared pieces of the benchmark: paths, run isolation, statistics and the
environment stamp recorded with every result."""
from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import subprocess
import tempfile
import time
from importlib import metadata
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: environment every workload runs under: a pinned hash seed and the
#: in-memory artifact cache
BASE_ENV = {"PYTHONHASHSEED": "0", "REPRO_CACHE": "mem"}


#: ``REPRO_BACKEND`` of each workload: the CLI default for the reference
#: campaign and the daemon, the lane-vectorized engine for the batch one
BACKENDS = {"campaign-ref": "compiled", "campaign-batch": "batch",
            "serve": "compiled"}


def have_sources() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def workload_env(backend: str, cache_dir: str) -> Dict[str, str]:
    """The explicit per-run environment of one workload."""
    env = dict(BASE_ENV)
    env["REPRO_BACKEND"] = backend
    env["REPRO_CACHE_DIR"] = cache_dir
    env["PYTHONPATH"] = SRC
    return env


def scratch_dir(tag: str) -> str:
    """A fresh temp directory inside the checkout (removed by the caller)."""
    os.makedirs(OUT, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"tmp-{tag}-", dir=OUT)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest of the usual percentiles with at least ten samples
    beyond it: ``(value, percentile, sample count)``."""
    data = sorted(values)
    n = len(data)
    for pct in (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            break
    else:
        raise ValueError(f"need at least 20 samples for a tail, got {n}")
    # nearest-rank percentile
    rank = max(1, math.ceil(pct / 100.0 * n))
    return data[rank - 1], pct, n


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def src_digest() -> str:
    """Content digest of the program sources: the checkout the benchmark
    runs in is not a git repository, so this stands in for the commit."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _commit() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


#: iterations of the host-speed probe (0.2 to 0.4 s of CPU on a 2-core
#: x86-64 host, Python 3.11)
HOST_PROBE_LOOPS = 2_000_000


def host_probe_s() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    A virtual machine's speed drifts with load from its neighbours on the
    physical host, which ``loadavg`` does not see.  The probe is only recorded next to the
    metrics, never used to adjust them, so a reader can tell host drift
    from a change in the program.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(HOST_PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - t0


def env_stamp() -> dict:
    """Interpreter, numpy, cores, commit (or source digest), load and the
    host-speed probe."""
    # read from the package metadata: importing numpy here would add to
    # the peak RSS the campaign workloads report
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": _commit(),
        "src_digest": src_digest(),
        "loadavg": list(os.getloadavg()),
        "host_probe_s": host_probe_s(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def split_counts(total: int, parts: int) -> List[int]:
    """*total* spread over *parts* as evenly as possible."""
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]
