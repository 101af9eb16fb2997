"""The benchmark's own test, on a tiny configuration.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every metric named in ``BENCHMARK.json`` is printed with its
unit, that the deterministic ones repeat exactly across two runs of one
seed, and that a planted tally mismatch counts as a failed operation.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from common import SRC  # noqa: E402

SECONDS = "1"

#: end-to-end metrics that must repeat exactly for one seed and size
DETERMINISTIC = ("protection_rate", "norm_cycles", "norm_instrs")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(workload: str, trace: int, seed: int = 3) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_metric_lists_match_the_spec():
    import run

    data = spec()
    assert [(m["name"], m["unit"]) for m in data["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in data["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in data["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", ["campaign-ref", "campaign-batch",
                                      "serve"])
def test_untraced_metrics_complete_and_deterministic(workload):
    units = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    first, second = bench(workload, 0), bench(workload, 0)
    for result in (first, second):
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", ["campaign-ref", "campaign-batch",
                                      "serve"])
def test_traced_metrics_complete_and_counts_repeat(workload):
    units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    first, second = bench(workload, 1), bench(workload, 1)
    for result in (first, second):
        assert result["correct"] is True and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    counts = [n for n, u in units.items() if u == "count" or u == "B"]
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    m = first["metrics"]
    if workload == "serve":
        assert all(m[n]["value"] == 0 for n in units
                   if n.startswith(("eval.", "runtime.batch.")))
    elif workload == "campaign-ref":
        assert m["runtime.batch.calls"]["value"] == 0
        assert m["eval.prepare.calls"]["value"] == 4  # one per group
    else:
        assert m["runtime.batch.calls"]["value"] == \
            m["eval.checkpoint.writes"]["value"]
        assert m["runtime.interp.calls"]["value"] == 0


def test_planted_tally_mismatch_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(SRC)
    monkeypatch.setenv("REPRO_CACHE", "mem")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    import campaigns

    groups = campaigns.setup()
    checkpoint = str(tmp_path / "campaign.json")
    campaigns.timed_campaign(groups, seed=5, trials=4, chunk=2,
                             checkpoint=checkpoint)
    chunks = campaigns.load_chunks(checkpoint)
    checks = campaigns.checked_groups(groups, seed=5)

    compared, failed, notes = campaigns.cross_check(chunks, checks, 5, "batch")
    assert (compared, failed, notes) == (8, 0, [])

    # move one trial of every chunk from its first outcome to another
    for data in chunks.values():
        tallies = data["tallies"]
        name = sorted(tallies)[0]
        tallies[name] -= 1
        other = "SDC" if name != "SDC" else "HANG"
        tallies[other] = tallies.get(other, 0) + 1
    compared, failed, notes = campaigns.cross_check(chunks, checks, 5, "batch")
    assert compared == 8 and failed == 8 and len(notes) == 4
