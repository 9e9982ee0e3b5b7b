"""The benchmark's own checks: fixed work repeats exactly, and
``BENCHMARK.json`` names exactly what the benchmark prints.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
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

from layers import PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402


def bench(workload, trace, seed=3, seconds=1):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = completed.stdout.splitlines()
    fingerprint = next(
        line for line in lines if line.startswith("fingerprint")
    )
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    return fingerprint, {
        name: entry["value"] for name, entry in result["metrics"].items()
    }


#: Per-layer counts that must repeat exactly.  The shared incumbent bound
#: reaches each portfolio slice when the scheduler lets it, so portfolio2's
#: pruning, and with it its substitution count, varies run to run; its
#: steps are capped per slice and do not.
EXACT_COUNTS = {
    "corpus3": ("synth.steps", "pprm.substitute.calls"),
    "random4": ("synth.steps", "pprm.substitute.calls"),
    "portfolio2": ("synth.steps",),
}


@pytest.mark.parametrize("workload", sorted(EXACT_COUNTS))
def test_counts_repeat_exactly(workload):
    runs = [bench(workload, trace) for trace in (0, 0, 1, 1)]
    assert len({fingerprint for fingerprint, _ in runs}) == 1
    (_, first), (_, second), (_, traced), (_, traced_again) = runs
    for name in ("solved_frac", "gates_mean", "gap_mean", "ok_frac"):
        assert first[name] == second[name] > 0
    for name in EXACT_COUNTS[workload]:
        assert traced[name] == traced_again[name] > 0


def test_fingerprint_follows_the_seed():
    one, _ = bench("random4", trace=0, seed=1)
    two, _ = bench("random4", trace=0, seed=2)
    assert one.split()[-2] != two.split()[-2]


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == PER_LAYER
    _, end_to_end = bench("corpus3", trace=0)
    assert sorted(end_to_end) == sorted(m["name"] for m in spec["end_to_end"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert units["setup_s"] == "s"
