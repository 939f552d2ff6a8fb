"""Self-test of the benchmark harness on tiny inputs (n <= 4, one seed).

Run from the repository root:  python3 -m pytest -q hessbench/test_harness.py

It checks that every metric named in BENCHMARK.json is emitted with its unit,
that the exact counts match independent enumerations, that a deliberately
wrong expected value is counted as a failure, and that the benchmark refuses
to run, without printing a result, where the library sources are missing.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def catalan_functions(n):
    """All Hessenberg functions of size n, enumerated here independently of the library."""
    return [
        h for h in itertools.product(range(1, n + 1), repeat=n)
        if all(h[i] >= i + 1 for i in range(n)) and all(a <= b for a, b in zip(h, h[1:]))
    ]


def proper_colorings(h):
    """Colorings with colors 1..n of the graph joining i < j when j <= h(i)."""
    n = len(h)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if j + 1 <= h[i]]
    return sum(
        all(k[i] != k[j] for i, j in edges)
        for k in itertools.product(range(n), repeat=n)
    )


def tiny(workload, trace, expect=None):
    return run.run(workload, seed=1, seconds=0, trace=trace, scale="tiny", expect=expect)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    result = tiny(workload, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {k: v["unit"] for k, v in metrics.items()}
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted(workload):
    result = tiny(workload, trace=True)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    times = [k for k, v in result["metrics"].items() if v["unit"] == "s" and k != "trace.overhead_s"]
    assert all(metrics[k] > 0 for k in times)
    assert (run.OUT / f"trace-{workload}-seed1.json").is_file()
    if workload == "verify-n6":
        functions = catalan_functions(4)
        assert metrics["dotchar.regular_betti.calls"] == len(functions) * 2 ** 3
        assert metrics["dotchar.colorings"] == sum(proper_colorings(h) for h in functions)
    elif workload == "analyze-n6-cache":
        # half of the functions are pre-filled, and every function fetches the same modules
        assert metrics["cli.cache_hits"] == metrics["cli.cache_misses"] > 0
        assert metrics["dotchar.regular_betti.calls"] == len(catalan_functions(4)) * 2 ** 3
    else:
        assert metrics["gkm.flow_up_class.calls"] == 6  # one per permutation of 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_value_is_a_failure(workload):
    result = tiny(workload, trace=False, expect={"betti_total": 25})  # 4! is 24; 3! is 6
    assert not result["correct"]
    assert result["failed"] > 0


def test_timeline_scales_each_stretch_by_the_kernel_samples_around_it():
    ref = calibrate.REFERENCE_S
    timeline = calibrate.Timeline()
    # kernel samples run at half the reference speed up to t = 20 and at the
    # reference speed after it; the pass runs from t = 10 to t = 30
    slow = [(t, t + 2 * ref) for t in (1, 2, 3, 4, 11, 12, 13, 14)]
    fast = [(t, t + ref) for t in (21, 22, 23, 24, 31, 32, 33, 34)]
    timeline.samples = slow + fast
    work, scaled = timeline.scaled(10, 30)
    kernels = 4 * 2 * ref + 4 * ref
    assert work == pytest.approx(20 - kernels)
    # the stretch from 14 + 2 ref to 21 has three slow and three fast samples around it
    middle = 21 - (14 + 2 * ref)
    expected = (11 - 10) / 2 + 3 * (1 - 2 * ref) / 2 + middle / 1.5 + 3 * (1 - ref) + (30 - 24 - ref)
    assert scaled == pytest.approx(expected)
    assert calibrate.colorings() == calibrate.KERNEL_COLORINGS


def test_refuses_without_library_sources():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "hessbench").mkdir(parents=True)
    try:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "hessbench")
        proc = subprocess.run(
            [sys.executable, "hessbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=60,
        )
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)
