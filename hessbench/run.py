"""hesslab benchmark: run one workload for a fixed time and print its metrics.

Usage (from the repository root):

    python3 hessbench/run.py --workload verify-n6 --seed 1 --seconds 25 --trace 0

The library is imported from ``src/`` of the checkout this file sits in; no
install is needed.  Each pass runs in a fresh interpreter (worker.py), so the
library's memo tables start cold, as they do for every CLI call.  A few
set-up-only workers run first; then passes repeat until one more would end
the run after ``--seconds``, with at least two.  The workload
seed is the library seed (finite-field sampling and the moment-graph
covector); for analyze-n6-cache it also picks which half of the functions is
cached before each measured pass.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` one traced pass runs first and the
object has the per-layer metrics instead, and the spans are written to
``hessbench/out/trace-<workload>-seed<seed>.json``.  End-to-end times are
scaled to a reference host speed (calibrate.py).  A summary of the samples,
raw and scaled, goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import covered_time, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify-n6", "analyze-n6-cache", "kahler-n4")
# Layers each workload bypasses, timed on a small fixed case after the traced
# pass so that every per-layer metric is measured on every workload.
PROBES = {
    "verify-n6": ["gkm", "cache"],
    "analyze-n6-cache": ["gkm", "support"],
    "kahler-n4": ["springer", "support", "cache"],
}
MIN_PASSES = 2
# Workers that only start up, import and build the inputs, run before the
# passes: set-up takes a few tenths of a second and its samples spread widely,
# so setup_s is a median of these and of every paced worker's start-up.
SETUP_RUNS = 10
# kahler-n4's cost depends on the moment-graph covector, which the library
# seed draws, so its k-th pass uses seed + k * SEED_STRIDE; the passes of the
# other workloads repeat the workload seed.
SEED_STRIDE = 1_000_003
RUN_LIMIT_S = 170  # the whole run, including set-up, ends well within 180 s

# (metric, unit, what, name, probe group): "self" sums span self times, "calls"
# counts spans, "count" reads a counter.  A metric of a group the workload
# bypasses is read from the probe's spans.
PER_LAYER = [
    ("dotchar.chromatic_qsym.self_s", "s", "self", "dotchar.chromatic_qsym", None),
    ("dotchar.colorings", "count", "count", "dotchar.colorings", None),
    ("dotchar.dot_action_multiplicities.self_s", "s", "self", "dotchar.dot_action_multiplicities", None),
    ("dotchar.regular_betti.self_s", "s", "self", "dotchar.regular_betti", None),
    ("dotchar.regular_betti.calls", "count", "calls", "dotchar.regular_betti", None),
    ("springer.generic_jordan_type.self_s", "s", "self", "springer.generic_jordan_type", "springer"),
    ("springer.support_violations.self_s", "s", "self", "springer.support_violations", "support"),
    ("cli.cache_fetch.s", "s", "self", "cli.cache_fetch", "cache"),
    ("cli.cache_store.s", "s", "self", "cli.cache_store", "cache"),
    ("cli.cache_hits", "count", "count", "cli.cache_hits", "cache"),
    ("cli.cache_misses", "count", "count", "cli.cache_misses", "cache"),
    ("cli.analyze_report.self_s", "s", "self", "cli.analyze_report", "cache"),
    ("gkm.build_gkm.s", "s", "self", "gkm.build_gkm", "gkm"),
    ("gkm.flow_up_class.self_s", "s", "self", "gkm.flow_up_class", "gkm"),
    ("gkm.flow_up_class.calls", "count", "calls", "gkm.flow_up_class", "gkm"),
    ("gkm.invariant_subring.self_s", "s", "self", "gkm.invariant_subring", "gkm"),
    ("gkm.poincare_pairing.s", "s", "self", "gkm.poincare_pairing", "gkm"),
    ("gkm.kahler_report.self_s", "s", "self", "gkm.kahler_report", "gkm"),
]


class WorkerError(Exception):
    pass


class Run:
    def __init__(self, workload: str, seed: int, scale: str, expect: dict | None):
        self.workload, self.seed, self.scale, self.expect = workload, seed, scale, expect
        self.started = perf_counter()
        self.tmp = OUT / f"tmp-{os.getpid()}"
        self.reference = None
        self.attempted = self.failed = 0
        self.notes: list[str] = []
        self.startups: list[float] = []  # scaled start-up of every paced worker
        self.prefills: list[float] = []  # scaled cache pre-fills (analyze-n6-cache)

    def pass_seed(self, k: int) -> int:
        return self.seed + SEED_STRIDE * k if self.workload == "kahler-n4" else self.seed

    def spawn(self, mode: str, seed: int, **extra) -> dict:
        """Run worker.py to completion and return its result.

        The start-up of a worker paced by the calibration kernel (all but the
        traced pass) is a set-up sample: from the spawn to the end of import
        and input generation, scaled by the slowdown the kernel showed then.
        """
        config = {"workload": self.workload, "seed": seed, "scale": self.scale, "mode": mode}
        config.update(extra)
        timeout = max(1.0, RUN_LIMIT_S - (perf_counter() - self.started))
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
                capture_output=True, text=True, timeout=timeout, cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            raise WorkerError(f"{mode} worker exceeded {timeout:.0f} s")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
        result = json.loads(lines[-1])
        if "setup_slowdown" in result:
            self.startups.append((result["ready"] - t0) / result["setup_slowdown"])
        return result

    def fresh_cache(self, name: str) -> Path:
        """A cache directory for one pass.

        For analyze-n6-cache a separate process first fills it for the seeded
        half of the functions, so the measured pass mixes hits and misses.
        """
        cache_dir = self.tmp / f"cache-{name}"
        if self.workload != "analyze-n6-cache":
            cache_dir.mkdir(parents=True)
            return cache_dir
        self.prefills.append(self.spawn("prefill", self.seed, cache_dir=str(cache_dir))["scaled_wall"])
        return cache_dir

    def one_pass(self, k: int, trace: bool) -> dict:
        """Set up and run the k-th pass; returns the worker result."""
        name = f"{k}-traced" if trace else str(k)
        cache_dir = self.fresh_cache(name)
        result = self.spawn(
            "pass", self.pass_seed(k), trace=trace, cache_dir=str(cache_dir),
            probe_dir=str(self.tmp / f"probe-{name}"),
            probes=PROBES[self.workload], reference=self.reference, expect=self.expect,
        )
        shutil.rmtree(cache_dir)
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.notes += result["notes"]
        if "error" in result:
            raise WorkerError(result["error"])
        if self.reference is None:
            self.reference = result["reference"]
        return result

    def setup_s(self) -> float:
        """Median scaled start-up, plus on analyze-n6-cache the median scaled pre-fill."""
        return statistics.median(self.startups) + (statistics.median(self.prefills) if self.prefills else 0.0)


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full", expect=None) -> dict:
    """Measure one workload; returns the result object the benchmark prints."""
    r = Run(workload, seed, scale, expect)
    passes, costs, traced = [], [], None
    r.tmp.mkdir(parents=True, exist_ok=True)
    try:
        for _ in range(SETUP_RUNS):
            r.spawn("setup", seed)
        if trace:
            traced = r.one_pass(0, trace=True)
        while True:
            t0 = perf_counter()
            passes.append(r.one_pass(len(passes), trace=False))
            costs.append(perf_counter() - t0)
            ends_late = perf_counter() - r.started + statistics.median(costs) > seconds
            if ends_late and len(passes) >= MIN_PASSES:
                break
    except WorkerError as exc:
        r.notes.append(str(exc))
        r.failed = max(r.failed, 1)
        r.attempted = max(r.attempted, 1)
    finally:
        shutil.rmtree(r.tmp, ignore_errors=True)

    walls = [p["wall"] for p in passes]
    scaled = [p["scaled_wall"] for p in passes]
    summary = {
        "workload": workload, "seed": seed, "passes": len(passes),
        "pass_wall_s": walls, "scaled_wall_s": scaled,
        "scaled_startup_s": r.startups, "scaled_prefill_s": r.prefills, "notes": r.notes[:10],
    }
    print(json.dumps(summary), file=sys.stderr)
    if not passes or (trace and traced is None):
        return {"correct": False, "attempted": r.attempted, "failed": r.failed, "metrics": {}}
    if trace:
        # compare with the untraced passes that drew the traced pass's seed
        same_seed = [p["wall"] for k, p in enumerate(passes) if r.pass_seed(k) == r.pass_seed(0)]
        metrics = layer_metrics(workload, traced, statistics.median(same_seed))
        write_trace(workload, seed, traced, metrics)
    else:
        # times scaled to the reference host speed (see calibrate.py)
        metrics = {
            "wall_s": (statistics.median(scaled), "s"),
            "cases_per_s": (sum(p["cases"] for p in passes) / sum(scaled), "1/s"),
            "setup_s": (r.setup_s(), "s"),
            "peak_rss_mb": (max(p["rss_kb"] for p in passes) * 1024 / 1e6, "MB"),
        }
    return {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def layer_metrics(workload: str, traced: dict, untraced_wall: float) -> dict:
    """Per-layer metrics of a traced pass.

    The span self times plus trace.uncovered_s add up to the traced wall time
    by construction: self times telescope to the top-level durations.
    """
    spans, counts = traced["spans"], traced["counts"]
    own = {run: self_times(spans[run]) for run in spans}
    metrics = {}
    for metric, unit, what, name, group in PER_LAYER:
        run = "probe" if group in PROBES[workload] else "pass"
        if what == "self":
            value = sum(s for s, span in zip(own[run], spans[run]) if span["name"] == name)
        elif what == "calls":
            value = sum(1 for span in spans[run] if span["name"] == name)
        else:
            value = counts[run].get(name, 0)
        metrics[metric] = (value, unit)
    hits, misses = metrics["cli.cache_hits"][0], metrics["cli.cache_misses"][0]
    metrics["cli.cache_hit_ratio"] = (hits / (hits + misses), "ratio")
    walls = {"pass": traced["wall"], "probe": traced["probe_wall"]}
    uncovered = sum(walls[run] - covered_time(spans[run]) for run in spans)
    metrics["trace.wall_s"] = (traced["wall"], "s")
    metrics["trace.overhead_s"] = (traced["wall"] - untraced_wall, "s")
    metrics["trace.uncovered_s"] = (uncovered, "s")
    return metrics


def write_trace(workload: str, seed: int, traced: dict, metrics: dict) -> None:
    OUT.mkdir(exist_ok=True)
    offset = len(traced["spans"]["pass"])
    doc = {
        "workload": workload,
        "seed": seed,
        "wall_s": traced["wall"],
        "probe_wall_s": traced["probe_wall"],
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "spans": traced["spans"]["pass"] + [
            # parent indices point into the combined list
            dict(span, parent=None if span["parent"] is None else span["parent"] + offset)
            for span in traced["spans"]["probe"]
        ],
    }
    with open(OUT / f"trace-{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hesslab" / "__init__.py").is_file():
        print(f"hessbench: no hesslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if not result["metrics"]:
        print("hessbench: no pass completed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
