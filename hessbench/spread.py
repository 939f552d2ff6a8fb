"""Run the benchmark over several seeds and report each metric's median and spread.

Usage (from the repository root):

    python3 hessbench/spread.py --seeds 1-10

Runs are sequential: every workload of BENCHMARK.json, at its run_seconds,
with --trace 0.  For each workload and metric it prints the median, the
quartiles (statistics.quantiles with n=4) and the spread, which is the
distance between the quartiles as a share of the median, next to the metric's
bound from BENCHMARK.json.  The raw results go to hessbench/out/spread-*.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT,
            )
            took = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-1500:]}")
                return 1
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            summary = json.loads(proc.stderr.strip().splitlines()[-1])
            runs.append({"seed": seed, "run_s": took, "result": result, "samples": summary})
            print(f"{workload} seed {seed}: {took:.1f} s, correct={result['correct']}", flush=True)
        stats = {}
        for name in runs[0]["result"]["metrics"]:
            values = [run["result"]["metrics"][name]["value"] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            stats[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
            bound = bounds[name]
            flag = f"bound {bound:.2f}" + ("  OVER" if spread > bound else "")
            print(f"  {name:44s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.4f}  {flag}")
        report[workload] = {"runs": runs, "stats": stats}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (out / f"spread-{stamp}.json").write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
