"""One benchmark pass in a fresh interpreter; run.py starts it.

Usage: python3 hessbench/worker.py '<json config>'

The config names the workload, seed, scale and mode.  After import and
building the inputs, mode
  setup    only runs the calibration kernel (calibrate.py), so that the
           set-up can be scaled;
  prefill  fills the cache for the seeded half of the analyze inputs, paced
           by calibration kernel runs;
  pass     runs one pass of the workload, timed, then checks its outputs;
           untraced, the pass is paced by calibration kernel runs
           (calibrate.py); with "trace" set, the pass records spans and a
           probe of the bypassed layers follows it.
The last line of standard output is a JSON object with the monotonic-clock
time at which set-up ended ("ready"), and for a pass its wall time (scaled
too, when paced), peak RSS, operation counts and, when traced, the spans.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> None:
    config = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    import hesslab

    if Path(hesslab.__file__).resolve().parent != SRC / "hesslab":
        raise SystemExit(f"hesslab imported from {hesslab.__file__}, not from {SRC}")
    import calibrate
    import workloads
    from tracing import Tracer

    workload, seed = config["workload"], config["seed"]
    inp = workloads.inputs(workload, config["scale"], seed)
    exp = workloads.expected(workload, inp)
    exp.update(config.get("expect") or {})
    result = {"ready": perf_counter()}
    if config["mode"] == "setup":
        result.update(paced(calibrate, lambda between: None)[1])
    elif config["mode"] == "prefill":
        result.update(paced(calibrate, lambda between: workloads.prefill(inp, seed, config["cache_dir"], between))[1])
    else:
        result.update(one_pass(workloads, Tracer, calibrate, config, inp, exp))
    print(json.dumps(result))


def paced(calibrate, work):
    """Run work(between) among calibration kernel runs (calibrate.py).

    Returns what work returned and its timing: raw and scaled time, and the
    slowdown the kernel showed right after set-up.
    """
    timeline = calibrate.Timeline()
    timeline.sample(calibrate.EDGE_SAMPLES)
    t0 = perf_counter()
    value = work(timeline.between)
    t1 = perf_counter()
    timeline.sample(calibrate.EDGE_SAMPLES)
    wall, scaled = timeline.scaled(t0, t1)
    return value, {
        "wall": wall,
        "scaled_wall": scaled,
        "setup_slowdown": timeline.slowdown(0),
    }


def one_pass(workloads, Tracer, calibrate, config, inp, exp) -> dict:
    workload, seed, cache_dir = config["workload"], config["seed"], config["cache_dir"]
    out = workloads.Outcome()
    tracer = Tracer(f"{workload}/seed{seed}/pass") if config["trace"] else None
    try:
        if tracer is None:
            outputs, result = paced(
                calibrate, lambda between: workloads.run(workload, inp, seed, cache_dir, between=between)
            )
        else:
            t0 = perf_counter()
            outputs = workloads.run(workload, inp, seed, cache_dir, tracer)
            result = {"wall": perf_counter() - t0}
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["reference"] = workloads.check(
            workload, inp, seed, exp, outputs, out, cache_dir, config.get("reference")
        )
        result["cases"] = len(inp["functions"]) * (len(inp["Js"]) if workload == "kahler-n4" else 1)
        if tracer is not None:
            probe = Tracer(f"{workload}/seed{seed}/probe")
            t0 = perf_counter()
            workloads.probe(config["probes"], seed, out, probe, config["probe_dir"])
            result["probe_wall"] = perf_counter() - t0
            result["spans"] = {"pass": tracer.export(), "probe": probe.export()}
            result["counts"] = {"pass": tracer.counts, "probe": probe.counts}
    except Exception:
        # a pass that raises counts every operation it would have made as failed
        result = {"error": traceback.format_exc(limit=3)}
        out.attempted = out.failed = max(out.attempted, len(inp["functions"]))
    result.update(attempted=out.attempted, failed=out.failed, notes=out.notes)
    return result


if __name__ == "__main__":
    main()
