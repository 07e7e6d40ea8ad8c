#!/usr/bin/env python3
"""Run every workload on several seeds and record the figures.

    python3 bench/baseline.py

Runs ``bench/run.py`` once per workload and seed (seeds 201-210), one run at
a time, then one traced run per workload on the first seed, and writes
``bench/baseline.json``.  For each end-to-end metric it
records the values, their median and quartiles, and the spread
(q3 − q1) / median that the bounds in BENCHMARK.json are judged against.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

SEEDS = range(201, 211)
OUT = HERE / "baseline.json"


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main():
    seeds = list(SEEDS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    for name in workloads.NAMES:
        results = []
        for seed in seeds:
            res = run(name, seed, spec["run_seconds"], 0)
            results.append(res)
            print(name, seed, {k: round(v["value"], 4) for k, v in res["metrics"].items()}, flush=True)
        metrics = {k: summary([r["metrics"][k]["value"] for r in results]) for k in bounds}
        for k, s in metrics.items():
            s["bound"] = bounds[k]
            print(f"  {name} {k:18} median {s['median']:10.4g} spread {s['spread']:.3f} bound {bounds[k]}")
        traced = run(name, seeds[0], spec["run_seconds"], 1)
        record["workloads"][name] = {
            "shapes": workloads.WORKLOADS[name].shapes,
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": metrics,
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
