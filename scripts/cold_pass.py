#!/usr/bin/env python3
"""Time a benchmark workload on freshly parsed objects only.

`bench/run.py` parses its instance pool once and cycles through it, so after
the first pass every timed instance runs on automata whose step tables its
own earlier visits already filled.  This script measures the other case, a
caller that analyses each model once: every pass parses the pool afresh
(untimed) and runs each instance exactly once, through the benchmark's own
timed pass (one CPU, speed-scaled times, outputs checked).  It prints one
JSON line with the end-to-end time metrics over all passes.

    python3 scripts/cold_pass.py --workload maxmin-synth --passes 4
"""
import argparse
import json
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import run  # noqa: E402
import workloads  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="maxmin-synth", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    ap.add_argument("--passes", type=int, default=4)
    args = ap.parse_args()
    stored = {}
    if args.seed == run.DEFAULT_SEED and run.DIGESTS.exists():
        stored = json.loads(run.DIGESTS.read_text()).get(args.workload, {})
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.make(args.workload, tmp)
        verifier = run.Verifier(wl, stored)
        scaled = []
        for _ in range(args.passes):
            lead, pool = wl.generate(random.Random(args.seed), args.seed)
            wl.load(lead + pool)
            scaled += run.timed_pass(wl, lead + pool, verifier)[1]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "correct": verifier.failed == 0, "attempted": verifier.attempted, "failed": verifier.failed,
                      "metrics": run.time_metrics(scaled)}))


if __name__ == "__main__":
    main()
