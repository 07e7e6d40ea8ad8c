#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload, in interleaved pairs.

Each pair runs `bench/run.py` (or, with --cold, `scripts/cold_pass.py`)
once in PARENT_DIR and once in CHANGE_DIR, and the side that goes first
alternates from pair to pair, so a drift in machine speed falls on both
sides alike.  Each side runs its own `src/`.  The script prints every
pair's change/parent ratios and then each metric's median per side, and
writes one JSON record in the layout of a workload entry of the root
`BENCH_*.json` files: per metric the median and quartiles of each side,
the number of pairs the change won and every run in pair order.

    python3 scripts/bench_pairs.py ../parent . --workload maxmin-synth --pairs 10 --seconds 24
    python3 scripts/bench_pairs.py ../parent . --workload maxmin-synth --pairs 2 --cold 3
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def command(args):
    if args.cold:
        return ["scripts/cold_pass.py", "--workload", args.workload, "--seed", str(args.seed),
                "--passes", str(args.cold)]
    return ["bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]


def run_once(checkout, args):
    """The JSON result line of one run in checkout; metric values as floats."""
    res = subprocess.run([sys.executable, *command(args)], cwd=checkout, capture_output=True, text=True)
    if res.returncode != 0:
        sys.exit(f"error: run in {checkout} exited {res.returncode}:\n{res.stderr[-2000:]}")
    out = json.loads(res.stdout.strip().splitlines()[-1])
    # bench/run.py reports {"value": v, "unit": u}; cold_pass.py reports v
    out["metrics"] = {name: m["value"] if isinstance(m, dict) else m for name, m in out["metrics"].items()}
    return out


def spread(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cold", type=int, metavar="PASSES", help="run scripts/cold_pass.py with this many passes")
    ap.add_argument("--out", type=Path, help="write the JSON record here instead of stdout")
    args = ap.parse_args()
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"]}

    runs = {side: [] for side in SIDES}
    for p in range(args.pairs):
        order = SIDES if p % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(dirs[side], args))
        parent, change = runs["parent"][-1]["metrics"], runs["change"][-1]["metrics"]
        ratios = "  ".join(f"{name} {change[name] / parent[name]:.3f}" for name in parent if parent[name])
        print(f"pair {p + 1}/{args.pairs} ({order[0]} first): change/parent {ratios}", file=sys.stderr)

    metrics = {}
    for name in runs["parent"][0]["metrics"]:
        values = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        better = meta[name]["better"]
        wins = sum((c > p) if better == "higher" else (c < p) for p, c in zip(values["parent"], values["change"]))
        metrics[name] = {
            "unit": meta[name]["unit"],
            "better": better,
            **{side: spread(values[side]) for side in SIDES},
            "change_wins": wins,
            "runs": values,
        }
        print(f"{name:20} parent {metrics[name]['parent']['median']:10.4f}  "
              f"change {metrics[name]['change']['median']:10.4f}  wins {wins}/{args.pairs}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "command": "python3 " + " ".join(command(args)),
        "pairs": args.pairs,
        "correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "metrics": metrics,
    }
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
