#!/usr/bin/env python3
"""Seeded benchmark of the fdes workbench.

    python3 bench/run.py --workload maxmin-synth --seed 0 --seconds 24 --trace 0

Runs one workload (maxmin-synth, maxprod-bounded, lang-closures, cli-replay)
as a closed loop from one process and one client: each instance starts only
after the previous one finished, and cli-replay runs one subprocess at a
time.  Run it from the root of a checkout; it imports fdes from ``src/``.

``--trace 0`` reports the end-to-end metrics of one timed pass of about
``--seconds`` of instance time.  ``--trace 1`` is the separate traced run:
it times a fixed instance list untraced, replays it with every public fdes
function wrapped (see tracing.py), and reports the per-layer metrics.  Either
way the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the same
figures for people.

``--record-digests`` runs every instance of the default seed once and stores
the digests of its outputs in digests.json; later runs of that seed must
reproduce them bit for bit.
"""

import os
import time

START = time.perf_counter()

# The run and its subprocesses keep to one CPU.  The two vCPUs of the machine
# where the bounds were set often ran at speeds up to 2x apart at the same
# moment, so the speed reference (below) only describes the instances when
# both run on the same CPU.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_REPS = 7
CLI_STARTUP_REPS = 9
# Pool rounds replayed by the traced run (after the lead instances), a fixed
# list so that its counts do not depend on machine speed.  A cli-replay
# round is 18 calls of which some subcommands have one, so it replays four.
TRACE_ROUNDS = {"maxmin-synth": 2, "maxprod-bounded": 1, "lang-closures": 2, "cli-replay": 4}
# A shared 2-vCPU virtual machine (where the bounds were set) changed speed by
# up to 1.7x over minutes, which no run length averages out.  So between instances,
# untimed, the harness times reference(), fixed pure-Python work independent
# of fdes, and scales each instance's time to the machine speed at which
# reference() takes REFERENCE_S: time × REFERENCE_S ÷ the mean reference time
# just before and after it.  Raw figures are printed beside the scaled ones.
REFERENCE_S = 0.005
CLI_SUBCOMMANDS = ("reach", "tree", "pairs", "check", "check-n", "compose", "synthesize",
                   "eval", "nonblock", "suplang", "inflang")

if not (ROOT / "src" / "fdes").is_dir():
    sys.exit(f"error: no fdes sources under {ROOT / 'src'}; run from a full checkout")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from fdes import language  # noqa: E402
from fdes.errors import DepthExceeded  # noqa: E402

IMPORT_S = time.perf_counter() - START


# ---------------------------------------------------------------------------
# output checks


def digest(out):
    h = hashlib.sha256()
    for name in sorted(out.texts):
        h.update(name.encode() + b"\0" + out.texts[name].encode() + b"\0")
    return h.hexdigest()[:20]


class Verifier:
    """Counts attempted and failed instances.  An instance fails when it
    raises, when a seed-independent check on its result fails, or when its
    output digest differs from the stored one (default seed, cli-replay) or
    from its own first run in this process."""

    def __init__(self, wl, stored):
        self.wl = wl
        self.stored = stored
        self.seen = {}
        self.attempted = 0
        self.failed = 0

    def passes(self, inst, out):
        if out is None:
            return False
        try:
            ok = self.wl.check(inst, out)
        except Exception:  # a check that cannot run on this output fails it
            traceback.print_exc(file=sys.stderr)
            return False
        d = digest(out)
        return ok and d == self.stored.get(inst.key, self.seen.setdefault(inst.key, d))

    def record(self, inst, out):
        self.attempted += 1
        if not self.passes(inst, out):
            self.failed += 1
            if self.failed == 1:
                print(f"FAILED instance {inst.key} ({inst.kind})", file=sys.stderr)


def self_test(wl, verifier, inst, out):
    """A corrupted output must count as failed: one rendered text changed,
    and, where the workload has one, a corrupted result object."""
    if out is None:
        return False
    name = sorted(out.texts)[0]
    bad = [workloads.Output({**out.texts, name: out.texts[name] + "#"}, out.objs)]
    if hasattr(wl, "corrupt"):
        bad.append(wl.corrupt(out))
    return verifier.passes(inst, out) and not any(verifier.passes(inst, b) for b in bad)


# ---------------------------------------------------------------------------
# timed passes

_TENTHS = tuple(Fraction(i, 10) for i in range(11))


def reference():
    """Fixed work like the library's hot paths (Fraction min, max and
    products, tuple building, dict inserts); returns its wall time."""
    seen = {}
    v = (_TENTHS[3], _TENTHS[7], _TENTHS[10])
    t0 = time.perf_counter()
    for i in range(240):
        m = _TENTHS[i % 11]
        v = tuple(max(min(x, m), y * _TENTHS[5]) for x, y in zip(v, v[1:] + v[:1]))
        seen[v] = i
    return time.perf_counter() - t0


def run_one(wl, inst, tracer=None):
    """Run one instance; returns (output or None, wall seconds)."""
    fn = wl.run
    if tracer is not None:
        fn = tracer.span(f"{wl.span_prefix}.{inst.kind}", wl.run)
        tracer.begin_instance(inst.key)
        tracer.recording = True
    t0 = time.perf_counter()
    try:
        out = fn(inst)
    except Exception:  # an error the workload does not expect fails the instance
        traceback.print_exc(file=sys.stderr)
        out = None
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.recording = False
    return out, wall


def timed_pass(wl, seq, verifier, seconds=None, tracer=None):
    """Run instances from `seq` until their summed wall time reaches
    `seconds` (or `seq` ends).  Checks and reference timings run between
    instances and are not timed.  Starts from a collected heap, with the
    objects alive at that point (the loaded pool) frozen out of later
    collections so their number does not set the cost of the program's own.

    Returns the instance walls, the same walls scaled by the reference()
    timings just before and after each instance, and the last
    (instance, output)."""
    gc.collect()
    gc.freeze()
    walls, scaled, last = [], [], None
    before = [reference()]
    for inst in seq:
        out, wall = run_one(wl, inst, tracer)
        after = [reference() for _ in range(1 + int(wall / 0.5))]
        walls.append(wall)
        scaled.append(wall * REFERENCE_S / statistics.fmean(before + after))
        before = after
        verifier.record(inst, out)
        last = (inst, out)
        if seconds is not None and sum(walls) >= seconds:
            break
    return walls, scaled, last


def setup(wl, seed, verifier):
    """Seeded generation, JSON round trip through model_io and warm-up,
    repeated SETUP_REPS times.  Each repetition is scaled by the speed
    measured just before and after it, because set-up is too short for one
    mean to follow the machine.  Returns the instances and the median raw
    and scaled repetition times."""
    raw, scaled, warm = [], [], []
    for _ in range(SETUP_REPS):
        gc.collect()
        refs = [reference() for _ in range(2)]
        t0 = time.perf_counter()
        lead, pool = wl.generate(random.Random(seed), seed)
        wl.load(lead + pool)
        outs = [(inst, wl.run(inst)) for inst in wl.warmup(pool)]
        t = time.perf_counter() - t0
        refs.extend(reference() for _ in range(2))
        raw.append(t)
        scaled.append(t * REFERENCE_S / statistics.fmean(refs))
        warm.extend(outs)
    for inst, out in warm:
        verifier.record(inst, out)
    return lead, pool, statistics.median(raw), statistics.median(scaled)


def tail(walls):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(walls)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def time_metrics(times):
    return {
        "throughput_per_s": len(times) / sum(times),
        "latency_p50_ms": 1000 * statistics.median(times),
        "latency_tail_ms": 1000 * tail(times)[0],
    }


# ---------------------------------------------------------------------------
# per-layer metrics from the traced run


def _count_rows(counters, args, report):
    counters["supervisory.rows_emitted"] += len(report.rows)


def _states_found(counters, args, graph):
    # every edge is one dedup lookup; all but the first node's were hits
    counters["reachability.bfs_lookups"] += len(graph.edges)
    counters["reachability.bfs_hits"] += len(graph.edges) - (len(graph.nodes) - 1)


def _pairs_found(counters, args, graph):
    counters["reachability.pairs_found"] += len(graph.nodes)
    _states_found(counters, args, graph)


def _depth_exceeded(counters, args, exc):
    if isinstance(exc, DepthExceeded):
        counters["reachability.depth_exceeded"] += 1
        counters["reachability.frontier_open"] += len(exc.frontier)


def _tree_nodes(counters, args, root):
    counters["reachability.tree_nodes"] += sum(1 for _ in root.walk())


def _strings_walked(counters, args, report):
    k = len(args[1].alphabet)
    counters["supervisory.nonblocking.strings_walked"] += sum(k**i for i in range(report.depth_used + 1))


def _render_bytes(counters, args, result):
    counters["supervisory.render.bytes"] += sum(len(t.encode()) for t in result)


def _closure_support(counters, args, result):
    counters["language.closures"] += 1
    counters["language.support_total"] += len(args[1].degrees)


HOOKS = {
    "supervisory.check_controllability": _count_rows,
    "supervisory.check_language_controllability": _count_rows,
    "supervisory.check_n_controllability": _count_rows,
    "reachability.enumerate_pairs": _pairs_found,
    "reachability.enumerate_states": _states_found,
    "reachability.build_computing_tree": _tree_nodes,
    "supervisory.check_nonblocking": _strings_walked,
    "supervisory.render": _render_bytes,
    "language.supremal_controllable_sublanguage": _closure_support,
    "language.infimal_prefix_closed_superlanguage": _closure_support,
}
ERROR_HOOKS = {
    "reachability.enumerate_states": _depth_exceeded,
    "reachability.build_computing_tree": _depth_exceeded,
}


def layer_metrics(tracer, overhead, cli_startup, speed):
    table = tracer.span_table()
    c, k, b = tracer.counters, tracer.calls, tracer.busy

    def ratio(x, y):
        return x / y if y else 0.0

    def busy(name):
        return table[name]["busy_s"] if name in table else 0.0

    def self_s(name):
        return table[name]["self_s"] if name in table else 0.0

    def calls(name):
        return table[name]["calls"] if name in table else 0

    pairs_spans = table.get("reachability.enumerate_pairs")
    m = {
        "algebra.maxmin_apply.calls": k["algebra.maxmin_apply"],
        "algebra.maxmin_apply.busy_s": b["algebra.maxmin_apply"],
        "algebra.maxmin_apply.distinct": tracer.distinct_total["algebra.maxmin_apply"],
        "algebra.maxprod_apply.calls": k["algebra.maxprod_apply"],
        "algebra.maxprod_apply.busy_s": b["algebra.maxprod_apply"],
        "algebra.maxprod_apply.ns_per_call": 1e9 * ratio(b["algebra.maxprod_apply"], k["algebra.maxprod_apply"]),
        "automaton.step.calls": k["automaton.step"],
        "automaton.step.distinct": tracer.distinct_total["automaton.step"],
        "automaton.step.useful_ratio": ratio(tracer.distinct_total["automaton.step"], k["automaton.step"]),
        "automaton.run.calls": k["automaton.run"],
        "automaton.parallel_compose.busy_s": busy("automaton.parallel_compose"),
        "reachability.enumerate_pairs.calls": calls("reachability.enumerate_pairs"),
        "reachability.enumerate_pairs.calls_per_instance": ratio(
            calls("reachability.enumerate_pairs"), len(pairs_spans["instances"]) if pairs_spans else 0),
        "reachability.enumerate_pairs.busy_s": busy("reachability.enumerate_pairs"),
        "reachability.enumerate_pairs.self_s": self_s("reachability.enumerate_pairs"),
        "reachability.pairs_found": c["reachability.pairs_found"],
        "reachability.dedup_hit_ratio": ratio(c["reachability.bfs_hits"], c["reachability.bfs_lookups"]),
        "reachability.enumerate_states.busy_s": busy("reachability.enumerate_states"),
        "reachability.depth_exceeded": c["reachability.depth_exceeded"],
        "reachability.frontier_open": c["reachability.frontier_open"],
        "reachability.build_computing_tree.busy_s": busy("reachability.build_computing_tree"),
        "reachability.tree_nodes": c["reachability.tree_nodes"],
        "supervisory.check_controllability.busy_s": busy("supervisory.check_controllability"),
        "supervisory.check_controllability.self_s": self_s("supervisory.check_controllability"),
        "supervisory.synthesize_supervisor.busy_s": busy("supervisory.synthesize_supervisor"),
        "supervisory.check_admissibility.busy_s": busy("supervisory.check_admissibility"),
        "supervisory.check_language_controllability.busy_s": busy("supervisory.check_language_controllability"),
        "supervisory.check_nonblocking.busy_s": busy("supervisory.check_nonblocking"),
        "supervisory.nonblocking.strings_walked": c["supervisory.nonblocking.strings_walked"],
        "supervisory.check_n_controllability.busy_s": busy("supervisory.check_n_controllability"),
        "supervisory.check_n_controllability.self_s": self_s("supervisory.check_n_controllability"),
        "supervisory.rows_emitted": c["supervisory.rows_emitted"],
        "supervisory.render.busy_s": busy("supervisory.render"),
        "supervisory.render.bytes": c["supervisory.render.bytes"],
        "language.supremal_controllable_sublanguage.busy_s": busy("language.supremal_controllable_sublanguage"),
        "language.supremal_controllable_sublanguage.passes": tracer.children_named(
            "language.supremal_controllable_sublanguage", "language.prefix_closure"),
        "language.infimal_prefix_closed_superlanguage.busy_s": busy("language.infimal_prefix_closed_superlanguage"),
        "language.infimal_prefix_closed_superlanguage.raises": tracer.calls_in[
            ("language.with_degrees", "language.infimal_prefix_closed_superlanguage")],
        "language.support_size": ratio(c["language.support_total"], c["language.closures"]),
        "model_io.parse_model_doc.busy_s": busy("model_io.parse_model_doc"),
        "model_io.parse_language_doc.busy_s": busy("model_io.parse_language_doc"),
        "model_io.language_to_doc.busy_s": busy("model_io.language_to_doc"),
        "model_io.supervisor_to_doc.busy_s": busy("model_io.supervisor_to_doc"),
        "cli.startup_s": cli_startup,
    }
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.wall_s"] = ratio(busy(f"cli.{sub}"), calls(f"cli.{sub}"))
    m["trace.overhead_frac"] = overhead
    for name in m:
        if name.endswith(("_s", ".ns_per_call")):
            m[name] /= speed
    return m, table


def traced_run(wl, lead, pool, verifier, seed):
    """Time a fixed instance list untraced, then replay it traced."""
    fixed = lead + pool[:TRACE_ROUNDS[wl.name] * len(pool) // wl.ROUNDS]
    walls, scaled, _ = timed_pass(wl, fixed, verifier)
    tracer = tracing.Tracer()
    tracer.install(
        HOOKS,
        ERROR_HOOKS,
        extra_spans=[(workloads, "render_report", "supervisory.render")],
        extra_kernels=[(language.FiniteSupportFuzzyLanguage, "with_degrees", "language.with_degrees")],
    )
    try:
        tracer.begin_instance("setup")
        tracer.recording = True
        wl.load(lead + pool)  # the JSON round trip, traced for the model_io layer
        tracer.recording = False
        traced, traced_scaled, last = timed_pass(wl, fixed, verifier, tracer=tracer)
        tracer.finish()
    finally:
        tracer.uninstall()
    overhead = sum(traced_scaled) / sum(scaled) - 1
    cli_startup = 0.0
    if wl.name == workloads.CliReplay.name:
        starts = []
        for _ in range(CLI_STARTUP_REPS):
            t0 = time.perf_counter()
            workloads.fdes_cli(["--help"], wl.env)
            starts.append(time.perf_counter() - t0)
        cli_startup = statistics.median(starts)
    metrics, table = layer_metrics(tracer, overhead, cli_startup, sum(traced) / sum(traced_scaled))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{wl.name}-seed{seed}.json")
    return metrics, table, tracer, last, len(fixed)


# ---------------------------------------------------------------------------
# main


def result_line(correct, verifier, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    })


def load_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def record_digests(wl, seed):
    lead, pool = wl.generate(random.Random(seed), seed)
    wl.load(lead + pool)
    found = {}
    for inst in lead + pool:
        if inst.key not in found:
            found[inst.key] = digest(wl.run(inst))
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    stored[wl.name] = found
    DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"stored {len(found)} digests for {wl.name}, seed {seed}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    spec, units = load_units()

    tmp = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload, tmp)
        if args.record_digests:
            record_digests(wl, args.seed)
            return 0
        stored = json.loads(DIGESTS.read_text()).get(wl.name, {}) if DIGESTS.exists() else {}
        verifier = Verifier(wl, stored)
        print(f"workload {wl.name}  seed {args.seed}  python {platform.python_version()}  "
              f"nproc {os.cpu_count()}  trace {args.trace}")
        for name, shape in wl.shapes.items():
            print(f"  shape {name}: {shape}")
        # the import is scaled by the speed right after it
        import_speed = statistics.fmean(reference() for _ in range(4)) / REFERENCE_S
        lead, pool, setup_raw, setup_scaled = setup(wl, args.seed, verifier)
        setup_raw += IMPORT_S
        setup_scaled += IMPORT_S / import_speed

        if args.trace:
            metrics, table, tracer, last, count = traced_run(wl, lead, pool, verifier, args.seed)
            print(f"traced {count} instances; spans {len(tracer.spans)}")
            print(f"  {'span':52} {'calls':>8} {'busy_s':>10} {'self_s':>10}")
            for name, row in sorted(table.items(), key=lambda kv: -kv[1]["busy_s"]):
                print(f"  {name:52} {row['calls']:8d} {row['busy_s']:10.4f} {row['self_s']:10.4f}")
            for name in sorted(tracer.calls):
                print(f"  kernel {name:45} {tracer.calls[name]:8d} {tracer.busy[name]:10.4f}")
            wanted = [m["name"] for m in spec["per_layer"]]
        else:
            seq = itertools.chain(lead, itertools.cycle(pool))
            walls, scaled, last = timed_pass(wl, seq, verifier, seconds=args.seconds)
            who = resource.RUSAGE_CHILDREN if wl.name == workloads.CliReplay.name else resource.RUSAGE_SELF
            raw, metrics = time_metrics(walls), time_metrics(scaled)
            pct = tail(walls)[1]
            speed = sum(walls) / sum(scaled)
            raw["setup_s"] = setup_raw
            metrics["setup_s"] = setup_scaled
            metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
            print(f"timed {len(walls)} instances in {sum(walls):.3f} s; latency tail is "
                  f"p{pct:.1f} of {len(walls)} samples")
            print(f"speed factor {speed:.4f} (wall / scaled time); raw: "
                  + "  ".join(f"{name} {value:.6g}" for name, value in raw.items()))
            wanted = [m["name"] for m in spec["end_to_end"]]
        ok = self_test(wl, verifier, *last)
        failed_frac = verifier.failed / max(verifier.attempted, 1)
        metrics["ok_frac"] = 1.0 - failed_frac
        print(f"attempted {verifier.attempted}  failed {verifier.failed}  failed_frac {failed_frac}  "
              f"self-test {'ok' if ok else 'FAILED'}")
        metrics = {name: metrics[name] for name in wanted}
        for name, value in metrics.items():
            print(f"  {name:58} {value:>16.6g} {units[name]}")
        print(result_line(ok and verifier.failed == 0, verifier, metrics, units))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
