"""Spans and counters for the benchmark's traced runs.

The tracer wraps the public functions of the fdes modules from outside the
library.  A wrapper replaces the original under every module attribute bound
to it, because several modules import names directly (``supervisory`` binds
its own ``max_element``), so calls through any name are seen.

Layer entry points record one span each: name, start, end, parent span and
instance id.  Everything else public (the algebra kernels, ``automaton.step``
and ``run``, which run hundreds of thousands of times per pass) is
aggregated as a call count plus busy time.  Self time is a span's duration
minus its child spans; kernel calls inside a span count as its self time.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

from fdes import automaton, language, model_io, reachability, supervisory

SPANS = {
    automaton: ("parallel_compose",),
    reachability: ("build_computing_tree", "build_pair_computing_tree", "enumerate_states",
                   "enumerate_pairs", "class_automaton", "tree_to_dot", "graph_to_dot"),
    supervisory: ("check_controllability", "check_language_controllability",
                  "check_n_controllability", "check_sufficient_condition",
                  "synthesize_supervisor", "check_admissibility", "check_nonblocking"),
    language: ("prefix_closure", "is_prefix_closed", "is_controllable_wrt", "is_sublanguage",
               "value_lattice", "supremal_controllable_sublanguage",
               "infimal_prefix_closed_superlanguage"),
    model_io: None,  # every public function
}

# Distinct-work keys for the kernels whose useful ratio is reported.
DISTINCT = {
    "algebra.maxmin_apply": lambda args: (args[0], id(args[1])),
    "automaton.step": lambda args: (id(args[0]), args[1], args[2]),
}


def _short(module):
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, instance]
        self.stack = []
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.calls_in = defaultdict(int)  # (kernel, innermost span name) -> calls
        self.counters = defaultdict(float)
        self.distinct = defaultdict(set)
        self.distinct_total = defaultdict(int)
        self.instance = None
        self.recording = False
        self._patches = []

    # -- recording --------------------------------------------------------

    def begin_instance(self, key):
        self.instance = key
        for name, seen in self.distinct.items():
            self.distinct_total[name] += len(seen)
        self.distinct.clear()

    def finish(self):
        self.begin_instance(None)

    def span(self, name, fn, on_result=None, on_error=None):
        """Wrap `fn` in a span; the hooks see (counters, args, result or
        exception) and must not raise."""
        tracer, perf = self, time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            rec = [name, perf(), 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.instance]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer.counters, args, exc)
                raise
            finally:
                rec[2] = perf()
                tracer.stack.pop()
            if on_result is not None:
                on_result(tracer.counters, args, result)
            return result

        return wrapper

    def kernel(self, name, fn):
        tracer, perf = self, time.perf_counter
        key = DISTINCT.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.calls[name] += 1
                tracer.busy[name] += perf() - start
                if tracer.stack:
                    tracer.calls_in[(name, tracer.spans[tracer.stack[-1]][0])] += 1
                if key is not None:
                    tracer.distinct[name].add(key(args))

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self, hooks, error_hooks, extra_spans=(), extra_kernels=()):
        """Wrap every public fdes function, plus (owner, attribute, name)
        triples such as methods or the benchmark's own helpers.  The hooks
        map span names to the `on_result` and `on_error` of `span`."""
        wrappers = {}
        for module in (sys.modules[n] for n in sorted(sys.modules) if n.startswith("fdes.")):
            spans = SPANS.get(module, ())
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{_short(module)}.{attr}"
                if spans is None or attr in spans:
                    wrappers[id(fn)] = (fn, self.span(name, fn, hooks.get(name), error_hooks.get(name)))
                else:
                    wrappers[id(fn)] = (fn, self.kernel(name, fn))
        for owner, attr, name in extra_spans:
            self._patch(owner, attr, self.span(name, getattr(owner, attr), hooks.get(name)))
        for owner, attr, name in extra_kernels:
            self._patch(owner, attr, self.kernel(name, getattr(owner, attr)))
        owners = [m for n, m in sorted(sys.modules.items()) if n == "fdes" or n.startswith("fdes.")]
        owners += [m for n, m in sorted(sys.modules.items()) if n in ("workloads", "__main__")]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(owner, attr, hit[1])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- summaries --------------------------------------------------------

    def span_table(self):
        """name -> {calls, busy_s, self_s, instances}."""
        child = defaultdict(float)
        for name, start, end, parent, inst in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "instances": set()})
        for i, (name, start, end, parent, inst) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child[i]
            row["instances"].add(inst)
        return table

    def children_named(self, parent_name, child_name):
        parents = {i for i, s in enumerate(self.spans) if s[0] == parent_name}
        return sum(1 for s in self.spans if s[0] == child_name and s[3] in parents)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "instance"],
                "spans": self.spans,
                "kernels": {n: {"calls": self.calls[n], "busy_s": self.busy[n]} for n in sorted(self.calls)},
            }, fh)
