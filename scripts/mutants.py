#!/usr/bin/env python3
"""Check that the tests catch each mutant in a committed list.

Each entry of MUTANTS names a file, an exact snippet of it that must occur
once, the snippet's replacement, and the test node ids the edit must make
fail.  The script copies the checkout to a temporary directory, runs every
named test on the unmutated copy (they must all pass), and then, one entry
at a time, applies the edit, runs the entry's tests in a subprocess with a
timeout, and restores the file.  A mutant is killed only when pytest
reports test failures and every named test is among them; a collection or
import error, a timeout, or a snippet that no longer occurs exactly once
fails the run instead.

    python3 scripts/mutants.py

Exits 0 when the self-check passes and every mutant is killed.
"""
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# seconds one pytest run may take
TIMEOUT = 120
CORPUS = "tests/test_cli_corpus.py::test_cli_corpus_is_byte_identical"

MUTANTS = [
    {
        "id": "dot-label-quote-unescaped",
        "file": "src/fdes/reachability.py",
        "old": """.replace('"', '\\\\"')""",
        "new": "",
        "tests": ["tests/test_cli.py::test_dot_labels_escape_quotes_and_backslashes", CORPUS],
    },
    {
        "id": "report-row-event-before-s",
        "file": "src/fdes/supervisory.py",
        "old": """                    "s": string_to_text(r.representative) if r.representative else "",
                    "event": r.event,
""",
        "new": """                    "event": r.event,
                    "s": string_to_text(r.representative) if r.representative else "",
""",
        "tests": [CORPUS],
    },
    {
        "id": "depth-exceeded-exits-two",
        "file": "src/fdes/cli.py",
        "old": """        except DepthExceeded as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
""",
        "new": """        except DepthExceeded as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
""",
        "tests": ["tests/test_cli.py::test_depth_exceeded_exits_one", CORPUS],
    },
    {
        "id": "synthesis-bounded-walk-depth-0",
        "file": "src/fdes/supervisory.py",
        "old": "_strings(CHECK_DEPTH, g.alphabet, 0, step, _same)",
        "new": "_strings(0, g.alphabet, 0, step, _same)",
        "tests": ["tests/test_supervisory.py::test_synthesis_verdict_equals_the_matching_check_random"],
    },
    {
        "id": "check-passed-type-unchecked",
        "file": "src/fdes/model_io.py",
        "old": "_require(isinstance(check_passed, bool) or check_passed is None, where,",
        "new": "_require(True, where,",
        "tests": ["tests/test_cli.py::test_wrongly_typed_fields_exit_two", CORPUS],
    },
    # the Fraction kernels and pointwise operators live in tests/oracles.py,
    # so their mutants check the oracle tests.  A failing hypothesis test can
    # end pytest -W error with an internal error (exit 3) instead of a failure,
    # so every mutant names tests that draw their own seeded instances.
    {
        "id": "oracle-maxmin-apply-min",
        "file": "tests/oracles.py",
        "old": "return tuple(max(min(v[l], m[l][j]) for l in range(len(v))) for j in range(len(m[0])))",
        "new": "return tuple(min(min(v[l], m[l][j]) for l in range(len(v))) for j in range(len(m[0])))",
        "tests": ["tests/test_algebra.py::test_maxmin_apply_walkthrough",
                  "tests/test_reachability.py::test_rank_enumeration_matches_fraction_bfs_random"],
    },
    {
        "id": "oracle-fuzzy-or-keeps-smaller",
        "file": "tests/oracles.py",
        "old": "        if d > merged.get(s, ZERO):",
        "new": "        if d < merged.get(s, ZERO):",
        "tests": ["tests/test_language.py::test_closure_laws_random"],
    },
    {
        "id": "successor-multiplies-fractions",
        "file": "src/fdes/automaton.py",
        "old": "max(map(mul, nums, col))",
        "new": "max(map(lambda a, b: int(algebra.ONE * a) * b, nums, col))",
        "tests": ["tests/test_scaled_table.py::test_maxprod_walks_do_no_fraction_products"],
    },
    {
        "id": "recode-never-rescales",
        "file": "src/fdes/supervisory.py",
        "old": "        return _same if factor == 1 else factor.__mul__",
        "new": "        return _same",
        "tests": ["tests/test_degree_codes.py::test_automaton_spec_walks_on_mixed_denominators"],
    },
    {
        "id": "identity-codec-not-decoding",
        "file": "src/fdes/supervisory.py",
        "old": """        if self.scale is None:
            return other.decode
""",
        "new": """        if self.scale is None:
            return _same
""",
        "tests": ["tests/test_degree_codes.py::test_supervisors_across_semantics_fall_back_to_fractions"],
    },
    {
        "id": "encode-skips-set-check",
        "file": "src/fdes/supervisory.py",
        "old": """        code = self.codes.get(d.as_integer_ratio())
        if code is None:
            raise RangeError(f"degree {format_degree(d)} is outside the walk's degree set")
        return code
""",
        "new": """        return self.codes.get(d.as_integer_ratio())
""",
        "tests": ["tests/test_degree_codes.py::test_codes_are_exact_and_a_degree_outside_the_set_raises"],
    },
    {
        "id": "admissibility-classes-on-plant-state",
        "file": "src/fdes/supervisory.py",
        "old": "cls = itemgetter(0, 1) if isinstance(sup, SynthesizedSupervisor) else None",
        "new": "cls = itemgetter(0) if isinstance(sup, SynthesizedSupervisor) else None",
        "tests": ["tests/test_supervisory.py::test_bounded_admissibility_equals_its_replay_definition_random"],
    },
    {
        "id": "nonblocking-walk-in-declaration-order",
        "file": "src/fdes/supervisory.py",
        "old": "_strings(depth, sorted(g.alphabet), start, step)",
        "new": "_strings(depth, g.alphabet, start, step)",
        "tests": ["tests/test_supervisory.py::test_walks_on_alphabets_declared_against_name_order_random"],
    },
    {
        "id": "active-events-off-initial-state",
        "file": "src/fdes/supervisory.py",
        "old": "if table.top(table.step(q, sigma)) == ONE}",
        "new": "if table.top(table.step(table.initial, sigma)) == ONE}",
        "tests": ["tests/test_supervisory.py::test_crisp_active_events",
                  "tests/test_supervisory.py::test_crisp_active_events_match_subset_propagation"],
    },
    {
        "id": "dot-tree-edges-in-child-preorder",
        "file": "src/fdes/reachability.py",
        "old": 'out[parent].append(f"  n{parent} -> n{n} [{edge}];")',
        "new": 'out[n].append(f"  n{parent} -> n{n} [{edge}];")',
        "tests": ["tests/test_cli.py::test_tree_json_equals_json_dumps_of_the_nested_document", CORPUS],
    },
    {
        "id": "json-tree-sibling-comma-dropped",
        "file": "src/fdes/reachability.py",
        "old": 'parts.append(close(last - 1, depth) + ",\\n")',
        "new": 'parts.append(close(last - 1, depth) + "\\n")',
        "tests": ["tests/test_cli.py::test_tree_json_and_dot",
                  "tests/test_cli.py::test_tree_json_equals_json_dumps_of_the_nested_document", CORPUS],
    },
    {
        "id": "synthesize-maxprod-precheck-deleted",
        "file": "src/fdes/cli.py",
        "old": """    if isinstance(spec_obj, FuzzyAutomaton) and g.semantics is spec_obj.semantics is Semantics.MAX_PRODUCT:
        # a max-product pair has no finite enablement table to emit; fail before the bounded check
        require_pairable(g, spec_obj)
        raise SemanticsMismatch("no finite representative table for a max-product pair")
""",
        "new": "",
        "tests": ["tests/test_cli.py::test_synthesize_rejects_max_product_specs_before_the_check"],
    },
]


def pytest(copy, tests):
    """(return code, ids of the failed tests, output) of one pytest run in copy."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "no:cacheprovider", "-rf", *tests]
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    try:
        res = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, set(), f"timed out after {TIMEOUT} s"
    failed = set(re.findall(r"^FAILED (\S+?)(?:\[.*?\])?(?: - .*)?$", res.stdout, re.M))
    return res.returncode, failed, res.stdout + res.stderr


def main():
    start, problems = time.perf_counter(), 0
    with tempfile.TemporaryDirectory(prefix="fdes-mutants-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", ".bench_*"))
        tests = sorted({t for m in MUTANTS for t in m["tests"]})
        code, failed, output = pytest(copy, tests)
        if code != 0:
            print(f"self-check FAILED: the unmutated copy exits {code}\n{output[-3000:]}")
            return 1
        print(f"self-check passed: {len(tests)} test(s) pass on the unmutated copy")
        for m in MUTANTS:
            target = copy / m["file"]
            original = target.read_text(encoding="utf-8")
            if original.count(m["old"]) != 1:
                print(f"{m['id']}: BROKEN, its snippet occurs {original.count(m['old'])} times in {m['file']}")
                problems += 1
                continue
            target.write_text(original.replace(m["old"], m["new"]), encoding="utf-8")
            try:
                code, failed, output = pytest(copy, m["tests"])
            finally:
                target.write_text(original, encoding="utf-8")
            missed = [t for t in m["tests"] if t not in failed]
            if code == 1 and not missed:
                print(f"{m['id']}: killed by {len(m['tests'])} test(s)")
            else:
                verdict = "SURVIVED" if code in (0, 1) else f"BROKEN (pytest exit {code})"
                print(f"{m['id']}: {verdict}; not failed: {', '.join(missed)}\n{output[-3000:]}")
                problems += 1
    print(f"{len(MUTANTS) - problems} of {len(MUTANTS)} mutant(s) killed in {time.perf_counter() - start:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
