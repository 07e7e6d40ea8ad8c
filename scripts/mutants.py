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
