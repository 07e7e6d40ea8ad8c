"""The committed CLI output corpus in tests/golden/cli/.

`manifest.json` lists invocations in order, each an id, the arguments
after `fdes` and the exit code it must end with.  `<id>.txt` holds what the
invocation printed on stdout and stderr and the file it wrote with
`--out`.  The invocations run in process through click's `CliRunner`, from
the repository root with relative paths, so no output holds a machine's
path.  An argument `@OUT/<name>` names a file in one scratch directory
shared by the whole run: an invocation writes it with `--out`, and a later
one may read it.  Input documents that only the corpus reads live in
tests/golden/cli/inputs/.

`test_cli_corpus.py` diffs every output.  To regenerate the files, run

    PYTHONPATH=src python tests/cli_corpus.py

from the repository root; a regeneration names every file that changed,
and why, in CHANGES.md.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "golden" / "cli"
MANIFEST = CORPUS / "manifest.json"
OUT = "@OUT/"


def load_manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def _section(name, text):
    """A titled block whose header gives the text's length, so two outputs
    that differ only in a trailing newline render differently."""
    return f"--- {name} ({len(text)} chars)\n{text}" + ("" if not text or text.endswith("\n") else "\n")


def run(entries):
    """(entry, exit code, rendered output) for each manifest entry, in order."""
    from fdes.cli import main

    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="fdes-cli-corpus-") as scratch:
        os.chdir(ROOT)
        try:
            for entry in entries:
                args = [scratch + "/" + a[len(OUT):] if a.startswith(OUT) else a for a in entry["args"]]
                # FDES_DEPTH_DEFAULT unset, so the caller's environment cannot change a depth
                result = CliRunner().invoke(main, args, prog_name="fdes", env={"FDES_DEPTH_DEFAULT": None})
                if result.exception is not None and not isinstance(result.exception, SystemExit):
                    raise AssertionError(f"{entry['id']}: uncaught {result.exception!r}") from result.exception
                parts = [f"$ fdes {' '.join(entry['args'])}\n", f"exit {result.exit_code}\n",
                         _section("stdout", result.stdout), _section("stderr", result.stderr)]
                if "--out" in args:
                    at = args.index("--out") + 1
                    if Path(args[at]).is_file():
                        parts.append(_section(f"out {entry['args'][at]}", Path(args[at]).read_text(encoding="utf-8")))
                yield entry, result.exit_code, "".join(parts)
        finally:
            os.chdir(here)


def regenerate():
    entries = load_manifest()
    keep = {f"{e['id']}.txt" for e in entries}
    for stale in CORPUS.glob("*.txt"):
        if stale.name not in keep:
            stale.unlink()
    for entry, code, text in run(entries):
        if code != entry["exit"]:
            print(f"{entry['id']}: exit {code}, manifest expects {entry['exit']}", file=sys.stderr)
        (CORPUS / f"{entry['id']}.txt").write_bytes(text.encode("utf-8"))
    print(f"wrote {len(entries)} outputs to {CORPUS.relative_to(ROOT)}")


if __name__ == "__main__":
    regenerate()
