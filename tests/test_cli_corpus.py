"""Every invocation of the committed CLI output corpus (tests/golden/cli/)
prints, exits with and writes what its recorded file holds."""

import difflib

from cli_corpus import CORPUS, load_manifest, run


def test_cli_corpus_is_byte_identical():
    entries = load_manifest()
    assert sorted(p.name for p in CORPUS.glob("*.txt")) == sorted(f"{e['id']}.txt" for e in entries)
    mismatched = []
    for entry, code, text in run(entries):
        expected = (CORPUS / f"{entry['id']}.txt").read_bytes().decode("utf-8")
        if code != entry["exit"]:
            mismatched.append(f"{entry['id']}: exit {code}, manifest expects {entry['exit']}\n{text}")
        elif text != expected:
            diff = difflib.unified_diff(expected.splitlines(True), text.splitlines(True), "recorded", "now")
            mismatched.append(f"{entry['id']}:\n{''.join(diff)}")
    assert not mismatched, f"{len(mismatched)} output(s) changed; the first:\n{mismatched[0]}"
