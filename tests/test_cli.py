import json
import os
import random
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

import oracles
from conftest import GOLDEN, MODELS, ROOT
from fdes import cli, reachability, supervisory
from fdes.algebra import ONE, ZERO, Semantics
from fdes.cli import main

FDES = shutil.which("fdes")
# seconds a CLI subprocess may run: a command that stops terminating fails its test
TIMEOUT = 120


def fdes(*args, env=None):
    """Run the CLI in-process.  A handled exit is a SystemExit; any other
    exception would end a real process with a traceback and exit 1, so here
    it fails the test instead of passing as exit 1."""
    result = CliRunner().invoke(main, [str(a) for a in args], env=env)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exc_info
    return SimpleNamespace(returncode=result.exit_code, stdout=result.stdout, stderr=result.stderr)


def fdes_process(*args, env=None, timeout=TIMEOUT):
    """Run the CLI as a subprocess, through the `fdes` entry point when it is
    installed and `python -m fdes.cli` otherwise."""
    cmd = [FDES] if FDES else [sys.executable, "-m", "fdes.cli"]
    return subprocess.run(
        cmd + [str(a) for a in args], capture_output=True, text=True, env={**os.environ, **(env or {})},
        timeout=timeout,
    )


def path(name):
    return str(MODELS / name)


def golden(name):
    return (GOLDEN / name).read_text()


# --- golden listings ---------------------------------------------------------


def test_reach_text_golden():
    res = fdes("reach", path("maxmin_plant_2state.json"))
    assert res.returncode == 0
    assert res.stdout == golden("reach_2state.txt")


def test_case_study_replay_golden():
    """scripts/run_case_studies.py prints every bundled case study's listing,
    exit status and stderr; the whole output is deterministic."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_case_studies.py")],
        capture_output=True, text=True, env=env, timeout=TIMEOUT,
    )
    assert res.returncode == 0
    assert res.stdout == golden("case_studies.txt")


def test_pairs_text_goldens():
    res = fdes("pairs", path("maxmin_plant_2state.json"), path("maxmin_spec_2state.json"))
    assert res.returncode == 0
    assert res.stdout == golden("pairs_2state.txt")
    res = fdes("pairs", path("maxmin_plant_3state.json"), path("maxmin_spec_3state.json"))
    assert res.returncode == 0
    assert res.stdout == golden("pairs_3state.txt")


def test_tree_text_golden():
    res = fdes("tree", path("maxmin_plant_2state.json"))
    assert res.returncode == 0
    assert res.stdout == golden("tree_2state.txt")


def test_check_first_failure_golden():
    res = fdes(
        "check",
        path("maxmin_plant_2state.json"),
        path("maxmin_spec_2state.json"),
        "--attrs", path("attrs_2state.json"),
        "--first-failure",
    )
    assert res.returncode == 1
    assert res.stdout == golden("check_2state_first_failure.txt")


def test_eval_text_golden():
    res = fdes(
        "eval", path("chain_supervisor_explicit.json"), path("chain_plant.json"), "a b"
    )
    assert res.returncode == 0
    assert res.stdout == golden("eval_chain.txt")


def test_suplang_inflang_text_goldens():
    args = (path("lattice_k.json"), path("lattice_m.json"), "--attrs", path("attrs_lattice.json"))
    res = fdes("suplang", *args, "--format", "text")
    assert res.returncode == 0
    assert res.stdout == golden("suplang_lattice.txt")
    res = fdes("inflang", *args, "--format", "text")
    assert res.returncode == 0
    assert res.stdout == golden("inflang_lattice.txt")


def test_synthesize_then_nonblock_golden(tmp_path):
    sup_path = tmp_path / "sup.json"
    res = fdes(
        "synthesize", path("chain_plant.json"), path("chain_spec_language.json"),
        "--attrs", path("attrs_chain_nonblocking.json"), "--out", sup_path,
    )
    assert res.returncode == 0
    assert res.stderr == ""  # the check passed, no warning
    res = fdes(
        "nonblock", sup_path, path("chain_plant.json"), path("chain_spec_language.json"),
        "--attrs", path("attrs_chain_nonblocking.json"),
    )
    assert res.returncode == 0
    assert res.stdout == golden("nonblock_chain.txt")
    assert "warning:" in res.stderr


# --- exit codes ----------------------------------------------------------------


def test_check_pass_exits_zero():
    res = fdes(
        "check",
        path("maxmin_plant_3state.json"), path("maxmin_spec_3state.json"),
        "--attrs", path("attrs_3state_low.json"),
    )
    assert res.returncode == 0
    assert res.stdout.rstrip().endswith("overall: T")


def test_check_language_spec_pass():
    res = fdes(
        "check", path("chain_plant.json"), path("chain_spec_language.json"),
        "--attrs", path("attrs_chain_nonblocking.json"),
    )
    assert res.returncode == 0


def test_blocking_nonblock_exits_one(tmp_path):
    sup_path = tmp_path / "sup.json"
    res = fdes(
        "synthesize", path("chain_plant.json"), path("chain_spec_language.json"),
        "--attrs", path("attrs_chain_blocking.json"), "--out", sup_path,
    )
    assert res.returncode == 0
    res = fdes(
        "nonblock", sup_path, path("chain_plant.json"), path("chain_spec_language.json"),
        "--attrs", path("attrs_chain_blocking.json"),
    )
    assert res.returncode == 1
    assert "verdict: blocking" in res.stdout
    assert "a b c" in res.stdout


def test_parse_error_exits_two(tmp_path):
    res = fdes("reach", tmp_path / "missing.json")
    assert res.returncode == 2
    assert "error:" in res.stderr
    res = fdes(
        "check", path("maxmin_plant_2state.json"), path("maxmin_spec_2state.json")
    )  # neither --attrs nor inline attributes
    assert res.returncode == 2
    assert "no event attributes" in res.stderr


def test_usage_errors_exit_two():
    res = fdes("nonblock", path("chain_supervisor_explicit.json"))
    assert res.returncode == 2
    many = [path("maxmin_plant_2state.json")] * 3
    res = fdes("tree", *many)
    assert res.returncode == 2


def test_depth_exceeded_exits_one():
    res = fdes("reach", path("maxprod_open.json"))
    assert res.returncode == 1
    assert "did not close within depth 32" in res.stderr
    res = fdes("reach", path("maxprod_open.json"), "--depth", "3")
    assert res.returncode == 1
    assert "depth 3" in res.stderr


def test_depth_env_override():
    res = fdes("reach", path("maxprod_open.json"), env={"FDES_DEPTH_DEFAULT": "3"})
    assert res.returncode == 1
    assert "depth 3" in res.stderr
    res = fdes("reach", path("maxprod_open.json"), env={"FDES_DEPTH_DEFAULT": "nope"})
    assert res.returncode == 2


def test_nonblock_depth_is_not_the_enumeration_guard(tmp_path):
    """FDES_DEPTH_DEFAULT guards the enumerations only: nonblock's string
    depth defaults to the longest string of pr(K) plus 2, and --depth sets it."""
    sup_path = tmp_path / "sup.json"
    chain = [path("chain_plant.json"), path("chain_spec_language.json"), "--attrs", path("attrs_chain_nonblocking.json")]
    assert fdes("synthesize", *chain, "--out", sup_path).returncode == 0
    env = {"FDES_DEPTH_DEFAULT": "40"}
    res = fdes_process("nonblock", sup_path, *chain, env=env, timeout=60)
    assert res.returncode == 0
    assert "[checked to depth 4]" in res.stdout
    res = fdes_process("nonblock", sup_path, *chain, "--depth", "3", env=env, timeout=60)
    assert res.returncode == 0
    assert "[checked to depth 3]" in res.stdout


def test_negative_depth_is_a_parse_error():
    res = fdes("reach", path("maxmin_plant_2state.json"), "--depth", "-1")
    assert res.returncode == 2
    assert "depth must be ≥ 0" in res.stderr
    res = fdes("tree", path("maxmin_plant_2state.json"), env={"FDES_DEPTH_DEFAULT": "-1"})
    assert res.returncode == 2
    assert "depth must be ≥ 0" in res.stderr
    res = fdes(
        "nonblock", path("chain_supervisor_explicit.json"), path("chain_plant.json"),
        path("chain_spec_language.json"), "--attrs", path("attrs_chain_nonblocking.json"),
        "--depth", "-1",
    )
    assert res.returncode == 2
    assert "depth must be ≥ 0" in res.stderr
    res = fdes(
        "check-n", path("maxmin_plant_2state.json"), path("maxmin_spec_2state.json"),
        "--attrs", path("attrs_2state.json"), "--", "-1",
    )
    assert res.returncode == 2
    assert "n must be ≥ 0" in res.stderr
    assert "Traceback" not in res.stderr


def test_check_n_exit_codes():
    args = (
        path("maxmin_plant_2state.json"), path("maxmin_spec_2state.json"),
        "--attrs", path("attrs_2state.json"),
    )
    res = fdes("check-n", *args[:2], "0", *args[2:])
    assert res.returncode == 0
    res = fdes("check-n", *args[:2], "1", *args[2:], "-v")
    assert res.returncode == 1
    # bounded checking sidesteps the max-product depth guard entirely
    res = fdes("check-n", path("maxprod_open.json"), path("maxprod_open.json"), "2")
    assert res.returncode == 0


# --- structured output -----------------------------------------------------------


def test_reach_json():
    res = fdes("reach", path("maxmin_plant_2state.json"), "--format", "json")
    doc = json.loads(res.stdout)
    assert doc["schema_version"] == "1"
    assert doc["kind"] == "reach-listing"
    assert len(doc["nodes"]) == 7
    assert doc["nodes"][0] == {"index": 0, "s": "", "state": ["0.9", "0.1"]}
    assert len(doc["edges"]) == 14


def test_check_json_first_failure():
    res = fdes(
        "check", path("maxmin_plant_2state.json"), path("maxmin_spec_2state.json"),
        "--attrs", path("attrs_2state.json"), "--format", "json", "--first-failure",
    )
    assert res.returncode == 1
    doc = json.loads(res.stdout)
    assert doc["overall"] is False
    assert len(doc["rows"]) == 3
    assert doc["rows"][-1]["s"] == "a1"
    assert doc["rows"][-1]["verdict"] is False


def test_tree_json_and_dot():
    res = fdes("tree", path("maxmin_plant_2state.json"), "--format", "json")
    doc = json.loads(res.stdout)
    assert doc["kind"] == "computing-tree"
    assert doc["root"]["label"] == "[0.9 0.1]"
    assert set(doc["root"]["children"]) == {"a1", "a2"}
    res = fdes("tree", path("maxmin_plant_2state.json"), "--format", "dot")
    assert res.stdout.startswith("digraph")
    res = fdes("reach", path("maxmin_plant_2state.json"), "--format", "dot")
    assert res.stdout.startswith("digraph")


def test_eval_json():
    res = fdes(
        "eval", path("chain_supervisor_explicit.json"), path("chain_plant.json"),
        "a b", "--format", "json",
    )
    doc = json.loads(res.stdout)
    assert doc == {
        "schema_version": "1",
        "kind": "eval",
        "s": "a b",
        "generated": "0.8",
        "marked": "0.8",
    }


def test_synthesize_emits_supervisor_doc():
    res = fdes(
        "synthesize", path("chain_plant.json"), path("chain_spec_language.json"),
        "--attrs", path("attrs_chain_nonblocking.json"),
    )
    doc = json.loads(res.stdout)
    assert doc["mode"] == "synthesized"
    assert doc["check_passed"] is True
    rows = {row["s"]: row["degrees"] for row in doc["enablement_rows"]}
    assert rows[""]["a"] == "0.8"
    assert rows["a"]["b"] == "0.8"


def test_synthesize_warns_when_check_fails():
    res = fdes(
        "synthesize", path("maxmin_plant_2state.json"), path("maxmin_spec_2state.json"),
        "--attrs", path("attrs_2state.json"),
    )
    assert res.returncode == 0
    assert "warning" in res.stderr
    assert json.loads(res.stdout)["check_passed"] is False


def test_compose_output():
    res = fdes(
        "compose", path("compose_left_3state.json"), path("compose_right_3state.json")
    )
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert len(doc["states"]) == 9
    assert doc["states"][0] == "x1,y1"
    assert doc["initial"] == ["0.02", "0.06", "0.01", "0.1", "0.3", "0.05", "0.06", "0.18", "0.03"]
    assert doc["semantics"] == "max-min"
    res = fdes(
        "compose", path("compose_left_3state.json"), path("compose_right_3state_maxprod.json")
    )
    assert res.returncode == 2


def test_out_writes_file(tmp_path):
    target = tmp_path / "listing.txt"
    res = fdes("reach", path("maxmin_plant_2state.json"), "--out", target)
    assert res.returncode == 0
    assert res.stdout == ""
    assert target.read_text() == golden("reach_2state.txt")


def test_entry_points_run_the_cli():
    """`python -m fdes.cli`, and the `fdes` script where it is installed, run
    the CLI in a process of its own: the listing on stdout, an error line on
    stderr, and the exit status."""
    plant, missing = path("maxmin_plant_2state.json"), path("missing.json")
    for cmd in [[sys.executable, "-m", "fdes.cli"]] + ([[FDES]] if FDES else []):
        res = subprocess.run([*cmd, "reach", plant], capture_output=True, text=True, timeout=TIMEOUT)
        assert res.returncode == 0
        assert res.stdout == golden("reach_2state.txt")
        res = subprocess.run([*cmd, "reach", missing], capture_output=True, text=True, timeout=TIMEOUT)
        assert res.returncode == 2
        assert res.stderr == f"error: {missing}: no such file\n"


def test_out_writes_utf8_under_an_ascii_locale(tmp_path):
    """--out writes UTF-8 whatever the locale's encoding, as documents are read."""
    target = tmp_path / "check.txt"
    args = (path("chain_plant.json"), path("chain_spec_language.json"), "--attrs", path("attrs_chain_nonblocking.json"))
    env = {"PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "PYTHONUTF8": "0"}
    res = fdes_process("check", *args, "--out", target, env=env)
    assert res.returncode == 0, res.stderr
    expected = fdes("check", *args).stdout
    assert "ε" in expected
    assert target.read_bytes() == expected.encode("utf-8")


def test_eval_rejects_a_supervisor_of_mixed_semantics(tmp_path):
    """A hand-edited supervisor document whose plant is max-product and
    whose spec is max-min is refused with exit 2, as synthesis refuses it."""
    plant = json.loads((MODELS / "maxmin_plant_2state.json").read_text())
    doc = {
        "schema_version": "1",
        "kind": "supervisor",
        "mode": "synthesized",
        "check_passed": None,
        "plant": dict(plant, semantics="max-product"),
        "attributes": json.loads((MODELS / "attrs_2state.json").read_text()),
        "spec_automaton": json.loads((MODELS / "maxmin_spec_2state.json").read_text()),
    }
    sup = tmp_path / "supervisor.json"
    sup.write_text(json.dumps(doc))
    res = fdes("eval", sup, path("maxmin_plant_2state.json"), "a1")
    assert res.returncode == 2
    assert "must share semantics" in res.stderr


# --- error paths that end in an error line, not a traceback -----------------------


def invoke(*args):
    """Run the CLI in-process; an uncaught exception would be the result's
    exception instead of the SystemExit of a handled exit."""
    return CliRunner().invoke(main, [str(a) for a in args])


def assert_clean_exit(result, code):
    assert result.exit_code == code
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.output
    assert "Traceback" not in result.output


def write_model(tmp_path, initial, a="0.5"):
    """A one-state max-product model with one event of degree `a`; `initial`
    is spliced in as raw JSON."""
    target = tmp_path / "model.json"
    target.write_text(
        '{"kind": "model", "semantics": "max-product", "states": ["q"], '
        f'"initial": [{initial}], "events": {{"a": [["{a}"]]}}}}'
    )
    return target


@pytest.mark.parametrize("depth", [975, 1500])
def test_deep_tree_exits_cleanly(tmp_path, depth):
    result = invoke("tree", write_model(tmp_path, '"1"'), "--depth", depth)
    assert_clean_exit(result, 1)
    assert f"did not close within depth {depth}" in result.output


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_degree_exits_two(tmp_path, token):
    result = invoke("reach", write_model(tmp_path, token))
    assert_clean_exit(result, 2)
    assert "not a finite number" in result.output


def test_unwritable_out_exits_two(tmp_path):
    result = invoke("reach", path("maxmin_plant_2state.json"), "--out", tmp_path / "missing" / "x")
    assert_clean_exit(result, 2)
    assert "cannot write" in result.output


ONE_STATE = {"kind": "model", "semantics": "max-min", "states": ["q"], "initial": ["1"], "events": {"a": [["0.5"]]}}


@pytest.mark.parametrize("kind, doc, field", [
    ("model", {**ONE_STATE, "initial": 5}, "'initial'"),
    ("model", {**ONE_STATE, "marked": 5}, "'marked'"),
    ("model", {**ONE_STATE, "semantics": "bogus"}, "'semantics'"),
    ("model", {**ONE_STATE, "events": {"a": 5}}, "event 'a' grid"),
    ("model", {**ONE_STATE, "events": {"a": [5]}}, "event 'a' grid"),
    ("model", {**ONE_STATE, "uncontrollability": ["a"]}, "'uncontrollability'"),
    ("attributes", {"kind": "attributes", "uncontrollability": ["a"]}, "'uncontrollability'"),
    ("supervisor", {"kind": "supervisor", "mode": "explicit", "alphabet": ["a"], "table": [1]}, "'table'"),
    ("language", {"kind": "language", "alphabet": 5, "degrees": {"": "1"}}, "'alphabet'"),
    ("supervisor", {"kind": "supervisor", "mode": "explicit", "alphabet": 5, "table": {}}, "'alphabet'"),
    ("supervisor", {"kind": "supervisor", "mode": "synthesized", "plant": 5}, "'plant'"),
    ("supervisor", {"kind": "supervisor", "mode": "synthesized", "plant": ONE_STATE,
                    "attributes": {"kind": "attributes", "uncontrollability": {}}, "spec_automaton": 0},
     "'spec_automaton'"),
    ("language", {"kind": "language", "alphabet": [["a"]], "degrees": {"": "1"}}, "'alphabet'"),
    ("supervisor", {"kind": "supervisor", "mode": "explicit", "alphabet": ["a", {"x": 1}], "table": {}}, "'alphabet'"),
    ("supervisor", {"kind": "supervisor", "mode": "synthesized", "plant": ONE_STATE,
                    "attributes": {"kind": "attributes", "uncontrollability": {"a": "0"}}},
     "exactly one of 'spec_automaton' and 'spec_language'"),
    ("supervisor", {"kind": "supervisor", "mode": "synthesized", "plant": ONE_STATE,
                    "attributes": {"kind": "attributes", "uncontrollability": {"a": "0"}},
                    "spec_automaton": ONE_STATE, "spec_language": {"alphabet": ["a"], "degrees": {"": "1"}}},
     "exactly one of 'spec_automaton' and 'spec_language'"),
    *(("supervisor", {"kind": "supervisor", "mode": "synthesized", "plant": ONE_STATE,
                      "attributes": {"kind": "attributes", "uncontrollability": {"a": "0"}},
                      "spec_automaton": ONE_STATE, "check_passed": value}, "'check_passed'")
      for value in ("x", 1)),
])
def test_wrongly_typed_fields_exit_two(tmp_path, kind, doc, field):
    """A field of the wrong type is a parse error that names the document
    and the field, not a traceback."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(ONE_STATE))
    bad.write_text(json.dumps(doc))
    args = {
        "model": ("reach", bad),
        "attributes": ("check", good, good, "--attrs", bad),
        "language": ("check", good, bad),
        "supervisor": ("eval", bad, good, "a"),
    }[kind]
    result = invoke(*args)
    assert_clean_exit(result, 2)
    assert f"error: {bad}: {field}" in result.output


# each value is put in place of every field to depth 2 of a valid document
FUZZ_VALUES = (None, 5, "x", [], {}, [[]], True, -1, "2", 1.5)


def fields(doc, depth=2):
    """The path of every field of doc to `depth`: keys of objects and
    indices of lists, the outer field before those inside it."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield (key,)
        if depth > 1:
            yield from ((key, *rest) for rest in fields(value, depth - 1))


def replaced(doc, path, value):
    """doc, copied, with the field at path set to value."""
    doc = json.loads(json.dumps(doc))
    *outer, last = path
    parent = doc
    for key in outer:
        parent = parent[key]
    parent[last] = value
    return doc


def test_malformed_documents_exit_cleanly(tmp_path):
    """Every field to depth 2 of a valid model, language, attributes,
    explicit-supervisor and synthesized-supervisor document, replaced by each
    of FUZZ_VALUES, read by a seeded choice of the subcommands that read
    that kind: each call exits 0, 1 or 2, and none with a traceback."""
    plant, spec, attrs = path("chain_plant.json"), path("chain_spec_language.json"), path("attrs_chain_nonblocking.json")
    sup = path("chain_supervisor_explicit.json")
    synthesized = invoke("synthesize", plant, spec, "--attrs", attrs)
    assert synthesized.exit_code == 0, synthesized.output
    bad = tmp_path / "bad.json"
    kinds = {
        "model": (plant, [("reach", bad), ("check", bad, spec, "--attrs", attrs),
                          ("nonblock", sup, bad, spec, "--attrs", attrs)]),
        "language": (spec, [("check", plant, bad, "--attrs", attrs), ("suplang", bad, bad, "--attrs", attrs),
                            ("nonblock", sup, plant, bad, "--attrs", attrs)]),
        "attributes": (attrs, [("check", plant, spec, "--attrs", bad), ("inflang", spec, spec, "--attrs", bad)]),
        "explicit": (sup, [("eval", bad, plant, "a b"), ("nonblock", bad, plant, spec, "--attrs", attrs)]),
        "synthesized": (json.loads(synthesized.stdout), [("eval", bad, plant, "a b"),
                                                         ("nonblock", bad, plant, spec, "--attrs", attrs)]),
    }
    rng, codes, calls = random.Random(25), set(), 0
    for kind, (doc, commands) in kinds.items():
        doc = json.loads((MODELS / doc).read_text()) if isinstance(doc, str) else doc
        for field in fields(doc):
            for value in FUZZ_VALUES:
                bad.write_text(json.dumps(replaced(doc, field, value)))
                args = rng.choice(commands)
                result = invoke(*args)
                assert result.exception is None or isinstance(result.exception, SystemExit), (
                    kind, field, value, args[0], result.exc_info)
                assert result.exit_code in (0, 1, 2), (kind, field, value, args[0], result.output)
                codes.add(result.exit_code)
                calls += 1
    assert codes == {0, 1, 2}
    assert calls > 500


def permutation_model(tmp_path):
    """A 28-state max-min model with one event permuting the states in cycles
    of 2, 3, 5, 7 and 11 and distinct initial degrees: its state returns only
    after lcm = 2,310 steps, so its computing tree is a chain of 2,311 nodes."""
    succ, start = [], 0
    for size in (2, 3, 5, 7, 11):
        succ += [start + (i + 1) % size for i in range(size)]
        start += size
    doc = {
        "kind": "model", "semantics": "max-min", "states": [f"q{i}" for i in range(28)],
        "initial": [f"0.{i:02d}" for i in range(1, 29)],
        "events": {"p": [["1" if j == succ[i] else "0" for j in range(28)] for i in range(28)]},
    }
    target = tmp_path / "permutation.json"
    target.write_text(json.dumps(doc))
    return target


def test_tree_json_on_a_chain_deeper_than_the_recursion_limit(tmp_path):
    result = invoke("tree", permutation_model(tmp_path), "--format", "json")
    assert result.exit_code == 0, result.output
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)  # json.loads recurses once per nesting level, twice per tree level
    try:
        node, nodes = json.loads(result.stdout)["root"], 1
    finally:
        sys.setrecursionlimit(limit)
    while node["children"]:
        node, nodes = node["children"]["p"], nodes + 1
    assert (nodes, node["leaf"]) == (2311, True)


def tree_doc_by_recursion(node):
    return {
        "label": reachability.format_label(node.label),
        "leaf": node.is_leaf,
        "children": {c.incoming_event: tree_doc_by_recursion(c) for c in node.children},
    }


def test_tree_json_equals_json_dumps_of_the_nested_document():
    """The iterative JSON renderer prints what json.dumps(indent=2) prints for
    the nested document, on state and pair trees of both semantics."""
    rng = random.Random(75)
    shapes = set()
    # max-product trees close only on crisp degrees
    for semantics, palette in ((Semantics.MAX_MIN, oracles.HALF_STEPS), (Semantics.MAX_PRODUCT, (ZERO, ONE))):
        for _ in range(25):
            g, h = oracles.dominated_pair(rng, max_states=2, palette=palette, semantics=semantics)
            for root in (reachability.build_computing_tree(g), reachability.build_pair_computing_tree(g, h)):
                doc = {"schema_version": "1", "kind": "computing-tree", "root": tree_doc_by_recursion(root)}
                assert cli._tree_json(root) == json.dumps(doc, indent=2) + "\n"
                shapes.add((len(root.children), root.is_leaf))
    assert len(shapes) >= 3


def test_deeply_nested_document_exits_two(tmp_path):
    target = tmp_path / "nested.json"
    target.write_text("[" * 100_000 + "]" * 100_000)
    result = invoke("reach", target)
    assert_clean_exit(result, 2)
    assert result.output == f"error: {target}: JSON nested too deeply to parse\n"


def test_synthesize_rejects_max_product_specs_before_the_check(monkeypatch):
    """A max-product pair has no finite enablement table to emit, so
    `synthesize` fails before running the bounded check, and says nothing
    about the depth of a check it did not run."""

    def checked(*args, **kwargs):
        raise AssertionError("ran the bounded check")

    monkeypatch.setattr(supervisory, "check_n_controllability", checked)
    result = invoke("synthesize", path("maxprod_open.json"), path("maxprod_open.json"))
    assert_clean_exit(result, 2)
    assert result.output == "error: no finite representative table for a max-product pair\n"
    for plant, spec, attrs in (
        ("maxmin_plant_2state.json", "maxmin_spec_2state.json", "attrs_2state.json"),
        ("chain_plant.json", "chain_spec_language.json", "attrs_chain_nonblocking.json"),
    ):
        res = fdes("synthesize", path(plant), path(spec), "--attrs", path(attrs))
        assert res.returncode == 0
        assert "checked to depth" not in res.stderr


def test_unreadable_model_files_exit_two(tmp_path):
    """A directory, or a file whose bytes are not UTF-8, is a parse error
    naming the file, not a traceback."""
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    for target in (tmp_path, binary):
        result = invoke("reach", target)
        assert_clean_exit(result, 2)
        assert result.output.startswith(f"error: {target}: ")


@pytest.mark.parametrize("command", ["suplang", "inflang"])
def test_lattice_attrs_must_cover_the_language_alphabet(tmp_path, command):
    attrs = tmp_path / "attrs.json"
    attrs.write_text(json.dumps({"kind": "attributes", "uncontrollability": {"zz": "1"}}))
    result = invoke(command, path("lattice_k.json"), path("lattice_m.json"), "--attrs", attrs, "--format", "text")
    assert_clean_exit(result, 2)
    assert "attribute events ['zz'] != alphabet ['a', 'b']" in result.output


@pytest.mark.parametrize("table, message", [
    ({"": {"a": "0.8", "zz": "1"}}, "undeclared events ['a', 'zz']"),
    ({}, "alphabets differ: ['x', 'y'] vs ['a', 'b', 'c']"),
])
def test_eval_rejects_a_supervisor_of_other_events(tmp_path, table, message):
    sup = tmp_path / "supervisor.json"
    sup.write_text(json.dumps({"kind": "supervisor", "mode": "explicit", "alphabet": ["x", "y"], "table": table}))
    result = invoke("eval", sup, path("chain_plant.json"), "a")
    assert_clean_exit(result, 2)
    assert message in result.output


@pytest.mark.parametrize("kind, field, entries, keys", [
    ("language", "degrees", {"": "2", "eps": "1"}, "'' and 'eps'"),
    ("language", "degrees", {"a": "0.3", " a ": "0.7"}, "'a' and ' a '"),
    ("supervisor", "table", {"ε": {"a": "1"}, " ": {"a": "0"}}, "'ε' and ' '"),
])
def test_repeated_strings_exit_two(tmp_path, kind, field, entries, keys):
    """Two keys naming one string are a parse error naming both keys, not
    a silent choice of the last one."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(ONE_STATE))
    doc = {"kind": kind, "alphabet": ["a"], field: entries}
    bad.write_text(json.dumps({**doc, "mode": "explicit"} if kind == "supervisor" else doc))
    args = ("check", good, bad) if kind == "language" else ("eval", bad, good, "a")
    result = invoke(*args)
    assert_clean_exit(result, 2)
    assert f"error: {bad}: '{field}' keys {keys} name one string" in result.output


def test_repeated_raw_keys_exit_two(tmp_path):
    """json.load keeps the last of two equal keys in one object; a model, a
    language or an attributes document that repeats one is a parse error
    naming the file and the key."""
    bad = tmp_path / "bad.json"
    plant, spec, attrs = path("chain_plant.json"), path("chain_spec_language.json"), path("attrs_chain_nonblocking.json")
    for text, args, key in [
        ('{"kind": "model", "semantics": "max-min", "states": ["q"], "initial": ["1"], "initial": ["0"], '
         '"events": {"a": [["0.5"]]}}', ("reach", bad), "initial"),
        ('{"alphabet": ["a", "b", "c"], "degrees": {"": "1", "a": "2", "a": "1"}}',
         ("check", plant, bad, "--attrs", attrs), "a"),
        ('{"kind": "attributes", "uncontrollability": {"a": "0.8", "b": "0.8", "c": "0", "c": "1"}}',
         ("check", plant, spec, "--attrs", bad), "c"),
    ]:
        bad.write_text(text)
        result = invoke(*args)
        assert_clean_exit(result, 2)
        assert result.output == f"error: {bad}: key {key!r} repeated in one object\n"


def test_dot_labels_escape_quotes_and_backslashes(tmp_path):
    target = tmp_path / "quoted.json"
    events = {'a"1': [["1"]], "b\\": [["0.5"]]}
    target.write_text(json.dumps({"kind": "model", "semantics": "max-min", "states": ["q"],
                                  "initial": ["1"], "events": events}))
    for command in ("reach", "tree"):
        result = invoke(command, target, "--format", "dot")
        assert result.exit_code == 0, result.output
        assert '[label="a\\"1"];' in result.output
        assert '[label="b\\\\"];' in result.output
        assert '"a"1"' not in result.output
