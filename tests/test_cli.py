import json
import os
import shutil
import subprocess
import sys

from conftest import GOLDEN, MODELS

FDES = shutil.which("fdes")


def fdes(*args, env=None):
    if FDES:
        cmd = [FDES]
    else:
        cmd = [sys.executable, "-m", "fdes.cli"]
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        cmd + [str(a) for a in args], capture_output=True, text=True, env=merged
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
