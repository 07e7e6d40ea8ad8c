import glob
import json
import random

import pytest

import oracles
from conftest import MODELS
from fdes import model_io
from fdes.algebra import Semantics
from fdes.errors import AlphabetMismatch, ParseError, RangeError, ShapeError
from fdes.language import FiniteSupportFuzzyLanguage
from fdes.supervisory import EventAttributes, ExplicitSupervisor, synthesize_supervisor


def save_document(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def minimal_model_doc(**overrides):
    doc = {
        "kind": "model",
        "semantics": "max-min",
        "states": ["q1", "q2"],
        "initial": ["1", "0"],
        "events": {"a": [["0.1", "0.2"], ["0.3", "0.4"]]},
    }
    doc.update(overrides)
    return doc


def test_load_document_errors(tmp_path):
    with pytest.raises(ParseError, match="no such file"):
        model_io.load_document(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "kind": "model",\n  oops\n}\n')
    with pytest.raises(ParseError, match="line 3"):
        model_io.load_document(str(bad))
    top = tmp_path / "top.json"
    top.write_text("[1, 2]\n")
    with pytest.raises(ParseError, match="top level"):
        model_io.load_document(str(top))


def test_detect_kind():
    assert model_io.detect_kind({"kind": "language"}) == "language"
    assert model_io.detect_kind({"states": []}) == "model"
    assert model_io.detect_kind({"degrees": {}}) == "language"
    assert model_io.detect_kind({"mode": "explicit"}) == "supervisor"
    assert model_io.detect_kind({"uncontrollability": {}}) == "attributes"
    with pytest.raises(ParseError):
        model_io.detect_kind({"something": 1})


def test_parse_model_shape_errors():
    with pytest.raises(ShapeError, match="initial"):
        model_io.parse_model_doc(minimal_model_doc(initial=["1"]))
    with pytest.raises(ShapeError, match="grid"):
        model_io.parse_model_doc(
            minimal_model_doc(events={"a": [["0.1", "0.2", "0.3"], ["0.1", "0.2", "0.3"]]})
        )
    with pytest.raises(ShapeError, match="marked"):
        model_io.parse_model_doc(minimal_model_doc(marked=[["1"]]))
    with pytest.raises(ParseError, match="missing field"):
        model_io.parse_model_doc({"kind": "model"})


def test_parse_model_range_error():
    with pytest.raises(RangeError):
        model_io.parse_model_doc(
            minimal_model_doc(events={"a": [["1.2", "0"], ["0", "0"]]})
        )


def test_model_round_trip(tmp_path):
    rng = random.Random(51)
    for _ in range(10):
        sem = rng.choice([Semantics.MAX_MIN, Semantics.MAX_PRODUCT])
        g = oracles.random_automaton(rng, semantics=sem, marked=rng.random() < 0.5)
        path = tmp_path / "model.json"
        save_document(model_io.model_to_doc(g), str(path))
        g2, attrs = model_io.parse_model(str(path))
        assert attrs is None
        assert g2 == g


def test_model_round_trip_with_inline_attributes(maxprod_open):
    g, attrs = maxprod_open
    assert attrs is not None
    doc = model_io.model_to_doc(g, attrs)
    g2, attrs2 = model_io.parse_model_doc(doc)
    assert g2 == g
    assert attrs2.uncontrollability == attrs.uncontrollability


def test_language_round_trip():
    lang = FiniteSupportFuzzyLanguage(
        ("a", "b"), {(): "1", ("a",): "0.5", ("a", "b"): "0.25"}
    )
    doc = model_io.language_to_doc(lang)
    assert doc["degrees"][""] == "1"  # epsilon keys to the empty string
    assert doc["degrees"]["a b"] == "0.25"
    assert model_io.parse_language_doc(doc) == lang


def test_attributes_round_trip():
    attrs = EventAttributes({"a": "0.7", "b": "0.2"})
    doc = model_io.attributes_to_doc(attrs)
    assert doc["schema_version"] == "1"
    back = model_io.parse_attributes_doc(doc)
    assert back.uncontrollability == attrs.uncontrollability


def test_explicit_supervisor_round_trip():
    sup = model_io.parse_supervisor(str(MODELS / "chain_supervisor_explicit.json"))
    assert isinstance(sup, ExplicitSupervisor)
    doc = model_io.supervisor_to_doc(sup)
    back = model_io.parse_supervisor_doc(doc)
    assert back.alphabet == sup.alphabet
    assert back.table == sup.table
    assert back.default == sup.default


def test_synthesized_supervisor_round_trip(chain):
    g, k, attrs_ok, _ = chain
    sup = synthesize_supervisor(g, k, attrs_ok)
    doc = model_io.supervisor_to_doc(sup)
    assert doc["mode"] == "synthesized"
    assert doc["schema_version"] == "1"
    # the document embeds everything needed to re-evaluate the supervisor
    back = model_io.parse_supervisor_doc(doc)
    assert back.check_passed == sup.check_passed
    for s in ((), ("a",), ("a", "b")):
        for e in ("a", "b", "c"):
            assert back.enablement_degree(s, e) == sup.enablement_degree(s, e)
    # documents survive a JSON print/parse cycle unchanged
    assert json.loads(json.dumps(doc)) == doc


def test_every_bundled_fixture_parses():
    parsers = {
        "model": model_io.parse_model,
        "language": model_io.parse_language,
        "attributes": model_io.parse_attributes,
        "supervisor": model_io.parse_supervisor,
    }
    paths = sorted(glob.glob(str(MODELS / "*.json")))
    assert paths
    for path in paths:
        kind = model_io.detect_kind(model_io.load_document(path))
        parsers[kind](path)


def test_language_doc_names_its_first_faulty_string():
    """Each degree text is parsed once, with its string, in document order."""
    with pytest.raises(RangeError, match=r"^degree '2' outside \[0, 1\]$"):
        model_io.parse_language_doc({"alphabet": ["a"], "degrees": {"": "1", "a": "2"}})
    with pytest.raises(AlphabetMismatch, match="undeclared event 'b'"):
        model_io.parse_language_doc({"alphabet": ["a"], "degrees": {"b": "0.5", "a": "2"}})
