"""JSON document schemas: models, languages, attribute maps, supervisors.

All degrees serialize as exact decimal strings (or "p/q" when no finite
decimal exists) and parse back to identical rationals, so documents
round-trip bit-exactly.  Every document carries `schema_version: "1"`.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

from .algebra import Semantics, format_degree
from .automaton import FuzzyAutomaton, string_from_text
from .errors import ParseError, ShapeError
from .language import FiniteSupportFuzzyLanguage
from .supervisory import (
    EventAttributes,
    ExplicitSupervisor,
    Supervisor,
    SynthesizedSupervisor,
    _degree_texts,
)

SCHEMA_VERSION = "1"


def load_document(path: str) -> dict:
    def unique(pairs: list) -> dict:
        """An object whose keys are distinct; json.load would keep the last of two."""
        obj = dict(pairs)
        if len(obj) < len(pairs):  # name the first key met twice
            keys = [k for k, _ in pairs]
            key = next(k for i, k in enumerate(keys) if k in keys[:i])
            raise ParseError(f"{path}: key {key!r} repeated in one object")
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=unique)
    except FileNotFoundError:
        raise ParseError(f"{path}: no such file") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return doc


def detect_kind(doc: dict) -> str:
    kind = doc.get("kind")
    if kind:
        return kind
    if "states" in doc:
        return "model"
    if "degrees" in doc:
        return "language"
    if "mode" in doc:
        return "supervisor"
    if "uncontrollability" in doc:
        return "attributes"
    raise ParseError("cannot tell what kind of document this is (no recognizable fields)")


def _field(doc: dict, name: str, where: str):
    if name not in doc:
        raise ParseError(f"{where}: missing field {name!r}")
    return doc[name]


def _require(ok: bool, where: str, what: str) -> None:
    """A field of the wrong type is a ParseError naming the document and the field."""
    if not ok:
        raise ParseError(f"{where}: {what}")


def _alphabet(doc: dict, where: str) -> tuple:
    alphabet = _field(doc, "alphabet", where)
    _require(isinstance(alphabet, list) and all(isinstance(e, str) for e in alphabet), where,
             "'alphabet' must be a list of event names")
    return tuple(alphabet)


def _by_string(entries: dict, name: str, where: str) -> dict:
    """The values of a string-keyed field, keyed by the event strings their
    keys name; two keys for one string ("" and "eps", "a b" and "a  b") are
    a ParseError naming both."""
    out = {string_from_text(text): value for text, value in entries.items()}
    if len(out) < len(entries):  # some string is named twice: report the first repeat
        keys: Dict[tuple, str] = {}
        for text in entries:
            first = keys.setdefault(string_from_text(text), text)
            if first != text:
                raise ParseError(f"{where}: {name!r} keys {first!r} and {text!r} name one string")
    return out


def _object(doc: dict, name: str, where: str) -> dict:
    """A field holding a nested document, which must be an object."""
    sub = _field(doc, name, where)
    _require(isinstance(sub, dict), where, f"{name!r} must be an object")
    return sub


# ---------------------------------------------------------------------------
# models


def parse_model_doc(doc: dict, where: str = "model") -> Tuple[FuzzyAutomaton, Optional[EventAttributes]]:
    states = _field(doc, "states", where)
    if not isinstance(states, list) or not states:
        raise ParseError(f"{where}: 'states' must be a non-empty list of names")
    n = len(states)
    semantics = _field(doc, "semantics", where)
    _require(semantics in [s.value for s in Semantics], where,
             f"'semantics' must be one of {', '.join(s.value for s in Semantics)}")
    initial = _field(doc, "initial", where)
    _require(isinstance(initial, list), where, "'initial' must be a list of degrees")
    if len(initial) != n:
        raise ShapeError(f"{where}: initial has {len(initial)} entries for {n} states")
    events_doc = _field(doc, "events", where)
    if not isinstance(events_doc, dict):
        raise ParseError(f"{where}: 'events' must be an object of name → grid")
    events: Dict[str, list] = {}
    for name, grid in events_doc.items():
        _require(isinstance(grid, list) and all(isinstance(row, list) for row in grid), where,
                 f"event {name!r} grid must be a list of rows")
        if len(grid) != n or any(len(row) != n for row in grid):
            raise ShapeError(f"{where}: event {name!r} grid is not {n}×{n}")
        events[name] = grid
    marked = doc.get("marked", [])
    _require(isinstance(marked, list) and all(isinstance(v, list) for v in marked), where,
             "'marked' must be a list of degree vectors")
    for i, v in enumerate(marked):
        if len(v) != n:
            raise ShapeError(f"{where}: marked[{i}] has {len(v)} entries for {n} states")
    g = FuzzyAutomaton(
        state_labels=tuple(states),
        events=events,
        initial=initial,
        marked=tuple(tuple(v) for v in marked),
        semantics=Semantics(semantics),
    )
    attrs = None
    if "uncontrollability" in doc:
        attrs = parse_attributes_doc(doc, where)
        attrs.require_alphabet(g.alphabet)
    return g, attrs


def parse_model(path: str) -> Tuple[FuzzyAutomaton, Optional[EventAttributes]]:
    return parse_model_doc(load_document(path), where=path)


def model_to_doc(g: FuzzyAutomaton, attrs: Optional[EventAttributes] = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "model",
        "semantics": g.semantics.value,
        "states": list(g.state_labels),
        "initial": [format_degree(d) for d in g.initial],
        "events": {
            name: [[format_degree(d) for d in row] for row in m]
            for name, m in g.events.items()
        },
    }
    if g.marked:
        doc["marked"] = [[format_degree(d) for d in v] for v in g.marked]
    if attrs is not None:
        doc["uncontrollability"] = {
            e: format_degree(d) for e, d in attrs.uncontrollability.items()
        }
    return doc


# ---------------------------------------------------------------------------
# languages


def parse_language_doc(doc: dict, where: str = "language") -> FiniteSupportFuzzyLanguage:
    alphabet = _alphabet(doc, where)
    degrees = _field(doc, "degrees", where)
    if not isinstance(degrees, dict):
        raise ParseError(f"{where}: 'degrees' must map strings to degrees")
    return FiniteSupportFuzzyLanguage(alphabet, _by_string(degrees, "degrees", where))


def parse_language(path: str) -> FiniteSupportFuzzyLanguage:
    return parse_language_doc(load_document(path), where=path)


def language_to_doc(l: FiniteSupportFuzzyLanguage) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "language",
        "alphabet": list(l.alphabet),
        "degrees": {" ".join(s): format_degree(l(s)) for s in l.support()},
    }


# ---------------------------------------------------------------------------
# attribute maps


def parse_attributes_doc(doc: dict, where: str = "attributes") -> EventAttributes:
    uc = _field(doc, "uncontrollability", where)
    _require(isinstance(uc, dict), where, "'uncontrollability' must map events to degrees")
    return EventAttributes(dict(uc))


def parse_attributes(path: str) -> EventAttributes:
    return parse_attributes_doc(load_document(path), where=path)


def attributes_to_doc(attrs: EventAttributes) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "attributes",
        "uncontrollability": {e: format_degree(d) for e, d in attrs.uncontrollability.items()},
    }


# ---------------------------------------------------------------------------
# supervisors


def supervisor_to_doc(sup: Supervisor) -> dict:
    text = _degree_texts()
    if isinstance(sup, SynthesizedSupervisor):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "supervisor",
            "mode": "synthesized",
            "check_passed": sup.check_passed,
            "plant": model_to_doc(sup.plant),
            "attributes": attributes_to_doc(sup.attrs),
            "spec_automaton": model_to_doc(sup.spec) if isinstance(sup.spec, FuzzyAutomaton) else None,
            "spec_language": None if isinstance(sup.spec, FuzzyAutomaton) else language_to_doc(sup.spec),
            "enablement_rows": [
                {
                    "s": " ".join(s),
                    "degrees": {e: text(d) for e, d in row.items()},
                }
                for s, row in sup.rows()
            ],
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "supervisor",
        "mode": "explicit",
        "alphabet": list(sup.alphabet),
        "default": text(sup.default),
        "table": {
            " ".join(s): {e: text(d) for e, d in row.items()}
            for s, row in sorted(sup.table.items(), key=lambda kv: (len(kv[0]), kv[0]))
        },
    }


def parse_supervisor_doc(doc: dict, where: str = "supervisor") -> Supervisor:
    mode = _field(doc, "mode", where)
    if mode == "synthesized":
        plant, _ = parse_model_doc(_object(doc, "plant", where), where=f"{where}.plant")
        attrs = parse_attributes_doc(_object(doc, "attributes", where), where=f"{where}.attributes")
        spec_a = doc.get("spec_automaton")
        spec_l = doc.get("spec_language")
        _require(spec_a is None or isinstance(spec_a, dict), where, "'spec_automaton' must be an object")
        _require(spec_l is None or isinstance(spec_l, dict), where, "'spec_language' must be an object")
        _require((spec_a is None) != (spec_l is None), where,
                 "exactly one of 'spec_automaton' and 'spec_language' must be given")
        check_passed = doc.get("check_passed")
        _require(isinstance(check_passed, bool) or check_passed is None, where,
                 "'check_passed' must be true, false or null")
        spec = (parse_model_doc(spec_a, where=f"{where}.spec_automaton")[0] if spec_l is None
                else parse_language_doc(spec_l, where=f"{where}.spec_language"))
        return SynthesizedSupervisor(plant, attrs, spec, check_passed)
    if mode == "explicit":
        table = _field(doc, "table", where)
        _require(isinstance(table, dict) and all(isinstance(row, dict) for row in table.values()), where,
                 "'table' must map strings to rows of event degrees")
        return ExplicitSupervisor(
            alphabet=_alphabet(doc, where),
            table={s: dict(row) for s, row in _by_string(table, "table", where).items()},
            default=doc.get("default", "0"),
        )
    raise ParseError(f"{where}: unknown supervisor mode {mode!r}")


def parse_supervisor(path: str) -> Supervisor:
    return parse_supervisor_doc(load_document(path), where=path)
