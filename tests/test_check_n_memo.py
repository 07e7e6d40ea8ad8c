"""The bounded check's transition memo and the reports' render memo.

check_n_controllability computes each (pair, σ) transition once and shares
its degrees among the rows of every string that takes it; render_text and
to_dict format each distinct degree once.  These tests hold both memos to
plain Fraction replays and count the work they do.
"""

import random
from collections import Counter

import pytest

import oracles
from fdes import supervisory
from fdes.algebra import Semantics, format_degree, format_table
from fdes.automaton import FuzzyAutomaton, StepTable, string_to_text
from fdes.supervisory import REPORT_HEADERS, check_n_controllability

SEMANTICS = (Semantics.MAX_MIN, Semantics.MAX_PRODUCT)


def row_tuples(report):
    return [(r.representative, r.event, r.prK_s, r.LG_s_sigma, r.sigma_uc, r.prK_s_sigma) for r in report.rows]


def spec_like(rng, g):
    """A spec automaton over g's alphabet with g's semantics, 1 to 3 states."""
    n = rng.randint(1, 3)
    row = lambda: tuple(rng.choice(oracles.HALF_STEPS) for _ in range(n))
    return FuzzyAutomaton(
        tuple(f"p{i}" for i in range(n)), {e: tuple(row() for _ in range(n)) for e in g.alphabet}, row(), (), g.semantics
    )


def instances(seed, count):
    """(g, spec, attrs, n) with automaton and language specs under both
    semantics; the languages are at most 2 deep and n reaches 5, so most
    strings run past pr(K)'s support."""
    rng = random.Random(seed)
    for semantics in SEMANTICS:
        for _ in range(count):
            g = oracles.random_automaton(rng, max_events=2, semantics=semantics)
            attrs = oracles.random_attrs(rng, g.alphabet)
            yield g, spec_like(rng, g), attrs, rng.randint(0, 5)
            yield g, oracles.random_language(rng, g.alphabet, max_len=2, max_support=4), attrs, rng.randint(2, 5)


def pair_transitions(g, spec, n):
    """The distinct ((q̃0 * s, p̃0 * s), σ) over every s of length ≤ n, where a
    language spec's side is s itself inside pr(K)'s support and None outside."""
    support = set(oracles.prefix_support(spec)) if not isinstance(spec, FuzzyAutomaton) else None
    pairs = {
        (oracles.fraction_run(g, s), oracles.fraction_run(spec, s) if support is None else (s if s in support else None))
        for s in oracles.strings_up_to(g.alphabet, n)
    }
    return {(pair, sigma) for pair in pairs for sigma in g.alphabet}


def test_check_n_rows_equal_replay_random():
    """Rows equal Fraction replays of every string of length ≤ n, for both
    semantics and both spec kinds, including strings that leave pr(K)'s
    support, and the counterexample is the first failing row."""
    kinds = set()
    for g, spec, attrs, n in instances(71, 12):
        report = check_n_controllability(g, spec, attrs, n)
        expected = oracles.check_rows_by_replay(g, spec, attrs, oracles.strings_up_to(g.alphabet, n))
        assert row_tuples(report) == expected
        verdicts = [min(p, uc, lg) <= p2 for _, _, p, lg, uc, p2 in expected]
        assert [r.verdict for r in report.rows] == verdicts
        assert [r.lhs for r in report.rows] == [min(p, uc, lg) for _, _, p, lg, uc, _ in expected]
        assert report.overall == all(verdicts)
        assert report.counterexample is next((r for r in report.rows if not r.verdict), None)
        if not isinstance(spec, FuzzyAutomaton):
            kinds.add(any(oracles.prefix_degree(spec, s) == 0 for s, *_ in expected))
        kinds.add((g.semantics, report.overall))
    assert kinds >= {True, *((sem, ok) for sem in SEMANTICS for ok in (True, False))}


@pytest.fixture
def step_calls(monkeypatch):
    """Counts each step table's `step` calls, keyed by the table."""
    calls = Counter()

    def spy(self, state, e, _step=StepTable.step):
        calls[id(self)] += 1
        return _step(self, state, e)

    monkeypatch.setattr(StepTable, "step", spy)
    return calls


def test_check_n_steps_each_pair_transition_once(step_calls):
    """Each table steps exactly once per distinct ((plant, spec) pair, σ),
    not once per string, and the rows of one transition share its degrees."""
    for g, spec, attrs, n in instances(72, 8):
        step_calls.clear()
        report = check_n_controllability(g, spec, attrs, n)
        transitions = len(pair_transitions(g, spec, n))
        assert step_calls[id(g.table())] == transitions
        if isinstance(spec, FuzzyAutomaton):
            assert step_calls[id(spec.table())] == transitions
        assert len(step_calls) == 1 + isinstance(spec, FuzzyAutomaton)
        assert len({id(r.lhs) for r in report.rows}) <= transitions


def plain_text(report):
    """render_text with one format_degree call per degree."""
    lines = format_table([REPORT_HEADERS] + [
        (string_to_text(r.representative), r.event, *map(format_degree, supervisory._row_degrees(r)),
         "T" if r.verdict else "F")
        for r in report.rows
    ])
    return "\n".join(lines + [f"overall: {'T' if report.overall else 'F'}"]) + "\n"


def test_reports_format_each_distinct_degree_once(monkeypatch):
    """render_text and to_dict call format_degree at most once per distinct
    degree of the report, and print what plain calls print."""
    calls = Counter()

    def spy(d):
        calls[d] += 1
        return format_degree(d)

    monkeypatch.setattr(supervisory, "format_degree", spy)
    for g, spec, attrs, n in instances(74, 4):
        report = check_n_controllability(g, spec, attrs, n)
        degrees = {d for r in report.rows for d in supervisory._row_degrees(r)}
        for render in (report.render_text, report.to_dict):
            calls.clear()
            render()
            assert set(calls) == degrees and max(calls.values()) == 1
        assert report.render_text() == plain_text(report)
        rows = report.to_dict()["rows"]
        assert [tuple(row[f] for f in supervisory.DEGREE_FIELDS) for row in rows] == [
            tuple(map(format_degree, supervisory._row_degrees(r))) for r in report.rows
        ]
