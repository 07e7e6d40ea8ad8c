import random
from dataclasses import replace
from fractions import Fraction

import pytest

import oracles
import fdes.automaton
import fdes.supervisory
from fdes.algebra import ONE, ZERO, Semantics, max_element
from fdes.automaton import FuzzyAutomaton, generated_degree, string_to_text
from fdes.errors import AlphabetMismatch, ParseError, SemanticsMismatch, StringNotInLanguage, UnknownEvent
from fdes.language import FiniteSupportFuzzyLanguage, prefix_closure
from fdes.reachability import build_computing_tree, build_pair_computing_tree, enumerate_pairs, enumerate_states
from fdes.supervisory import (
    REPORT_HEADERS,
    EventAttributes,
    ExplicitSupervisor,
    SynthesizedSupervisor,
    check_admissibility,
    check_controllability,
    check_language_controllability,
    check_n_controllability,
    check_nonblocking,
    check_sufficient_condition,
    controlled_generated_degree,
    controlled_marked_degree,
    crisp_active_events,
    synthesize_supervisor,
)

F = Fraction


# --- event attributes -----------------------------------------------------------


def test_event_attributes():
    attrs = EventAttributes({"a": "0.7", "b": "0.2"})
    assert attrs.uc("a") == F(7, 10)
    assert attrs.controllability == {"a": F(3, 10), "b": F(4, 5)}
    with pytest.raises(AlphabetMismatch):
        attrs.uc("zz")
    with pytest.raises(AlphabetMismatch):
        attrs.require_alphabet(("a", "b", "c"))
    attrs.require_alphabet(("a", "b"))


# --- automaton-spec controllability check ----------------------------------------


def test_check_two_state_report(two_state, attrs_two_state):
    g, h = two_state
    report = check_controllability(g, h, attrs_two_state)
    assert not report.overall
    assert report.warnings == []
    # one row per reachable pair node per event
    assert len(report.rows) == 7 * 2
    row = report.counterexample
    assert row.representative == ("a1",)
    assert row.event == "a1"
    assert (row.prK_s, row.LG_s_sigma, row.sigma_uc, row.lhs, row.prK_s_sigma) == (
        F(4, 5),
        F(2, 5),
        F(7, 10),
        F(2, 5),
        F(1, 5),
    )
    assert not row.verdict


def test_check_rows_satisfy_their_own_arithmetic(two_state, attrs_two_state):
    g, h = two_state
    report = check_controllability(g, h, attrs_two_state)
    for row in report.rows:
        assert row.lhs == min(row.prK_s, row.sigma_uc, row.LG_s_sigma)
        assert row.verdict == (row.lhs <= row.prK_s_sigma)
    assert report.overall == all(r.verdict for r in report.rows)


def test_check_render_and_dict(two_state, attrs_two_state):
    g, h = two_state
    report = check_controllability(g, h, attrs_two_state)
    text = report.render_text(first_failure=True)
    lines = text.splitlines()
    assert lines[0].split() == list(REPORT_HEADERS)
    assert len(lines) == 1 + 3 + 1  # header, three rows, overall
    assert lines[-1] == "overall: F"
    doc = report.to_dict()
    assert doc["schema_version"] == "1"
    assert doc["overall"] is False
    assert doc["rows"][0]["s"] == ""  # epsilon renders as the empty string in JSON
    assert doc["rows"][2]["verdict"] is False


def test_check_three_state_verdicts(three_state, attrs_mixed, attrs_low):
    g, h = three_state
    failing = check_controllability(g, h, attrs_mixed)
    assert not failing.overall
    bad = [(r.representative, r.event) for r in failing.rows if not r.verdict]
    assert bad[:2] == [((), "b2"), ((), "b3")]
    passing = check_controllability(g, h, attrs_low)
    assert passing.overall
    assert passing.counterexample is None


def test_check_requires_max_min(maxprod_open):
    g, attrs = maxprod_open
    with pytest.raises(SemanticsMismatch):
        check_controllability(g, g, attrs)


# --- language-spec check -----------------------------------------------------------


def test_language_check_chain(chain):
    g, k, attrs_ok, attrs_bad = chain
    good = check_language_controllability(g, k, attrs_ok)
    assert good.overall
    bad = check_language_controllability(g, k, attrs_bad)
    assert not bad.overall
    assert bad.counterexample.representative == ("a", "b")
    assert bad.counterexample.event == "c"
    assert bad.counterexample.lhs == F(3, 10)
    assert bad.counterexample.prK_s_sigma == ZERO


def test_sufficient_condition(chain):
    g, k, attrs_ok, _ = chain
    # the bundled spec language is controllable but fails the stronger test
    # (it does not contain the single-step prefix "a" at full degree)
    assert not check_sufficient_condition(g, k, attrs_ok)
    closed = prefix_closure(k)
    assert check_sufficient_condition(g, closed, attrs_ok)
    assert check_language_controllability(g, closed, attrs_ok).overall


def test_sufficient_condition_requires_a_matching_spec(chain):
    """The spec precondition of every other check: a K over fewer events than
    the plant's, or over an event the plant lacks, is an AlphabetMismatch."""
    g, _, attrs_ok, _ = chain
    for alphabet in (("a", "b"), ("a", "b", "c", "z")):
        k = FiniteSupportFuzzyLanguage(alphabet, {(): ONE, alphabet[-1:]: F(1, 2)})
        with pytest.raises(AlphabetMismatch):
            check_sufficient_condition(g, k, attrs_ok)


def test_sufficient_condition_implies_controllable():
    rng = random.Random(41)
    hits = 0
    for _ in range(80):
        g = oracles.random_automaton(rng, max_events=2)
        k = prefix_closure(oracles.random_language(rng, g.alphabet))
        attrs = oracles.random_attrs(rng, g.alphabet)
        if check_sufficient_condition(g, k, attrs):
            hits += 1
            assert check_language_controllability(g, k, attrs).overall
    assert hits  # the implication must actually have fired


# --- bounded check -----------------------------------------------------------------


def test_check_n_row_counts(two_state, attrs_two_state):
    g, h = two_state
    for n in (0, 1, 2):
        report = check_n_controllability(g, h, attrs_two_state, n)
        strings = sum(2**i for i in range(n + 1))
        assert len(report.rows) == strings * 2
        assert report.n == n
    assert check_n_controllability(g, h, attrs_two_state, 0).overall
    assert not check_n_controllability(g, h, attrs_two_state, 1).overall


def test_check_n_progress_and_language_spec(chain):
    g, k, _, attrs_bad = chain
    seen = []
    report = check_n_controllability(g, k, attrs_bad, 3, progress=seen.append)
    assert not report.overall
    assert len(seen) == sum(3**i for i in range(4))
    assert seen == list(range(3, len(report.rows) + 1, 3))  # the row count after every |Σ| rows
    assert report.counterexample.representative == ("a", "b")


def test_check_n_agrees_with_pair_check():
    """The bounded string-tree check and the pair-graph check agree: a pass is
    a pass at every bound, and a failure shows up once the bound covers the
    counterexample."""
    rng = random.Random(42)
    for _ in range(30):
        g, h = oracles.dominated_pair(rng, max_states=2, max_events=2)
        attrs = oracles.random_attrs(rng, g.alphabet)
        exact = check_controllability(g, h, attrs)
        if exact.overall:
            assert check_n_controllability(g, h, attrs, 3).overall
        else:
            depth = len(exact.counterexample.representative)
            bounded = check_n_controllability(g, h, attrs, min(depth, 4))
            assert not bounded.overall


# --- synthesized supervisors --------------------------------------------------------


def test_synthesize_chain_supervisor(chain):
    g, k, attrs_ok, _ = chain
    sup = synthesize_supervisor(g, k, attrs_ok)
    assert sup.check_passed
    assert sup.alphabet == ("a", "b", "c")
    assert sup.enablement_degree((), "a") == F(4, 5)
    assert sup.enablement_degree(("a",), "b") == F(4, 5)
    assert sup.enablement_degree((), "b") == ZERO
    assert sup.enablement_degree((), "c") == ZERO
    assert sup.enablement_degree(("a", "b"), "c") == ZERO
    rows = sup.rows()
    nonzero = {(s, e): d for s, degs in rows for e, d in degs.items() if d != ZERO}
    assert nonzero == {((), "a"): F(4, 5), (("a",), "b"): F(4, 5)}


def test_synthesize_branches_follow_the_construction(two_state, attrs_two_state):
    g, h = two_state
    sup = synthesize_supervisor(g, h, attrs_two_state)
    assert not sup.check_passed  # still constructed, but flagged
    # uc(a1)=0.7 < pr(K)(a1)=0.8: enable at pr(K)(s sigma)
    assert sup.enablement_degree((), "a1") == F(4, 5)
    # uc(a2)=0.2 >= pr(K)(a2)=0.2: enable at min(uc, L_G(s sigma))
    assert sup.enablement_degree((), "a2") == F(1, 5)
    assert sup.prk_degree(()) == F(4, 5)


def test_supervisor_rejects_a_spec_of_other_semantics(two_state, attrs_two_state):
    g, h = two_state
    plant = replace(g, semantics=Semantics.MAX_PRODUCT)
    for build in (synthesize_supervisor, lambda g, h, attrs: SynthesizedSupervisor(g, attrs, spec_automaton=h)):
        with pytest.raises(SemanticsMismatch, match="^plant and specification must share semantics$"):
            build(plant, h, attrs_two_state)


def test_supervisor_rejects_a_spec_language_of_other_alphabet(chain):
    g, _, attrs_ok, _ = chain
    k = FiniteSupportFuzzyLanguage(("a", "b", "z"), {(): ONE, ("z",): F(1, 2)})
    message = r"^language alphabet \['a', 'b', 'z'\] != plant alphabet \['a', 'b', 'c'\]$"
    for build in (synthesize_supervisor, lambda g, k, attrs: SynthesizedSupervisor(g, attrs, spec_language=k)):
        with pytest.raises(AlphabetMismatch, match=message):
            build(g, k, attrs_ok)


def test_controlled_language_fold(chain):
    g, k, attrs_ok, _ = chain
    sup = synthesize_supervisor(g, k, attrs_ok)
    assert controlled_generated_degree(sup, g, ()) == ONE
    assert controlled_generated_degree(sup, g, ("a",)) == F(4, 5)
    assert controlled_generated_degree(sup, g, ("a", "b")) == F(4, 5)
    assert controlled_generated_degree(sup, g, ("a", "b", "c")) == ZERO
    assert controlled_marked_degree(sup, g, ("a", "b")) == F(4, 5)
    assert controlled_marked_degree(sup, g, ("a",)) == ZERO


def test_explicit_supervisor_controls_the_chain(chain):
    g, _, _, _ = chain
    sup = ExplicitSupervisor(("a", "b", "c"), {(): {"a": F(4, 5)}, ("a",): {"b": F(4, 5)}})
    assert sup.enablement_degree((), "a") == F(4, 5)
    assert sup.enablement_degree((), "b") == ZERO
    assert sup.enablement_degree(("x",), "a") == ZERO  # off-table -> default
    assert controlled_generated_degree(sup, g, ("a", "b")) == F(4, 5)
    assert controlled_generated_degree(sup, g, ("a", "b", "c")) == ZERO


# --- admissibility --------------------------------------------------------------------


def test_admissibility_of_explicit_supervisors(chain):
    g, _, attrs_ok, attrs_bad = chain
    sup = ExplicitSupervisor(("a", "b", "c"), {(): {"a": F(4, 5)}, ("a",): {"b": F(4, 5)}})
    assert check_admissibility(sup, g, attrs_ok).ok
    # raising uc(c) above zero makes the all-zero row at "a b" inadmissible
    res = check_admissibility(sup, g, attrs_bad)
    assert not res.ok
    # witness: string, event, required floor min(uc, L_G), actual enablement
    assert res.counterexample == (("a", "b"), "c", F(3, 10), ZERO)
    raised = ExplicitSupervisor(
        ("a", "b", "c"),
        {(): {"a": F(4, 5)}, ("a",): {"b": F(4, 5)}, ("a", "b"): {"c": F(3, 10)}},
    )
    assert check_admissibility(raised, g, attrs_bad).ok


def test_synthesized_supervisors_are_admissible_random():
    rng = random.Random(43)
    for _ in range(40):
        g, h = oracles.dominated_pair(rng, max_states=2, max_events=2)
        attrs = oracles.random_attrs(rng, g.alphabet)
        sup = synthesize_supervisor(g, h, attrs)
        assert check_admissibility(sup, g, attrs).ok


def test_admissibility_for_another_plant_is_not_exact():
    """A supervisor synthesized for one plant and checked against another:
    one pair class of g can hold strings the supervisor treats differently,
    so the pair classes must not be reported as an exact domain."""
    labels = ("q0", "q1")
    g = FuzzyAutomaton(
        labels, {"a": [["0.5", "0.9"], ["0.2", "0.9"]], "b": [["0.2", "0.2"], ["0.4", "0.4"]]}, ["0.6", "0.9"]
    )
    plant = FuzzyAutomaton(
        labels, {"a": [["0.6", "0.2"], ["0.9", "0.1"]], "b": [["0.3", "0.7"], ["0", "0.2"]]}, ["0.8", "0.5"]
    )
    spec = FuzzyAutomaton(
        labels, {"a": [["0.8", "1"], ["0.7", "1"]], "b": [["1", "0.3"], ["0.3", "0.5"]]}, ["0.7", "1"]
    )
    attrs = EventAttributes({"a": "0.7", "b": "0.3"})
    sup = synthesize_supervisor(plant, spec, attrs)
    # at (b b, a): uc(a) = 0.7 ≥ prK(b b a) = 0.7, so S(b b)(a) = min(0.7, L_plant(b b a) = 0.3),
    # below the required min(0.7, L_g(b b a) = 0.4)
    bba = ("b", "b", "a")
    assert (generated_degree(g, bba), generated_degree(spec, bba), generated_degree(plant, bba)) == (
        F(2, 5), F(7, 10), F(3, 10)
    )
    assert sup.enablement_degree(("b", "b"), "a") == F(3, 10)
    res = check_admissibility(sup, g, attrs)
    assert not res.ok
    assert res.domain == "strings of length ≤ 6"
    s, e, required, provided = res.counterexample
    assert required == min(attrs.uc(e), generated_degree(g, s + (e,)))
    assert provided == sup.enablement_degree(s, e) < required
    assert check_admissibility(sup, plant, attrs) == (True, None, "exact (reachable pair classes)")


def reversed_events(a):
    """a with its events declared in reverse order: equal to a, yet not its twin."""
    return FuzzyAutomaton(a.state_labels, dict(reversed(a.events.items())), a.initial, a.marked, a.semantics)


def test_bounded_admissibility_extends_one_string_per_class(monkeypatch, three_state, attrs_low):
    """Bounded admissibility reads a string s only through its class (g's
    table state, the supervisor's pair id), so it extends one string per
    class: a supervisor synthesized for the three-state plant with its
    events reversed, checked against that plant at the default bound 6,
    takes at most classes × |Σ| controlled steps, not one per string of
    length 1 to 7 (335,922)."""
    g, h = three_state
    sup = synthesize_supervisor(reversed_events(g), reversed_events(h), attrs_low)
    steps, classes = [], set()
    controlled = fdes.supervisory._controlled

    def counted(*args):
        codec, start, step = controlled(*args)
        classes.add(start[:2])

        def spied(state, sigma):
            nxt = step(state, sigma)
            steps.append(sigma)
            classes.add(nxt[:2])
            return nxt

        return codec, start, spied

    monkeypatch.setattr(fdes.supervisory, "_controlled", counted)
    assert check_admissibility(sup, g, attrs_low) == (True, None, "strings of length ≤ 6")
    assert 0 < len(steps) <= len(classes) * len(g.alphabet)


def test_bounded_admissibility_equals_its_replay_definition_random():
    """Bounded admissibility, which extends one string per class for a
    synthesized supervisor, against its definition replayed on every string:
    the same verdict and first violation for supervisors of g itself, of g
    with its events reversed and of another plant, from automaton and
    language specs, and for explicit supervisors, under both semantics."""
    rng = random.Random(2501)
    outcomes = set()
    for semantics, count in ((Semantics.MAX_MIN, 12), (Semantics.MAX_PRODUCT, 6)):
        for _ in range(count):
            g, h = oracles.dominated_pair(rng, max_states=2, max_events=2, semantics=semantics)
            k = oracles.random_language(rng, g.alphabet, max_len=2)
            attrs, other_attrs = (oracles.random_attrs(rng, g.alphabet) for _ in range(2))
            other = random_plant_like(rng, g)
            sups = [
                synthesize_supervisor(g, h, attrs),
                synthesize_supervisor(g, k, attrs),
                synthesize_supervisor(reversed_events(g), reversed_events(h), attrs),
                synthesize_supervisor(other, replace(other, marked=()), attrs),
                ExplicitSupervisor(g.alphabet, {(e,): {e: rng.choice(oracles.HALF_STEPS)} for e in g.alphabet},
                                   rng.choice(oracles.HALF_STEPS)),
            ]
            for sup in sups:
                for check_attrs in (attrs, other_attrs):
                    for n in (0, 2, 4):
                        res = check_admissibility(sup, g, check_attrs, n)
                        assert res.domain == f"strings of length ≤ {n}"
                        assert (res.ok, res.counterexample) == oracles.admissibility_by_replay(sup, g, check_attrs, n)
                        outcomes.add((semantics, res.ok))
    assert outcomes == {(semantics, ok) for semantics in Semantics for ok in (True, False)}


# --- graph paths against their string-replay definitions ----------------------------


def random_plant_like(rng, g):
    """Another plant over g's alphabet with g's semantics, with one marked state."""
    n = rng.randint(1, 3)
    grid = lambda: tuple(tuple(rng.choice(oracles.HALF_STEPS) for _ in range(n)) for _ in range(n))
    row = lambda: tuple(rng.choice(oracles.HALF_STEPS) for _ in range(n))
    return FuzzyAutomaton(
        tuple(f"p{i}" for i in range(n)), {e: grid() for e in g.alphabet}, row(), (row(),), g.semantics
    )


def random_supervised_instances(seed, count):
    """(g, h, k, attrs): a max-min plant with a marked state, a spec automaton
    bounded by it, a spec language and event attributes."""
    rng = random.Random(seed)
    for _ in range(count):
        g, h = oracles.dominated_pair(rng)
        marked = (tuple(rng.choice(oracles.HALF_STEPS) for _ in range(g.dim)),)
        g = FuzzyAutomaton(g.state_labels, g.events, g.initial, marked, g.semantics)
        k = oracles.random_language(rng, g.alphabet, max_len=2)
        yield rng, g, h, k, oracles.random_attrs(rng, g.alphabet)


def test_supervisor_rows_equal_their_replay_definition_random():
    for _, g, h, _, attrs in random_supervised_instances(51, 30):
        witnesses = oracles.pairs_oracle(g, h)[2].values()
        for sup in (synthesize_supervisor(g, h, attrs), SynthesizedSupervisor(g, attrs, spec_automaton=h)):
            assert sup.rows() == [(w, {e: oracles.enablement_by_replay(sup, w, e) for e in g.alphabet}) for w in witnesses]


def test_check_rows_equal_per_witness_steps_random():
    for _, g, h, _, attrs in random_supervised_instances(52, 30):
        expected = []
        for w in oracles.pairs_oracle(g, h)[2].values():
            vg, vh = oracles.fraction_run(g, w), oracles.fraction_run(h, w)
            for e in g.alphabet:
                lg, prk = max_element(oracles.fraction_step(g, vg, e)), max_element(oracles.fraction_step(h, vh, e))
                expected.append((w, e, max_element(vh), lg, attrs.uc(e), prk))
        report = check_controllability(g, h, attrs)
        rows = [(r.representative, r.event, r.prK_s, r.LG_s_sigma, r.sigma_uc, r.prK_s_sigma) for r in report.rows]
        assert rows == expected


def test_supervised_walks_equal_their_replay_definition_random():
    """check_nonblocking's direct comparison, controlled_generated_degree,
    the bounded admissibility walk, prk_degree and enablement_degree, for
    supervisors of g itself and of another plant, from automaton and
    language specs."""
    outcomes = set()
    for rng, g, h, k, attrs in random_supervised_instances(53, 25):
        twin = FuzzyAutomaton(g.state_labels, dict(g.events), g.initial, g.marked, g.semantics)
        other = random_plant_like(rng, g)
        other_h = FuzzyAutomaton(other.state_labels, other.events, other.initial, (), other.semantics)
        other_attrs = oracles.random_attrs(rng, g.alphabet)
        sups = [
            synthesize_supervisor(g, h, attrs),
            synthesize_supervisor(g, k, attrs),
            synthesize_supervisor(twin, h, attrs),
            synthesize_supervisor(other, other_h, attrs),
            synthesize_supervisor(other, k, attrs),
        ]
        for sup in sups:
            report = check_nonblocking(sup, g, k, attrs, depth=3)
            direct = oracles.direct_nonblocking_by_replay(sup, g, 3)
            assert (report.direct_ok, report.direct_witness) == direct
            outcomes.add(direct[0])
            strings = oracles.strings_up_to(g.alphabet, 3)
            for s in rng.sample(strings, min(8, len(strings))):
                assert controlled_generated_degree(sup, g, s) == oracles.controlled_degree_by_replay(sup, g, s)
                assert sup.prk_degree(s) == oracles.prk_by_replay(sup, s)
                for e in g.alphabet:
                    assert sup.enablement_degree(s, e) == oracles.enablement_by_replay(sup, s, e)
            res = check_admissibility(sup, g, other_attrs, n=2)
            assert (res.ok, res.counterexample) == oracles.admissibility_by_replay(sup, g, other_attrs, 2)
            outcomes.add(res.ok)
    assert outcomes == {True, False}


def report_rows(report):
    return [(r.representative, r.event, r.prK_s, r.LG_s_sigma, r.sigma_uc, r.prK_s_sigma) for r in report.rows]


def test_walks_on_alphabets_declared_against_name_order_random():
    """Events declared in reverse name order (e2, e1, e0): the direct
    nonblocking witness is the first diverging string by length and then
    names, while bounded admissibility, the check-n rows and the pair
    listing's edges follow the declaration order; each against its replay
    oracle.  g's marked vector is 1 where its initial vector is, so ε is
    not always the first divergence and the order of the witness shows."""
    outcomes, checked = set(), 0
    for rng, g, h, k, attrs in random_supervised_instances(71, 12):
        if len(g.alphabet) < 2:
            continue
        checked += 1
        names = {e: f"e{len(g.alphabet) - 1 - j}" for j, e in enumerate(g.alphabet)}

        def rename(a, marked):
            return FuzzyAutomaton(a.state_labels, {names[e]: m for e, m in a.events.items()}, a.initial, marked, a.semantics)

        marked = tuple(ONE if d == ONE else rng.choice(oracles.HALF_STEPS) for d in g.initial)
        g, h = rename(g, (marked,)), rename(h, ())
        assert list(g.alphabet) != sorted(g.alphabet)
        k = FiniteSupportFuzzyLanguage(g.alphabet, {tuple(names[e] for e in s): d for s, d in k.degrees.items()})
        attrs = EventAttributes({names[e]: d for e, d in attrs.uncontrollability.items()})
        other = random_plant_like(rng, g)
        other_h = FuzzyAutomaton(other.state_labels, other.events, other.initial, (), other.semantics)
        for sup in (synthesize_supervisor(g, h, attrs), synthesize_supervisor(g, k, attrs),
                    synthesize_supervisor(other, other_h, attrs)):
            report = check_nonblocking(sup, g, k, attrs, depth=3)
            direct = oracles.direct_nonblocking_by_replay(sup, g, 3)
            assert (report.direct_ok, report.direct_witness) == direct
            res = check_admissibility(sup, g, attrs, n=2)
            assert (res.ok, res.counterexample) == oracles.admissibility_by_replay(sup, g, attrs, 2)
            outcomes.update([("direct", direct[0]), ("admissible", res.ok)])
        strings = oracles.strings_up_to(g.alphabet, 3)
        for spec in (h, k):
            assert report_rows(check_n_controllability(g, spec, attrs, 3)) == oracles.check_rows_by_replay(
                g, spec, attrs, strings
            )
        assert list(enumerate_pairs(g, h).edges.items()) == list(oracles.pairs_oracle(g, h)[1].items())
    assert checked >= 10
    assert outcomes == {(name, ok) for name in ("direct", "admissible") for ok in (True, False)}


def test_support_walks_equal_their_replay_definition_random():
    """The paths over pr(K)'s support (language check, sufficient condition,
    language-spec rows, nonblocking conditions) on max-min and max-product
    plants, against plain Fraction replays from the initial vector.  The last
    instances give g an event it never takes, so K leaves L(G) wherever its
    support uses that event."""
    outcomes, left = set(), set()
    for semantics in (Semantics.MAX_MIN, Semantics.MAX_PRODUCT):
        rng = random.Random(61)
        for i in range(40):
            g = oracles.random_automaton(rng, semantics=semantics, marked=True)
            if i >= 30:
                never = ((ZERO,) * g.dim,) * g.dim
                g = FuzzyAutomaton(g.state_labels, {**g.events, g.alphabet[-1]: never}, g.initial, g.marked, semantics)
            k = oracles.random_language(rng, g.alphabet, max_len=3, max_support=8)
            if i % 2:  # K = pr(K) ∩ L(G,m) holds for this K, so condition (a) passes
                k = k.with_degrees(
                    {t: min(oracles.prefix_degree(k, t), oracles.replay_marked(g, t)) for t in oracles.prefix_support(k)}
                )
            # all-zero uc passes the sufficient condition
            attrs = oracles.random_attrs(rng, g.alphabet, palette=(ZERO,) if i % 3 == 0 else oracles.HALF_STEPS)
            expected = oracles.check_rows_by_replay(g, k, attrs, oracles.prefix_support(k))
            report = check_language_controllability(g, k, attrs)
            assert report_rows(report) == expected
            over = next((s for s, e, prk, *_ in expected if prk > oracles.replay_generated(g, s)), None)
            assert len(report.warnings) == (over is not None)
            if over is not None:
                assert f"at {string_to_text(over)} " in report.warnings[0]
            sufficient = check_sufficient_condition(g, k, attrs)
            assert sufficient == oracles.sufficient_by_replay(g, k, attrs)
            sup = synthesize_supervisor(g, k, attrs)
            assert sup.rows() == oracles.language_rows_by_replay(g, k, attrs)
            nb = check_nonblocking(sup, g, k, attrs, depth=3)
            over_m, a_fail = oracles.nonblocking_conditions_by_replay(g, k)
            assert (nb.condition_a, nb.condition_a_witness) == (a_fail is None, a_fail)
            assert nb.condition_b == all(min(p, uc, lg) <= p2 for _, _, p, lg, uc, p2 in expected)
            contained = [w for w in nb.warnings if "L(G,m)" in w]
            assert len(contained) == (over_m is not None)
            if over_m is not None:
                assert f"at {string_to_text(over_m)} " in contained[0]
            assert (nb.direct_ok, nb.direct_witness) == oracles.direct_nonblocking_by_replay(sup, g, 3)
            outcomes.update([(semantics, "sufficient", sufficient), (semantics, "a", a_fail is None)])
            if any(oracles.replay_generated(g, s) == ZERO for s in oracles.prefix_support(k)):
                left.update([(semantics, "sufficient", sufficient), (semantics, "a", a_fail is None)])
    assert len(outcomes) == 8  # both verdicts of both conditions under both semantics
    # both verdicts of the sufficient condition where K leaves L(G); (a) cannot hold there, as L(G,m) ⊆ L(G)
    assert left == {
        (semantics, *outcome) for semantics in (Semantics.MAX_MIN, Semantics.MAX_PRODUCT)
        for outcome in [("sufficient", True), ("sufficient", False), ("a", False)]
    }


def test_check_n_rows_equal_fraction_replay_random():
    """check_n_controllability walks plants and specs on integer step tables;
    its rows equal plain Fraction replays of every string of length <= n, for
    automaton and language specs under both semantics."""
    for semantics in (Semantics.MAX_MIN, Semantics.MAX_PRODUCT):
        rng = random.Random(62)
        for _ in range(20):
            g = oracles.random_automaton(rng, semantics=semantics)
            attrs = oracles.random_attrs(rng, g.alphabet)
            for spec in (random_plant_like(rng, g), oracles.random_language(rng, g.alphabet, max_len=3)):
                n = rng.randint(0, 3)
                report = check_n_controllability(g, spec, attrs, n)
                strings = oracles.strings_up_to(g.alphabet, n)
                assert report_rows(report) == oracles.check_rows_by_replay(g, spec, attrs, strings)


def test_negative_bounds_are_parse_errors(chain, two_state):
    g, k, attrs, _ = chain
    sup = synthesize_supervisor(g, k, attrs)
    plant, spec = two_state
    for enumerate_or_build in (enumerate_states, build_computing_tree):
        with pytest.raises(ParseError, match="depth must be ≥ 0"):
            enumerate_or_build(plant, -1)
    for enumerate_or_build in (enumerate_pairs, build_pair_computing_tree):
        with pytest.raises(ParseError, match="depth must be ≥ 0"):
            enumerate_or_build(plant, spec, -1)
    with pytest.raises(ParseError, match="n must be ≥ 0"):
        check_n_controllability(g, k, attrs, -1)
    with pytest.raises(ParseError, match="n must be ≥ 0"):
        check_admissibility(sup, g, attrs, n=-1)
    with pytest.raises(ParseError, match="depth must be ≥ 0"):
        check_nonblocking(sup, g, k, attrs, depth=-1)


def test_controlled_degree_rejects_undeclared_events(two_state, attrs_two_state):
    g, h = two_state
    for sup in (synthesize_supervisor(g, h, attrs_two_state), ExplicitSupervisor(g.alphabet, {})):
        with pytest.raises(UnknownEvent):
            controlled_generated_degree(sup, g, ("a1", "zz"))


def test_graph_paths_replay_nothing(monkeypatch, two_state, attrs_two_state, chain):
    """The pair-class paths read successors off the pair walk, and the walks
    over pr(K)'s support and over strings read L_G and L_G,m from the plant
    state they carry.  A supervisor of another plant, or of an equal plant
    whose events are declared in another order, carries its own walk on its
    own tables, so it neither replays nor steps on Fractions either."""

    def replayed(*args):
        raise AssertionError("replayed a string from the initial state")

    g, h = two_state
    check_controllability(g, h, attrs_two_state)
    sups = [synthesize_supervisor(g, h, attrs_two_state), SynthesizedSupervisor(g, attrs_two_state, spec_automaton=h)]
    with monkeypatch.context() as m:
        m.setattr(fdes.automaton, "run", replayed)
        m.setattr(fdes.automaton, "generated_degree", replayed)
        for sup in sups:
            sup.rows()
            assert check_admissibility(sup, g, attrs_two_state).domain == "exact (reachable pair classes)"
    plant, k, attrs, _ = chain
    k_g = FiniteSupportFuzzyLanguage(g.alphabet, {(): ONE, ("a1",): F(1, 2)})
    with monkeypatch.context() as m:
        for name in ("run", "generated_degree", "marked_degree"):
            m.setattr(fdes.automaton, name, replayed)
        lang_sup = synthesize_supervisor(plant, k, attrs)
        assert [s for s, _ in lang_sup.rows()] == list(prefix_closure(k).support())
        check_sufficient_condition(plant, k, attrs)
        for sup, plant, lang, a in [(sups[0], g, k_g, attrs_two_state), (lang_sup, plant, k, attrs)]:
            check_language_controllability(plant, lang, a)
            check_nonblocking(sup, plant, lang, a)
            controlled_generated_degree(sup, plant, plant.alphabet * 2)
    reordered = FuzzyAutomaton(g.state_labels, dict(reversed(g.events.items())), g.initial, g.marked, g.semantics)
    g_p, h_p = (replace(a, semantics=Semantics.MAX_PRODUCT) for a in (g, h))
    foreign = [
        (synthesize_supervisor(h, h, attrs_two_state), g),
        (synthesize_supervisor(reordered, h, attrs_two_state), g),
        (SynthesizedSupervisor(g_p, attrs_two_state, spec_automaton=h_p), h_p),
        (ExplicitSupervisor(g.alphabet, {}), g),
    ]
    with monkeypatch.context() as m:
        for owner, name in [(fdes.automaton, "run"), (fdes.automaton, "generated_degree")]:
            m.setattr(owner, name, replayed)
        for sup, plant in foreign:
            assert check_admissibility(sup, plant, attrs_two_state).domain == "strings of length ≤ 6"
            check_nonblocking(sup, plant, k_g, attrs_two_state)
            controlled_generated_degree(sup, plant, plant.alphabet * 2)
            sup.enablement_degree(plant.alphabet, plant.alphabet[0])


def test_supervisor_walks_step_each_transition_once(monkeypatch, two_state, attrs_two_state):
    """A synthesized supervisor keeps the pair walk its synthesis checked:
    its rows step no table, and bounded admissibility and then nonblocking
    step its plant's and its spec's tables once per distinct (pair, σ) its
    walk meets.  One supervisor is of an equal plant with its events
    declared in another order, one of an equal plant from a language spec."""
    fresh = lambda a: FuzzyAutomaton(a.state_labels, dict(a.events), a.initial, a.marked, a.semantics)
    g, h = map(fresh, two_state)
    reordered = FuzzyAutomaton(g.state_labels, dict(reversed(g.events.items())), g.initial, g.marked, g.semantics)
    plant = fresh(g)
    k = FiniteSupportFuzzyLanguage(g.alphabet, {(): ONE, ("a1",): F(1, 2), ("a1", "a2"): F(1, 2), ("a2",): F(1, 5)})
    attrs = attrs_two_state
    steps = {}

    def counting(step):
        def spy(table, state, sigma):
            steps[id(table)] = steps.get(id(table), 0) + 1
            return step(table, state, sigma)
        return spy

    monkeypatch.setattr(fdes.automaton.StepTable, "step", counting(fdes.automaton.StepTable.step))
    monkeypatch.setattr(fdes.supervisory._LanguageTable, "step", counting(fdes.supervisory._LanguageTable.step))

    support = oracles.prefix_support(k)
    strings = oracles.strings_up_to(g.alphabet, 6) + support
    cases = [
        # every pair the checks meet is reachable, so the synthesis check met them all
        (lambda: synthesize_supervisor(reordered, h, attrs), len(oracles.pairs_oracle(reordered, h)[0])),
        # the spec state of s is s in pr(K)'s support and one absorbing state outside
        (lambda: synthesize_supervisor(plant, k, attrs),
         len({(oracles.fraction_run(plant, s), s if s in support else None) for s in strings})),
    ]
    for synthesize, pairs in cases:
        steps.clear()
        sup = synthesize()
        own = dict(steps)  # the plant and spec tables of sup's walk, the only tables synthesis steps
        assert len(own) == 2
        sup.rows()
        assert steps == own
        assert check_admissibility(sup, g, attrs).domain == "strings of length ≤ 6"
        check_nonblocking(sup, g, k, attrs)
        assert {t: steps[t] for t in own} == {t: pairs * len(g.alphabet) for t in own}


# --- round trip -----------------------------------------------------------------------


def test_round_trip_small():
    rng = random.Random(44)
    passed = failed = 0
    for _ in range(40):
        g, h = oracles.dominated_pair(rng)
        attrs = oracles.random_attrs(rng, g.alphabet)
        if oracles.assert_round_trip(g, h, attrs, depth=4, rng=rng):
            passed += 1
        else:
            failed += 1
    assert passed and failed  # both branches exercised


# --- nonblocking ------------------------------------------------------------------------


def test_nonblocking_chain(chain):
    g, k, attrs_ok, _ = chain
    sup = synthesize_supervisor(g, k, attrs_ok)
    report = check_nonblocking(sup, g, k, attrs_ok)
    assert report.nonblocking
    assert report.condition_a and report.condition_b and report.direct_ok
    assert report.depth_used == 4
    assert any("not contained" in w for w in report.warnings)
    text = report.render_text()
    assert "verdict: nonblocking" in text
    doc = report.to_dict()
    assert doc["schema_version"] == "1"
    assert doc["nonblocking"] is True


def test_blocking_chain(chain):
    g, k, _, attrs_bad = chain
    sup = synthesize_supervisor(g, k, attrs_bad)
    report = check_nonblocking(sup, g, k, attrs_bad)
    assert not report.nonblocking
    assert report.direct_witness == ("a", "b", "c")
    assert not report.condition_b
    assert report.condition_b_witness.representative == ("a", "b")
    assert "verdict: blocking" in report.render_text()


def test_nonblocking_warns_on_weak_empty_string(chain):
    g, _, attrs_ok, _ = chain
    weak = FiniteSupportFuzzyLanguage(("a", "b", "c"), {(): "0.9", ("a", "b"): "0.8"})
    sup = synthesize_supervisor(g, weak, attrs_ok)
    report = check_nonblocking(sup, g, weak, attrs_ok)
    assert any("K(eps)" in w or "K(ε)" in w for w in report.warnings)


# --- crisp specialization ---------------------------------------------------------------


def test_crisp_active_events(crisp_pair):
    _, h = crisp_pair
    assert crisp_active_events(h, ()) == {"a1", "a3"}
    assert crisp_active_events(h, ("a1",)) == {"a2"}
    assert crisp_active_events(h, ("a1", "a2")) == set()
    assert crisp_active_events(h, ("a3",)) == set()
    with pytest.raises(StringNotInLanguage):
        crisp_active_events(h, ("b1",))


def test_crisp_active_events_match_subset_propagation():
    """On random crisp automata of both semantics, the step-table walk gives
    the active events of the subset-propagation reference, and raises
    StringNotInLanguage exactly where the reference's state set empties."""
    rng = random.Random(20)
    outcomes = set()
    for semantics in Semantics:
        for _ in range(40):
            h = oracles.random_automaton(rng, semantics=semantics, palette=(ZERO, ONE))
            for s in oracles.strings_up_to(h.alphabet, 3):
                expected = oracles.crisp_active_events_reference(h, s)
                outcomes.add(expected is None)
                if expected is None:
                    with pytest.raises(StringNotInLanguage):
                        crisp_active_events(h, s)
                else:
                    assert crisp_active_events(h, s) == expected
    assert outcomes == {True, False}


def test_controlled_system_needs_the_plant_alphabet(chain):
    """A supervisor must declare the plant's events: every walk of the
    controlled system checks it, and an explicit table that enables an
    undeclared event is rejected when it is built."""
    g, k, attrs_ok, _ = chain
    sup = ExplicitSupervisor(("x", "y"), {})
    for run in (
        lambda: controlled_generated_degree(sup, g, ("a",)),
        lambda: check_admissibility(sup, g, attrs_ok, 2),
        lambda: check_nonblocking(sup, g, k, attrs_ok),
    ):
        with pytest.raises(AlphabetMismatch, match="^alphabets differ"):
            run()
    with pytest.raises(AlphabetMismatch, match=r"^supervisor row ε uses undeclared events \['a', 'zz'\]$"):
        ExplicitSupervisor(("x", "y"), {(): {"a": "0.8", "zz": "1"}})
    with pytest.raises(AlphabetMismatch, match=r"^supervisor row a uses undeclared events \['a'\]$"):
        ExplicitSupervisor(("x", "y"), {("a",): {"x": "1"}})


def test_crisp_check_agrees_with_subset_oracle(crisp_pair, attrs_crisp):
    g, h = crisp_pair
    report = check_controllability(g, h, attrs_crisp)
    uc_events = {e for e in g.alphabet if attrs_crisp.uc(e) == ONE}
    assert report.overall == oracles.crisp_pair_controllable(g, h, uc_events)


def test_crisp_agreement_random():
    rng = random.Random(45)
    verdicts = set()
    for _ in range(60):
        g, h = oracles.dominated_pair(rng, palette=(ZERO, ONE))
        uc_events = set()
        uncontrollability = {}
        for e in g.alphabet:
            hot = rng.random() < 0.5
            uncontrollability[e] = ONE if hot else ZERO
            if hot:
                uc_events.add(e)
        attrs = EventAttributes(uncontrollability)
        report = check_controllability(g, h, attrs)
        assert report.overall == oracles.crisp_pair_controllable(g, h, uc_events)
        verdicts.add(report.overall)
    assert verdicts == {True, False}
