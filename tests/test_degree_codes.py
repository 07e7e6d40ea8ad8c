"""The supervisory walks on integer degree codes, against the replay oracles.

Under max-min the walks compare exact int codes of a finite degree set; under
max-product they run on Fractions.  These seeded cases mix denominators 3, 7
and 20, draw attributes and supervisor degrees outside the plant's degrees,
and cross the two semantics, so every codec path is compared with its plain
Fraction definition in `oracles`.
"""

import random
from fractions import Fraction

import pytest

import oracles
from fdes.algebra import ONE, ZERO, Semantics
from fdes.automaton import FuzzyAutomaton
from fdes.errors import RangeError
from fdes.supervisory import (
    ExplicitSupervisor,
    _Codec,
    check_admissibility,
    check_controllability,
    check_language_controllability,
    check_nonblocking,
    check_sufficient_condition,
    controlled_generated_degree,
    synthesize_supervisor,
)

F = Fraction

# plant and spec degrees over the denominators 3, 7 and 20 together
PLANT = (ZERO, F(1, 3), F(2, 3), F(2, 7), F(5, 7), F(3, 20), F(17, 20), ONE)
# none of them a plant degree
OUTSIDE = (F(1, 21), F(11, 20), F(4, 7), F(9, 10))
# attributes over a denominator no walk above has, so a check with them
# codes on a multiple of the lcm that the supervisor's walk codes on
ELEVENTHS = (F(1, 11), F(6, 11), F(10, 11))


def report_rows(report):
    return [(r.representative, r.event, r.prK_s, r.LG_s_sigma, r.sigma_uc, r.prK_s_sigma) for r in report.rows]


def assert_rows_consistent(report):
    for r in report.rows:
        assert r.lhs == min(r.prK_s, r.sigma_uc, r.LG_s_sigma)
        assert r.verdict == (r.lhs <= r.prK_s_sigma)
    assert report.overall == all(r.verdict for r in report.rows)


def instances(seed, count):
    """(rng, g, h, k, attrs): a marked max-min plant, a dominated spec
    automaton, a language spec with K(ε) = 1 and attributes, some of whose
    degrees lie outside the plant's."""
    rng = random.Random(seed)
    for _ in range(count):
        g, h = oracles.dominated_pair(rng, palette=PLANT)
        marked = (tuple(rng.choice(PLANT) for _ in g.initial),)
        g = FuzzyAutomaton(g.state_labels, dict(g.events), g.initial, marked, g.semantics)
        attrs = oracles.random_attrs(rng, g.alphabet, palette=OUTSIDE + PLANT)
        k = oracles.random_language(rng, g.alphabet, palette=PLANT + OUTSIDE, max_support=5)
        k = k.with_degrees({**k.degrees, (): ONE})
        yield rng, g, h, k, attrs


def assert_supervised(sup, g, k, attrs, rng):
    """Nonblocking's direct comparison, bounded admissibility and the
    controlled degree of sup on g, each against its replay oracle."""
    report = check_nonblocking(sup, g, k, attrs, depth=3)
    assert (report.direct_ok, report.direct_witness) == oracles.direct_nonblocking_by_replay(sup, g, 3)
    for a in (attrs, oracles.random_attrs(rng, g.alphabet, palette=ELEVENTHS)):
        res = check_admissibility(sup, g, a, n=2)
        assert res.domain == "strings of length ≤ 2"
        assert (res.ok, res.counterexample) == oracles.admissibility_by_replay(sup, g, a, 2)
    for s in rng.sample(oracles.strings_up_to(g.alphabet, 3), 4):
        assert controlled_generated_degree(sup, g, s) == oracles.controlled_degree_by_replay(sup, g, s)
    return report.direct_ok, res.ok


def test_codes_are_exact_and_a_degree_outside_the_set_raises():
    codec = _Codec([F(1, 3), F(2, 7), F(3, 20)])
    assert codec.scale == 420
    degrees = sorted({ZERO, ONE, F(1, 3), F(2, 7), F(3, 20)})
    codes = [codec.encode(d) for d in degrees]
    assert codes == [d * 420 for d in degrees] == sorted(codes)
    assert [codec.decode(c) for c in codes] == degrees
    with pytest.raises(RangeError):
        codec.encode(F(1, 2))  # a multiple of 1/420, yet outside the set
    with pytest.raises(RangeError):
        codec.encode(F(1, 11))
    identity, d = _Codec(None), F(1, 11)
    assert identity.encode(d) is d and identity.decode(d) is d
    # a superset's codes are the subset's scaled, and the identity decodes
    wider = _Codec([*codec.degrees, F(1, 21)])
    assert [wider.recode(codec)(c) for c in codes] == [wider.encode(d) for d in degrees]
    assert [identity.recode(codec)(c) for c in codes] == degrees


def test_automaton_spec_walks_on_mixed_denominators():
    """The exact check, the synthesized rows and exact admissibility, with
    uc values outside the plant's degree set."""
    for rng, g, h, k, attrs in instances(2301, 10):
        report = check_controllability(g, h, attrs)
        assert_rows_consistent(report)
        strings = [r.representative for r in report.rows[:: len(g.alphabet)]]
        assert report_rows(report) == oracles.check_rows_by_replay(g, h, attrs, strings)
        sup = synthesize_supervisor(g, h, attrs)
        assert sup.check_passed == report.overall
        for s, row in sup.rows():
            assert row == {e: oracles.enablement_by_replay(sup, s, e) for e in g.alphabet}
        assert check_admissibility(sup, g, attrs).ok
        other = oracles.random_attrs(rng, g.alphabet, palette=ELEVENTHS)
        exact = check_admissibility(sup, g, other)
        assert exact.domain == "exact (reachable pair classes)"
        first = oracles.admissibility_by_replay(sup, g, other, 1)
        if not first[0]:
            assert exact.counterexample == first[1]
        if exact.counterexample:
            s, e, required, provided = exact.counterexample
            assert required == min(other.uc(e), oracles.replay_generated(g, s + (e,))) > provided
            assert provided == oracles.enablement_by_replay(sup, s, e)


def test_language_spec_walks_on_mixed_denominators():
    outcomes = set()
    for rng, g, h, k, attrs in instances(2302, 10):
        report = check_language_controllability(g, k, attrs)
        assert_rows_consistent(report)
        assert report_rows(report) == oracles.check_rows_by_replay(g, k, attrs, oracles.prefix_support(k))
        assert check_sufficient_condition(g, k, attrs) == oracles.sufficient_by_replay(g, k, attrs)
        sup = synthesize_supervisor(g, k, attrs)
        assert sup.rows() == oracles.language_rows_by_replay(g, k, attrs)
        nb = check_nonblocking(sup, g, k, attrs, depth=3)
        assert nb.condition_b == report.overall
        assert nb.condition_b_witness == report.counterexample
        over, a_fail = oracles.nonblocking_conditions_by_replay(g, k)
        assert (nb.condition_a, nb.condition_a_witness) == (a_fail is None, a_fail)
        assert any("L(G,m)" in w for w in nb.warnings) == (over is not None)
        outcomes.update(assert_supervised(sup, g, k, attrs, rng))
    assert outcomes == {True, False}


def test_explicit_supervisor_degrees_outside_the_plant_set():
    outcomes = set()
    for rng, g, h, k, attrs in instances(2303, 10):
        table = {s: {e: rng.choice(OUTSIDE + PLANT) for e in g.alphabet}
                 for s in rng.sample(oracles.strings_up_to(g.alphabet, 2), 3)}
        sup = ExplicitSupervisor(g.alphabet, table, rng.choice(OUTSIDE))
        outcomes.update(assert_supervised(sup, g, k, attrs, rng))
    assert outcomes == {True, False}


def test_supervisor_of_the_reversed_order_plant():
    for rng, g, h, k, attrs in instances(2304, 10):
        reversed_g = FuzzyAutomaton(g.state_labels, dict(reversed(g.events.items())), g.initial, g.marked, g.semantics)
        for sup in (synthesize_supervisor(reversed_g, h, attrs), synthesize_supervisor(reversed_g, k, attrs)):
            assert_supervised(sup, g, k, attrs, rng)


def test_supervisors_across_semantics_fall_back_to_fractions():
    """A max-product supervisor on a max-min plant, whose enablement degrees
    are no finite set, and a max-min supervisor on a max-product plant."""
    for rng, g, h, k, attrs in instances(2305, 8):
        product = FuzzyAutomaton(g.state_labels, dict(g.events), g.initial, g.marked, Semantics.MAX_PRODUCT)
        assert_supervised(synthesize_supervisor(product, k, attrs), g, k, attrs, rng)
        assert_supervised(synthesize_supervisor(g, k, attrs), product, k, attrs, rng)
