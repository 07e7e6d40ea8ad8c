import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fdes import language
from fdes.algebra import ONE, ZERO
from fdes.automaton import generated_degree
from fdes.errors import AlphabetMismatch, KNotContainedInM, MNotPrefixClosed
from fdes.language import (
    ControllabilityWitness,
    FiniteSupportFuzzyLanguage,
    fuzzy_and,
    fuzzy_or,
    infimal_prefix_closed_superlanguage,
    is_controllable_wrt,
    is_prefix_closed,
    is_sublanguage,
    prefix_closure,
    supremal_controllable_sublanguage,
    value_lattice,
    zero_language,
)

F = Fraction
AB = ("a", "b")


def lang(degrees, alphabet=AB):
    return FiniteSupportFuzzyLanguage(alphabet, degrees)


# --- container behaviour -------------------------------------------------------


def test_language_prunes_zeros_and_freezes():
    l = lang({(): "1", ("a",): "0", ("a", "b"): "0.8"})
    assert l(()) == ONE
    assert l(("a",)) == ZERO
    assert ("a",) not in l.degrees
    assert l.support() == ((), ("a", "b"))
    assert l == lang({("a", "b"): F(4, 5), (): 1})
    assert hash(l) == hash(lang({("a", "b"): "0.8", (): "1"}))


def test_language_rejects_undeclared_events():
    with pytest.raises(AlphabetMismatch):
        lang({("c",): "0.5"})


def test_zero_language():
    z = zero_language(AB)
    assert z.support() == ()
    assert z(()) == ZERO


def test_support_combines_length_then_lexicographic():
    l = lang({("b",): "0.1", ("a", "a"): "0.2", ("a",): "0.3", (): "0.4"})
    assert l.support() == ((), ("a",), ("b",), ("a", "a"))


# --- prefix closure --------------------------------------------------------------


def test_prefix_closure_example():
    k = lang({(): "1", ("a", "b"): "0.8"})
    pk = prefix_closure(k)
    assert pk(()) == ONE
    assert pk(("a",)) == F(4, 5)
    assert pk(("a", "b")) == F(4, 5)
    assert pk(("b",)) == ZERO
    assert is_prefix_closed(pk)
    assert not is_prefix_closed(k)


@st.composite
def languages(draw):
    strings = st.lists(st.sampled_from(AB), max_size=3).map(tuple)
    degrees = st.fractions(min_value=0, max_value=1, max_denominator=8)
    return FiniteSupportFuzzyLanguage(AB, draw(st.dictionaries(strings, degrees, max_size=8)))


@given(languages())
def test_prefix_closure_inflationary_idempotent(l):
    pl = prefix_closure(l)
    assert is_sublanguage(l, pl)
    assert prefix_closure(pl) == pl
    assert is_prefix_closed(pl)


@given(languages(), languages())
def test_prefix_closure_distributes_over_union(k1, k2):
    assert prefix_closure(fuzzy_or(k1, k2)) == fuzzy_or(prefix_closure(k1), prefix_closure(k2))
    # intersection only sub-distributes
    lhs = prefix_closure(fuzzy_and(k1, k2))
    rhs = fuzzy_and(prefix_closure(k1), prefix_closure(k2))
    assert is_sublanguage(lhs, rhs)


@given(languages(), languages())
def test_pointwise_operators(k1, k2):
    both = fuzzy_and(k1, k2)
    either = fuzzy_or(k1, k2)
    for s in set(k1.degrees) | set(k2.degrees):
        assert both(s) == min(k1(s), k2(s))
        assert either(s) == max(k1(s), k2(s))
    assert is_sublanguage(both, k1) and is_sublanguage(k1, either)


def test_pointwise_operators_need_shared_alphabet():
    with pytest.raises(AlphabetMismatch):
        fuzzy_and(lang({(): "1"}), lang({(): "1"}, alphabet=("a", "c")))


def test_generated_language_closure_containment():
    """A language below an automaton's generated language stays below it
    after prefix closure (the generated language is prefix-nonincreasing)."""
    rng = random.Random(31)
    for _ in range(40):
        g = oracles.random_automaton(rng)
        strings = [()]
        for _ in range(6):
            s = tuple(rng.choice(g.alphabet) for _ in range(rng.randint(1, 3)))
            strings.append(s)
        degrees = {s: min(F(rng.randint(0, 10), 10), generated_degree(g, s)) for s in strings}
        k = FiniteSupportFuzzyLanguage(g.alphabet, degrees)
        pk = prefix_closure(k)
        for t in pk.support():
            assert pk(t) <= generated_degree(g, t)


# --- controllability --------------------------------------------------------------


def test_controllability_witness(lattice_case):
    k, m, attrs = lattice_case
    ok, witness = is_controllable_wrt(k, m, attrs)
    assert not ok
    assert witness == ControllabilityWitness((), "a", F(3, 5), F(3, 10))


def test_bounding_language_is_self_controllable(lattice_case):
    _, m, attrs = lattice_case
    ok, witness = is_controllable_wrt(m, m, attrs)
    assert ok and witness is None


def test_controllability_requires_prefix_closed_m(lattice_case):
    k, _, attrs = lattice_case
    open_m = lang({("a", "b"): "0.9"})
    with pytest.raises(MNotPrefixClosed):
        is_controllable_wrt(k, open_m, attrs)
    with pytest.raises(MNotPrefixClosed):
        supremal_controllable_sublanguage(k, open_m, attrs)
    with pytest.raises(MNotPrefixClosed):
        infimal_prefix_closed_superlanguage(k, open_m, attrs)


# --- closure operators --------------------------------------------------------------


def test_supremal_collapses_to_zero(lattice_case):
    k, m, attrs = lattice_case
    assert supremal_controllable_sublanguage(k, m, attrs) == zero_language(AB)


def test_infimal_raises_to_uncontrollable_floor(lattice_case):
    k, m, attrs = lattice_case
    inf = infimal_prefix_closed_superlanguage(k, m, attrs)
    assert inf == lang(
        {(): ONE, ("a",): F(3, 5), ("b",): F(2, 5), ("a", "a"): F(3, 5), ("a", "b"): F(2, 5)}
    )


def test_closures_fix_their_outputs(lattice_case):
    k, m, attrs = lattice_case
    sup = supremal_controllable_sublanguage
    inf = infimal_prefix_closed_superlanguage
    c = sup(k, m, attrs)
    u = inf(k, m, attrs)
    assert sup(c, m, attrs) == c
    assert inf(u, m, attrs) == u
    # the bounding language is its own closure in both directions
    assert sup(m, m, attrs) == m
    assert inf(m, m, attrs) == m


def test_infimal_requires_containment(lattice_case):
    _, m, attrs = lattice_case
    big = lang({(): "1", ("a",): "0.9"})
    with pytest.raises(KNotContainedInM):
        infimal_prefix_closed_superlanguage(big, m, attrs)


def test_value_lattice(lattice_case):
    k, m, attrs = lattice_case
    values = value_lattice(k, m, attrs)
    assert values[0] == ZERO and values[-1] == ONE
    for v in list(k.degrees.values()) + list(m.degrees.values()):
        assert v in values


def test_closure_laws_random():
    rng = random.Random(32)
    for _ in range(60):
        m = prefix_closure(oracles.random_language(rng, AB))
        k1 = fuzzy_and(oracles.random_language(rng, AB), m)
        k2 = fuzzy_and(oracles.random_language(rng, AB), m)
        attrs = oracles.random_attrs(rng, AB, palette=oracles.SMALL_LATTICE)
        oracles.assert_closure_laws(k1, k2, m, attrs)


def test_closures_match_brute_force_small():
    rng = random.Random(33)
    done = 0
    while done < 12:
        m = prefix_closure(oracles.random_language(rng, AB, max_support=4))
        if len(m.support()) > 5:
            continue
        k = fuzzy_and(oracles.random_language(rng, AB, max_support=4), m)
        attrs = oracles.random_attrs(rng, AB, palette=oracles.SMALL_LATTICE)
        oracles.assert_closures_match_brute_force(k, m, attrs, value_lattice(k, m, attrs))
        done += 1


# --- the one-pass closures against the iterated ones ---------------------------------

ABC = ("a", "b", "c")


def random_closure_case(rng, max_len):
    """(k, m, uc) over one to three events: m prefix-closed, k not always
    inside m, and uc a plain mapping that may leave events out."""
    alphabet = ABC[: rng.randint(1, 3)]
    palette = rng.choice([oracles.SMALL_LATTICE, oracles.HALF_STEPS])
    m = prefix_closure(oracles.random_language(rng, alphabet, max_len=max_len, palette=palette))
    k = oracles.random_language(
        rng, alphabet, max_len=rng.randint(0, max_len), palette=palette, max_support=rng.choice([None, 3, 10])
    )
    uc = {e: rng.choice(palette) for e in alphabet if rng.random() < 0.8}
    return k, m, uc


def test_closures_match_iterated_random():
    rng = random.Random(34)
    for _ in range(300):
        k, m, uc = random_closure_case(rng, rng.randint(0, 4))
        assert supremal_controllable_sublanguage(k, m, uc) == oracles.iterated_supremal(k, m, uc)
        k = fuzzy_and(k, m)
        assert infimal_prefix_closed_superlanguage(k, m, uc) == oracles.iterated_infimal(k, m, uc)


@st.composite
def closure_cases(draw):
    """Supports up to length 5 over three events, and up to 120 strings."""
    strings = st.lists(st.sampled_from(ABC), max_size=5).map(tuple)
    degrees = st.sampled_from(oracles.HALF_STEPS)
    m = prefix_closure(FiniteSupportFuzzyLanguage(ABC, draw(st.dictionaries(strings, degrees, max_size=120))))
    k = FiniteSupportFuzzyLanguage(ABC, draw(st.dictionaries(strings, degrees, max_size=60)))
    uc = draw(st.dictionaries(st.sampled_from(ABC), degrees))
    return k, m, uc


@settings(max_examples=60, deadline=None)
@given(closure_cases())
def test_closures_match_iterated_property(case):
    k, m, uc = case
    sup = supremal_controllable_sublanguage(k, m, uc)
    assert sup == oracles.iterated_supremal(k, m, uc)
    assert is_sublanguage(sup, k) and oracles.controllable(sup, m, uc)
    k = fuzzy_and(k, m)
    inf = infimal_prefix_closed_superlanguage(k, m, uc)
    assert inf == oracles.iterated_infimal(k, m, uc)
    assert is_prefix_closed(inf) and is_sublanguage(k, inf) and is_sublanguage(inf, m)
    assert oracles.controllable(inf, m, uc)


def full_depth_case(depth):
    """m holds every string up to `depth` over three events, and k is m
    with about a third of its strings lowered, so that both closures
    repair or raise all over the support."""
    rng = random.Random(35)
    m = prefix_closure(oracles.random_language(rng, ABC, max_len=depth, palette=oracles.HALF_STEPS[1:]))
    lowered = {s: min(d, rng.choice(oracles.HALF_STEPS[:8])) for s, d in m.degrees.items() if rng.random() >= 0.7}
    k = m.with_degrees({**m.degrees, **lowered})
    return k, m, {"a": F(9, 10), "b": F(3, 10), "c": ZERO}


def count_calls(monkeypatch, closure, case):
    """How often closure(*case) calls prefix_closure and with_degrees."""
    calls = {"prefix_closure": 0, "with_degrees": 0}
    prefix_closure_, with_degrees = language.prefix_closure, FiniteSupportFuzzyLanguage.with_degrees

    def counted_prefix_closure(l):
        calls["prefix_closure"] += 1
        return prefix_closure_(l)

    def counted_with_degrees(self, degrees):
        calls["with_degrees"] += 1
        return with_degrees(self, degrees)

    with monkeypatch.context() as patch:
        patch.setattr(language, "prefix_closure", counted_prefix_closure)
        patch.setattr(FiniteSupportFuzzyLanguage, "with_degrees", counted_with_degrees)
        closure(*case)
    return calls


@pytest.mark.parametrize("closure, iterated", [
    (supremal_controllable_sublanguage, oracles.iterated_supremal),
    (infimal_prefix_closed_superlanguage, oracles.iterated_infimal),
])
def test_closures_do_not_rescan(monkeypatch, closure, iterated):
    """Neither closure rebuilds a language per repair or raise: it makes as
    many prefix_closure / with_degrees calls on a 364-string M as on a
    13-string one, where the iterated closure makes many more."""
    small, large = full_depth_case(2), full_depth_case(5)
    assert count_calls(monkeypatch, closure, small) == count_calls(monkeypatch, closure, large)
    rescans = count_calls(monkeypatch, iterated, small), count_calls(monkeypatch, iterated, large)
    assert rescans[1]["with_degrees"] > 5 * rescans[0]["with_degrees"]
