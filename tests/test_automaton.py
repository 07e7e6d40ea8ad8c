import random
from dataclasses import replace
from fractions import Fraction

import pytest

import oracles
from fdes.algebra import ONE, ZERO, Semantics, as_vector, max_element
from fdes.automaton import (
    EPSILON,
    FuzzyAutomaton,
    generated_degree,
    marked_degree,
    parallel_compose,
    require_same_alphabet,
    run,
    string_from_text,
    string_to_text,
)
from fdes.errors import (
    AlphabetMismatch,
    DimensionError,
    NotCrisp,
    SemanticsMismatch,
    UnknownEvent,
)

F = Fraction


def test_string_text_round_trip():
    assert string_from_text("") == ()
    assert string_from_text("eps") == ()
    assert string_from_text("ε") == ()
    assert string_from_text("a1 a2  a1") == ("a1", "a2", "a1")
    assert string_to_text(()) == "ε"
    assert string_to_text(("a", "b")) == "a b"
    assert EPSILON == ()


def test_construction_validates_shapes():
    with pytest.raises(DimensionError):
        FuzzyAutomaton(("q1",), {"a": [["0.1", "0.2"], ["0.3", "0.4"]]}, ["1"], ())
    with pytest.raises(DimensionError):
        FuzzyAutomaton(("q1", "q2"), {"a": [["0.1"], ["0.3"]]}, ["1", "0"], ())
    with pytest.raises(DimensionError):
        FuzzyAutomaton(("q1", "q2"), {"a": identity2()}, ["1"], ())
    with pytest.raises(DimensionError):
        FuzzyAutomaton(("q1", "q2"), {"a": identity2()}, ["1", "0"], (("1",),))


def identity2():
    return [["1", "0"], ["0", "1"]]


def test_basic_accessors(two_state):
    g, _ = two_state
    assert g.dim == 2
    assert g.alphabet == ("a1", "a2")
    assert g.semantics is Semantics.MAX_MIN
    assert g.matrix("a1")[0][1] == F(4, 5)
    assert not g.is_crisp()
    with pytest.raises(UnknownEvent):
        g.matrix("nope")
    with pytest.raises(UnknownEvent):
        run(g, ("nope",))


def test_run_walkthrough(two_state):
    g, _ = two_state
    assert run(g, ()) == as_vector(["0.9", "0.1"])
    assert run(g, ("a1",)) == as_vector(["0.4", "0.8"])
    assert run(g, ("a1", "a2")) == as_vector(["0.8", "0.5"])
    assert run(g, ("a1", "a2", "a2")) == as_vector(["0.5", "0.5"])
    assert run(g, ("a1", "a2", "a2", "a1")) == as_vector(["0.4", "0.5"])


def test_generated_degree_walkthrough(two_state):
    g, _ = two_state
    assert generated_degree(g, ()) == F(9, 10)
    assert generated_degree(g, ("a1",)) == F(4, 5)
    assert generated_degree(g, ("a2",)) == F(2, 5)
    assert generated_degree(g, ("a1", "a2")) == F(4, 5)


def test_marked_degree_chain(chain):
    g, _, _, _ = chain
    assert marked_degree(g, ()) == ONE
    assert marked_degree(g, ("a",)) == ZERO
    assert marked_degree(g, ("a", "b")) == F(4, 5)
    assert marked_degree(g, ("a", "b", "c")) == ZERO
    # no marked states at all means degree zero everywhere
    bare = FuzzyAutomaton(g.state_labels, dict(g.events), g.initial, (), g.semantics)
    assert marked_degree(bare, ("a", "b")) == ZERO


def test_generated_degree_nonincreasing_random():
    rng = random.Random(11)
    for _ in range(60):
        g = oracles.random_automaton(rng)
        s = tuple(rng.choice(g.alphabet) for _ in range(rng.randint(1, 5)))
        degrees = [generated_degree(g, s[:i]) for i in range(len(s) + 1)]
        assert all(a >= b for a, b in zip(degrees, degrees[1:]))
        assert generated_degree(g, s) == max_element(run(g, s))


def test_run_agrees_with_stepwise_fold_random():
    rng = random.Random(12)
    for _ in range(60):
        sem = rng.choice([Semantics.MAX_MIN, Semantics.MAX_PRODUCT])
        g = oracles.random_automaton(rng, semantics=sem)
        s = tuple(rng.choice(g.alphabet) for _ in range(rng.randint(0, 5)))
        v = g.initial
        for e in s:
            v = oracles.fraction_step(g, v, e)
        assert run(g, s) == v


def test_string_degrees_match_the_fraction_replays():
    """run, generated_degree and marked_degree fold the step table; they
    must equal plain Fraction replays under both semantics."""
    rng = random.Random(13)
    for semantics in (Semantics.MAX_MIN, Semantics.MAX_PRODUCT):
        for _ in range(40):
            g = oracles.random_automaton(rng, semantics=semantics, marked=rng.random() < 0.8)
            for s in oracles.strings_up_to(g.alphabet, 3):
                assert run(g, s) == oracles.fraction_run(g, s)
                assert generated_degree(g, s) == oracles.replay_generated(g, s)
                assert marked_degree(g, s) == oracles.replay_marked(g, s)


def test_maxmin_step_accepts_degrees_the_automaton_lacks():
    """The step table steps any vector, not only one of the automaton's own
    degrees, once the vector is its initial one, exactly as the Fraction
    kernel does."""
    rng = random.Random(14)
    foreign = (F(1, 3), F(2, 7), F(0.45), F(99, 100), ZERO, ONE)
    for _ in range(60):
        g = oracles.random_automaton(rng)
        own = sorted(set(g.initial) | {x for e in g.alphabet for row in g.matrix(e) for x in row})
        for palette in (own, foreign, own + list(foreign)):
            q = tuple(rng.choice(palette) for _ in range(g.dim))
            for e in g.alphabet:
                assert run(replace(g, initial=q), (e,)) == oracles.maxmin_apply(q, g.matrix(e))
    with pytest.raises(DimensionError):
        oracles.maxmin_apply((ONE,) * (g.dim + 1), g.matrix(g.alphabet[0]))
    with pytest.raises(UnknownEvent):
        run(g, ("nope",))


# --- parallel composition ------------------------------------------------------


def test_parallel_compose_shapes_and_alphabet(compose_pair):
    g1, g2 = compose_pair
    c = parallel_compose(g1, g2)
    assert c.dim == 9
    assert c.alphabet == ("a1", "b1")
    assert c.semantics is Semantics.MAX_MIN
    assert c.state_labels[0] == "x1,y1"
    assert c.state_labels[5] == "x2,y3"


def test_parallel_compose_private_event_blocks(compose_pair):
    g1, g2 = compose_pair
    c = parallel_compose(g1, g2)
    a1 = g1.matrix("a1")
    lifted = c.matrix("a1")
    # private left event: every 3x3 block is a1[i][j] * I3
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    expected = a1[i][j] if k == l else ZERO
                    assert lifted[3 * i + k][3 * j + l] == expected


def test_parallel_compose_semantics_mismatch(compose_pair, compose_pair_maxprod):
    g1, _ = compose_pair
    _, h2 = compose_pair_maxprod
    with pytest.raises(SemanticsMismatch):
        parallel_compose(g1, h2)


def test_parallel_compose_shared_event_tensors():
    m1 = [["0.2", "0.5"], ["0.1", "0.4"]]
    m2 = [["0.3", "0"], ["0.6", "0.9"]]
    g1 = FuzzyAutomaton(("q1", "q2"), {"e": m1}, ["1", "0"], ())
    g2 = FuzzyAutomaton(("p1", "p2"), {"e": m2}, ["0", "1"], ())
    c = parallel_compose(g1, g2)
    lifted = c.matrix("e")
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    want = F(m1[i][j]) * F(m2[k][l])
                    assert lifted[2 * i + k][2 * j + l] == want


def test_crisp_parallel_reference_matches_tensor_construction(crisp_pair):
    g, h = crisp_pair
    via_tensor = parallel_compose(g, h)
    via_pairs = oracles.crisp_parallel_reference(g, h)
    assert via_pairs.alphabet == via_tensor.alphabet
    assert via_pairs.initial == via_tensor.initial
    assert via_pairs.state_labels == via_tensor.state_labels
    for e in via_tensor.alphabet:
        assert via_pairs.matrix(e) == via_tensor.matrix(e)
    assert via_pairs.marked == via_tensor.marked


def test_crisp_parallel_reference_rejects_fuzzy(two_state):
    g, h = two_state
    with pytest.raises(NotCrisp):
        oracles.crisp_parallel_reference(g, h)


def test_require_same_alphabet(two_state, chain):
    g, h = two_state
    require_same_alphabet(g, h)
    plant = chain[0]
    with pytest.raises(AlphabetMismatch):
        require_same_alphabet(g, plant)


def test_compose_random_crisp_agreement():
    """On random crisp automata the tensor construction and the pair-state
    construction are the same automaton."""
    rng = random.Random(13)
    for _ in range(30):
        g1 = oracles.random_automaton(rng, palette=(ZERO, ONE), marked=True)
        g2 = oracles.random_automaton(rng, palette=(ZERO, ONE), marked=True)
        c1 = parallel_compose(g1, g2)
        c2 = oracles.crisp_parallel_reference(g1, g2)
        assert c1.initial == c2.initial and c1.marked == c2.marked
        for e in c1.alphabet:
            assert c1.matrix(e) == c2.matrix(e)
