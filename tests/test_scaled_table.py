"""The step table under max-product against plain Fraction stepping."""
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fdes.algebra import ONE, ZERO, Semantics
from fdes.automaton import FuzzyAutomaton, StepTable, generated_degree
from fdes.errors import DepthExceeded, UnknownEvent
from fdes.reachability import (
    build_computing_tree,
    build_pair_computing_tree,
    enumerate_pairs,
    enumerate_states,
)
from fdes.supervisory import check_n_controllability

# tenths plus degrees with no finite decimal expansion
PALETTE = oracles.HALF_STEPS + (F(1, 3), F(2, 3), F(1, 7), F(5, 7))


def maxprod_pair(rng):
    """A max-product plant and spec with degrees over 3, 7 and 10, a zero row
    in one event and, with two states or more, a zero initial entry.  In one
    instance of three that event is crisp, so that states with integer
    degrees (a scaled denominator of 1) occur."""
    g, h = oracles.dominated_pair(rng, palette=PALETTE, semantics=Semantics.MAX_PRODUCT)
    n, e, zero = g.dim, rng.choice(g.alphabet), rng.randrange(g.dim)
    crisp = tuple(tuple(rng.choice((ZERO, ONE)) for _ in range(n)) for _ in range(n))
    use_crisp = rng.random() < 1 / 3

    def variant(a):
        events = dict(a.events)
        rows = crisp if use_crisp else a.events[e]
        events[e] = tuple((ZERO,) * n if i == zero else row for i, row in enumerate(rows))
        initial = list(a.initial)
        if n > 1:
            initial[(zero + 1) % n] = ZERO
        return FuzzyAutomaton(a.state_labels, events, tuple(initial), (), a.semantics)

    return variant(g), variant(h)


def keys_up_to(table, alphabet, depth):
    """string -> the table's state for q0 * string, for every string up to depth."""
    keys = {(): table.initial}
    for s in oracles.strings_up_to(alphabet, depth)[1:]:
        keys[s] = table.step(keys[s[:-1]], s[-1])
    return keys


def is_reduced(table, key):
    nums, den = key
    k = 0
    while table.scale ** k < den:
        k += 1
    return table.scale ** k == den and (den == 1 or any(x % table.scale for x in nums))


def test_scaled_walk_matches_fraction_run_random():
    rng = random.Random(61)
    integral = zero = 0
    for _ in range(150):
        g, _ = maxprod_pair(rng)
        table = g.table()
        assert type(table) is StepTable
        for s, state in keys_up_to(table, g.alphabet, 4).items():
            q = oracles.fraction_run(g, s)
            assert table.decode(state) == q
            assert table.top(state) == max(q) == generated_degree(g, s)
            key = table.keys[state]
            assert is_reduced(table, key)
            if s and key[1] == 1:
                integral += any(key[0])
                zero += not any(key[0])
        with pytest.raises(UnknownEvent):
            table.step(table.initial, "not-an-event")
    assert integral >= 20 and zero >= 20


def test_scaled_check_n_matches_replay_random():
    rng = random.Random(62)
    for i in range(60):
        g, h = maxprod_pair(rng)
        attrs = oracles.random_attrs(rng, g.alphabet, PALETTE)
        spec = h if i % 2 else oracles.random_language(rng, g.alphabet, max_len=2, palette=PALETTE)
        n = rng.randint(0, 3)
        rows = [
            (r.representative, r.event, r.prK_s, r.LG_s_sigma, r.sigma_uc, r.prK_s_sigma)
            for r in check_n_controllability(g, spec, attrs, n).rows
        ]
        assert rows == oracles.check_rows_by_replay(g, spec, attrs, oracles.strings_up_to(g.alphabet, n))


def assert_graph_or_frontier(enumerate_, oracle, k):
    nodes, edges, witness, overflow = oracle
    if overflow:
        with pytest.raises(DepthExceeded) as err:
            enumerate_()
        assert err.value.depth == k
        assert err.value.frontier == overflow
        return False
    graph = enumerate_()
    assert graph.nodes == tuple(nodes)
    assert graph.edges == edges
    assert graph.witness == witness
    return True


def test_scaled_enumeration_matches_fraction_bfs_random():
    rng = random.Random(63)
    closed = exceeded = 0
    for _ in range(100):
        g, h = maxprod_pair(rng)
        k = rng.randint(0, 4)
        for enumerate_, oracle in (
            (lambda: enumerate_states(g, k), oracles.states_oracle(g, k)),
            (lambda: enumerate_pairs(g, h, k), oracles.pairs_oracle(g, h, k)),
        ):
            if assert_graph_or_frontier(enumerate_, oracle, k):
                closed += 1
            else:
                exceeded += 1
    assert closed >= 20 and exceeded >= 20


@pytest.mark.parametrize("semantics", [Semantics.MAX_PRODUCT, Semantics.MAX_MIN])
def test_tree_matches_fraction_tree_random(semantics):
    rng = random.Random(64)
    closed = exceeded = 0
    for _ in range(60):
        if semantics is Semantics.MAX_PRODUCT:
            g, h = maxprod_pair(rng)
        else:
            g, h = oracles.dominated_pair(rng, max_states=2, max_events=2, palette=PALETTE)
        k = rng.randint(0, 4)
        for build, root, step in (
            (lambda: build_computing_tree(g, k), g.initial, lambda q, e: oracles.fraction_step(g, q, e)),
            (lambda: build_pair_computing_tree(g, h, k), (g.initial, h.initial), oracles.pair_step(g, h)),
        ):
            nodes, overflow = oracles.tree_oracle(root, g.alphabet, step, k)
            if overflow:
                exceeded += 1
                with pytest.raises(DepthExceeded) as err:
                    build()
                assert err.value.frontier == overflow
                continue
            closed += 1
            assert [(n.label, n.incoming_event, n.is_leaf) for n in build().walk()] == nodes
    assert closed >= 10 and exceeded >= 10


@st.composite
def maxprod_automata(draw):
    n = draw(st.integers(1, 3))
    events = draw(st.integers(1, 2))
    degree = st.sampled_from((ZERO, ONE, F(1, 2), F(1, 3), F(2, 3), F(1, 7), F(3, 10)))
    matrix = st.lists(st.lists(degree, min_size=n, max_size=n).map(tuple), min_size=n, max_size=n).map(tuple)
    return FuzzyAutomaton(
        tuple(f"q{i}" for i in range(n)),
        {f"e{j}": draw(matrix) for j in range(events)},
        tuple(draw(st.lists(degree, min_size=n, max_size=n))),
        (),
        Semantics.MAX_PRODUCT,
    )


@settings(max_examples=150, deadline=None)
@given(maxprod_automata(), st.integers(0, 3))
def test_scaled_keys_equal_exactly_when_vectors_equal(g, extra):
    table = g.table()
    states = set(keys_up_to(table, g.alphabet, 3).values())
    decoded = {state: table.decode(state) for state in states}
    # distinct reduced keys stand for distinct vectors
    assert len(set(decoded.values())) == len(states)
    for state in states:
        # the same vector over a higher power of D reduces to the same key
        nums, den = table.keys[state]
        scaled_up = tuple(x * table.scale ** extra for x in nums), den * table.scale ** extra
        assert table._reduce(*scaled_up) == (nums, den)


def test_maxprod_walks_do_no_fraction_products(monkeypatch, maxprod_open):
    g, attrs = maxprod_open
    pair = oracles.dominated_pair(random.Random(65), palette=PALETTE, semantics=Semantics.MAX_PRODUCT)
    products = []

    def spy(name):
        def refuse(*args):
            products.append(name)
            raise AssertionError(f"{name} called")

        return refuse

    monkeypatch.setattr(F, "__mul__", spy("Fraction.__mul__"))
    monkeypatch.setattr(F, "__rmul__", spy("Fraction.__rmul__"))
    assert len(check_n_controllability(g, g, attrs, 6).rows) == 2 * (2**7 - 1)
    for build in (
        lambda: enumerate_states(g, 5),
        lambda: build_computing_tree(g, 5),
        lambda: enumerate_pairs(*pair, 4),
        lambda: build_pair_computing_tree(*pair, 3),
    ):
        try:
            build()
        except DepthExceeded:
            pass
    assert products == []
