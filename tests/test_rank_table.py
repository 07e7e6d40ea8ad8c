"""The step table under max-min, determinized as it is walked, against the
Fraction kernel, and the steps a whole pipeline computes on it."""
import random
from collections import Counter
from fractions import Fraction as F
from functools import reduce

import pytest

import oracles
from fdes.algebra import ONE, ZERO, Semantics
from fdes.automaton import FuzzyAutomaton, StepTable
from fdes.errors import DepthExceeded, UnknownEvent
from fdes.model_io import supervisor_to_doc
from fdes.reachability import build_computing_tree, enumerate_states
from fdes.supervisory import (
    check_admissibility,
    check_controllability,
    check_language_controllability,
    check_n_controllability,
    check_nonblocking,
    synthesize_supervisor,
)


# k/p for the odd primes p up to 53: their lcm, 53#/2, exceeds 2**63
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
PRIME_DEGREES = (ZERO, ONE) + tuple(F(k, p) for p in PRIMES for k in (1, p // 2, p - 1))


def maxmin_automata(seed, count):
    """Random max-min automata of up to 4 states; one in five has a single
    state, one in five is crisp, one in five is all zero and one in five
    has degrees k/p for odd primes p, so that its numerators over D are
    large ints."""
    rng = random.Random(seed)
    for i in range(count):
        shape = ("mixed", "one-state", "crisp", "zero", "primes")[i % 5]
        if shape == "one-state":
            g = oracles.random_automaton(rng, max_states=1)
        elif shape == "crisp":
            g = oracles.random_automaton(rng, max_states=4, palette=(ZERO, ONE))
        elif shape == "zero":
            g = oracles.random_automaton(rng, max_states=4, palette=(ZERO,))
        elif shape == "primes":
            g = oracles.random_automaton(rng, max_states=4, palette=PRIME_DEGREES)
        else:
            g = oracles.random_automaton(rng, max_states=4)
        yield shape, g


def walk(table, strings):
    """string -> the table's state after it, each stepped from its parent's."""
    states = {(): table.initial}
    for s in strings[1:]:
        states[s] = table.step(states[s[:-1]], s[-1])
    return states


def memo_size(table):
    return len(table.keys), sum(q is not None for succ in table.successors.values() for q in succ)


def test_rank_table_matches_fraction_kernel_random():
    """On every string up to length 4, decode folds the Fraction kernel,
    states are equal exactly when their vectors are, and a second pass
    computes nothing new; an undeclared event raises, cold or warm."""
    shapes, scale = Counter(), 1
    for shape, g in maxmin_automata(81, 200):
        table = g.table()
        assert type(table) is StepTable
        with pytest.raises(UnknownEvent):
            table.step(table.initial, "not-an-event")
        strings = oracles.strings_up_to(g.alphabet, 4)
        states = walk(table, strings)
        vectors = {s: reduce(lambda q, e: oracles.maxmin_apply(q, g.matrix(e)), s, g.initial) for s in strings}
        for s in strings:
            assert table.decode(states[s]) == vectors[s]
            assert table.top(states[s]) == max(vectors[s])
        assert len(set(states.values())) == len(set(vectors.values())) == len(set(zip(states.values(), vectors.values())))
        before = memo_size(table)
        assert walk(table, strings) == states
        assert memo_size(table) == before
        for q in {table.initial, states[strings[-1]]}:
            with pytest.raises(UnknownEvent):
                table.step(q, "not-an-event")
        shapes[shape] += 1
        scale = max(scale, table.scale)
    assert set(shapes) == {"mixed", "one-state", "crisp", "zero", "primes"}
    assert scale > 2**63


def test_pipeline_computes_each_step_once(monkeypatch, three_state, attrs_low):
    """Checks, synthesis, the supervisor document, exact and bounded
    admissibility, the language check and synthesis, nonblocking, a computing
    tree and a BFS on one plant, and a bounded check, a BFS and a computing
    tree on a max-product pair, compute each (table, state, σ) successor
    once, however often they step it."""
    fresh = lambda a: FuzzyAutomaton(a.state_labels, dict(a.events), a.initial, a.marked, a.semantics)
    g, h = map(fresh, three_state)
    rng = random.Random(83)
    gp, hp = oracles.dominated_pair(rng, semantics=Semantics.MAX_PRODUCT)
    k = oracles.random_language(random.Random(82), g.alphabet, max_len=3)
    met, products, calls = set(), Counter(), Counter()

    def step(table, q, e, _step=StepTable.step):
        met.add((id(table), q, e))
        calls[id(table)] += 1
        return _step(table, q, e)

    def successor(table, q, e, _successor=StepTable._successor):
        products[id(table), q, e] += 1
        return _successor(table, q, e)

    monkeypatch.setattr(StepTable, "step", step)
    monkeypatch.setattr(StepTable, "_successor", successor)
    check_controllability(g, h, attrs_low)
    sup = synthesize_supervisor(g, h, attrs_low)
    supervisor_to_doc(sup)
    assert check_admissibility(sup, g, attrs_low).domain.startswith("exact")
    check_admissibility(sup, g, attrs_low, n=3)
    check_language_controllability(g, k, attrs_low)
    sup_k = synthesize_supervisor(g, k, attrs_low)
    check_nonblocking(sup_k, g, k, attrs_low)
    build_computing_tree(g)
    enumerate_states(g)
    check_n_controllability(gp, hp, oracles.random_attrs(rng, gp.alphabet), 4)
    for build in (lambda: enumerate_states(gp, 5), lambda: build_computing_tree(gp, 5)):
        try:
            build()
        except DepthExceeded:
            pass
    assert set(products) == met and set(products.values()) == {1}
    for t in (g.table(), gp.table()):
        assert calls[id(t)] > sum(1 for u, _, _ in products if u == id(t))
