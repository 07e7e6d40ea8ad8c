import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

import pytest

import oracles
from fdes.algebra import Semantics, as_vector, format_vector
from fdes.errors import DepthExceeded, SemanticsMismatch
from fdes.reachability import (
    DEFAULT_MAX_PRODUCT_DEPTH,
    ReachableStateGraph,
    build_computing_tree,
    build_pair_computing_tree,
    enumerate_pairs,
    enumerate_states,
    format_label,
    graph_to_dot,
    tree_to_dot,
)

F = Fraction


def v(*entries):
    return as_vector(entries)


@dataclass
class StateClassAutomaton:
    """The strings of one class C(q̃) = { s : q̃0 * s = q̃ }, read off a
    reachable-state graph."""

    graph: ReachableStateGraph
    accepting: int

    def accepts(self, s):
        return oracles.replay(self.graph, s) == self.accepting


def class_automaton(graph, target):
    if isinstance(target, list):
        target = tuple(target)
    return StateClassAutomaton(graph, oracles.index_of(graph, target))


EXPECTED_TWO_STATE = [
    ((), v("0.9", "0.1")),
    (("a1",), v("0.4", "0.8")),
    (("a2",), v("0.4", "0.2")),
    (("a1", "a1"), v("0.4", "0.4")),
    (("a1", "a2"), v("0.8", "0.5")),
    (("a1", "a2", "a2"), v("0.5", "0.5")),
    (("a1", "a2", "a2", "a1"), v("0.4", "0.5")),
]


def test_enumerate_states_two_state_plant(two_state):
    g, _ = two_state
    graph = enumerate_states(g)
    assert graph.events == ("a1", "a2")
    listing = [(graph.witness[i], node) for i, node in enumerate(graph.nodes)]
    assert listing == EXPECTED_TWO_STATE
    # the transition relation is total: one edge per node per event
    assert len(graph.edges) == len(graph.nodes) * len(graph.events)


def test_replay_and_index_of(two_state):
    g, _ = two_state
    graph = enumerate_states(g)
    for i, node in enumerate(graph.nodes):
        # witnesses drive the automaton to the node, and the edge map agrees
        assert oracles.fraction_run(g, graph.witness[i]) == node
        assert oracles.replay(graph, graph.witness[i]) == i
    assert oracles.index_of(graph, v("0.8", "0.5")) == 4
    with pytest.raises(oracles.TargetNotReachable):
        oracles.index_of(graph, v("0.1", "0.1"))


def test_enumerate_pairs_two_state(two_state):
    g, h = two_state
    graph = enumerate_pairs(g, h)
    assert len(graph.nodes) == 7
    assert graph.nodes[0] == (v("0.9", "0.1"), v("0.8", "0.2"))
    assert graph.witness[6] == ("a1", "a2", "a2", "a1")
    assert graph.nodes[6] == (v("0.4", "0.5"), v("0.2", "0.5"))


def test_enumerate_pairs_three_state(three_state):
    g, h = three_state
    graph = enumerate_pairs(g, h)
    assert len(graph.nodes) == 12
    witnesses = [graph.witness[i] for i in range(len(graph.nodes))]
    assert witnesses[0] == ()
    assert all(len(a) <= len(b) for a, b in zip(witnesses, witnesses[1:]))


def test_computing_tree_two_state(two_state):
    g, _ = two_state
    root = build_computing_tree(g)
    nodes = list(root.walk())
    assert len(nodes) == 19
    assert root.label == v("0.9", "0.1")
    assert not root.is_leaf
    leaves = Counter(format_vector(n.label) for n in nodes if n.is_leaf)
    assert leaves == Counter(
        {"[0.4 0.4]": 6, "[0.5 0.5]": 2, "[0.4 0.8]": 1, "[0.4 0.2]": 1}
    )
    # children expand in event declaration order
    assert [c.incoming_event for c in root.children] == ["a1", "a2"]


def test_tree_leaf_rule_closes_on_ancestor_repeat(two_state):
    g, _ = two_state
    root = build_computing_tree(g)

    def walk(node, ancestors):
        repeated = node.label in ancestors
        assert node.is_leaf == repeated
        if node.is_leaf:
            assert not node.children
        for child in node.children:
            walk(child, ancestors + [node.label])

    for child in root.children:
        walk(child, [root.label])


def test_tree_labels_equal_graph_nodes(two_state, three_state):
    for g in (two_state[0], three_state[0]):
        tree_labels = {n.label for n in build_computing_tree(g).walk()}
        graph = enumerate_states(g)
        assert tree_labels == set(graph.nodes)


def test_pair_tree_labels_equal_pair_graph(two_state):
    g, h = two_state
    labels = {n.label for n in build_pair_computing_tree(g, h).walk()}
    assert labels == set(enumerate_pairs(g, h).nodes)


def test_class_automaton(two_state):
    g, _ = two_state
    graph = enumerate_states(g)
    acceptor = class_automaton(graph, v("0.8", "0.5"))
    assert acceptor.accepts(("a1", "a2"))
    assert not acceptor.accepts(("a1",))
    assert not acceptor.accepts(())
    # any string driving the vector back to the class is accepted too
    assert acceptor.accepts(("a1", "a2", "a1", "a2"))
    with pytest.raises(oracles.TargetNotReachable):
        class_automaton(graph, v("0.1", "0.1"))


def test_format_label():
    assert format_label(v("0.9", "0.1")) == "[0.9 0.1]"
    assert format_label((v("0.9", "0.1"), v("0.8", "0.2"))) == "([0.9 0.1],[0.8 0.2])"


def test_dot_output(two_state):
    g, _ = two_state
    graph = enumerate_states(g)
    dot = graph_to_dot(graph)
    assert dot.startswith("digraph")
    assert dot == graph_to_dot(graph)
    assert '"[0.9 0.1]"' in dot or "[0.9 0.1]" in dot
    tree_dot = tree_to_dot(build_computing_tree(g))
    assert tree_dot.startswith("digraph")
    assert "peripheries=2" in tree_dot


# --- depth handling -------------------------------------------------------------


def test_maxprod_enumeration_overflows(maxprod_open):
    g, _ = maxprod_open
    with pytest.raises(DepthExceeded) as err:
        enumerate_states(g)
    assert err.value.depth == DEFAULT_MAX_PRODUCT_DEPTH
    assert err.value.frontier
    assert "did not close" in str(err.value)
    with pytest.raises(DepthExceeded) as err:
        enumerate_states(g, max_depth=3)
    assert err.value.depth == 3
    # the tree visits every event path, so cap the depth before building it
    with pytest.raises(DepthExceeded):
        build_computing_tree(g, max_depth=6)


def test_maxmin_capped_depth(two_state):
    g, _ = two_state
    with pytest.raises(DepthExceeded):
        enumerate_states(g, max_depth=3)
    graph = enumerate_states(g, max_depth=4)
    assert len(graph.nodes) == 7


def test_maxmin_always_closes_random():
    rng = random.Random(21)
    for _ in range(40):
        g = oracles.random_automaton(rng)
        graph = enumerate_states(g)
        pool = set(g.initial)
        for e in g.alphabet:
            pool |= {x for row in g.matrix(e) for x in row}
        for node in graph.nodes:
            assert set(node) <= pool
        for i, node in enumerate(graph.nodes):
            assert oracles.fraction_run(g, graph.witness[i]) == node
        # the tree closes on ancestor repeats only, so its size can blow up
        # combinatorially; cross-check it against the graph on small instances
        if len(graph.nodes) <= 8:
            tree_labels = {n.label for n in build_computing_tree(g).walk()}
            assert tree_labels == set(graph.nodes)


# --- step-table enumeration against plain Fraction stepping -----------------------

# tenths plus degrees with no finite decimal expansion
RANK_PALETTE = oracles.HALF_STEPS + (F(1, 3), F(2, 3), F(1, 7), F(5, 7))


def assert_graph_equals_oracle(graph, oracle):
    nodes, edges, witness, overflow = oracle
    assert not overflow
    assert graph.nodes == tuple(nodes)
    assert graph.edges == edges
    assert graph.witness == witness


def all_fractions(label):
    vectors = label if isinstance(label[0], tuple) else (label,)
    return all(type(d) is Fraction for vec in vectors for d in vec)


def test_rank_enumeration_matches_fraction_bfs_random():
    rng = random.Random(31)
    for _ in range(80):
        g, h = oracles.dominated_pair(rng, palette=RANK_PALETTE)
        states = enumerate_states(g)
        assert_graph_equals_oracle(states, oracles.states_oracle(g))
        pairs = enumerate_pairs(g, h)
        assert_graph_equals_oracle(pairs, oracles.pairs_oracle(g, h))
        assert all(all_fractions(label) for label in states.nodes + pairs.nodes)


def test_rank_enumeration_frontier_is_decoded_random():
    rng = random.Random(32)
    exceeded = 0
    for _ in range(80):
        g, h = oracles.dominated_pair(rng, palette=RANK_PALETTE)
        k = rng.randint(0, 2)
        nodes, edges, witness, overflow = oracles.pairs_oracle(g, h, max_depth=k)
        if not overflow:
            assert_graph_equals_oracle(enumerate_pairs(g, h, max_depth=k), (nodes, edges, witness, []))
            continue
        exceeded += 1
        with pytest.raises(DepthExceeded) as err:
            enumerate_pairs(g, h, max_depth=k)
        assert err.value.depth == k
        assert err.value.frontier == overflow
        assert all(all_fractions(label) for label in err.value.frontier)
    assert exceeded >= 20


def test_pairs_need_one_semantics(two_state):
    """Pair enumerations and pair trees apply the plant–spec pairing rule
    of the supervisory checks, message and all."""
    g, h = two_state
    plant = replace(g, semantics=Semantics.MAX_PRODUCT)
    for build in (enumerate_pairs, build_pair_computing_tree):
        with pytest.raises(SemanticsMismatch, match="^plant and specification must share semantics$"):
            build(plant, h)
