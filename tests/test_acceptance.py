"""One test per acceptance criterion, numbered test_c01 … test_c12.

The conftest hook turns these outcomes into the PASS/FAIL scoreboard printed
at the end of every run.  Three tests (c01, c02, c06) check a recorded
reference table with its errata applied: the printed table is kept verbatim
as a PRINTED_* constant, and a small errata map records each printed entry
that plain max-min or max-product arithmetic shows to be a slip, as
``entry -> (printed, reckoned)`` with its hand reckoning beside it.
"""
import random
import shutil
import subprocess
import sys

import pytest

import oracles
from conftest import MODELS
from fdes import reachability as reach
from fdes.algebra import ONE, ZERO, format_vector, parse_degree
from fdes.automaton import parallel_compose, run
from fdes.errors import DepthExceeded
from fdes.supervisory import (
    check_controllability,
    check_n_controllability,
    check_nonblocking,
    crisp_active_events,
    synthesize_supervisor,
)


def deg(text):
    return parse_degree(text)


def vec(text):
    return tuple(deg(x) for x in text.split())


def mat(*rows):
    return tuple(vec(r) for r in rows)


def cli(*args):
    exe = shutil.which("fdes")
    cmd = [exe] if exe else [sys.executable, "-m", "fdes.cli"]
    cmd += [str(MODELS / a) if str(a).endswith(".json") else str(a) for a in args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)  # a hang fails, not stalls


def apply_errata(printed, errata):
    """The printed table (a dict) with each erratum ``key -> (printed,
    reckoned)`` applied; ``None`` on either side means the entry is absent
    there.  An erratum that no longer matches the printed table, or that
    changes nothing, fails."""
    table = dict(printed)
    for key, (was, now) in errata.items():
        assert was != now, f"erratum {key} changes nothing"
        assert table.get(key) == was, f"erratum {key} does not match the printed table"
        if now is None:
            del table[key]
        else:
            table[key] = now
    return table


# --- c01 / c02: two-state reference listings ---------------------------------

PRINTED_STATES_TWO_STATE = {
    vec("0.9 0.1"),
    vec("0.4 0.8"),
    vec("0.4 0.2"),
    vec("0.4 0.4"),
    vec("0.8 0.5"),
    vec("0.5 0.5"),
}

# state -> (printed, reckoned); None: not listed
STATE_ERRATA_TWO_STATE = {
    # a1 a2 a2 a1: [.5 .5]∘a1 = [max(min(.5,.4),min(.5,.2)), max(min(.5,.8),min(.5,.2))]; closes at 7
    vec("0.4 0.5"): (None, vec("0.4 0.5")),
}

PRINTED_PAIRS_TWO_STATE = {
    (): (vec("0.9 0.1"), vec("0.8 0.2")),
    ("a1",): (vec("0.4 0.8"), vec("0.2 0.8")),
    ("a2",): (vec("0.4 0.2"), vec("0.2 0.2")),
    ("a1", "a1"): (vec("0.4 0.4"), vec("0.2 0.2")),
    ("a1", "a2"): (vec("0.8 0.5"), vec("0.8 0.5")),
    ("a1", "a2", "a2"): (vec("0.5 0.5"), vec("0.5 0.5")),
    ("a1", "a2", "a2", "a1"): (vec("0.4 0.4"), vec("0.5 0.5")),
    ("a1", "a2", "a2", "a1", "a2"): (vec("0.4 0.4"), vec("0.5 0.5")),
}

# witness string -> (printed pair, reckoned pair); None: not listed
PAIR_ERRATA_TWO_STATE = {
    # spec [.5 .5]∘a1 = [max(min(.5,.2),min(.5,.2)), max(min(.5,.8),min(.5,.2))] = [.2 .5]; plant: c01
    ("a1", "a2", "a2", "a1"): (
        (vec("0.4 0.4"), vec("0.5 0.5")),
        (vec("0.4 0.5"), vec("0.2 0.5")),
    ),
    # ([.4 .5]∘a2, [.2 .5]∘a2) = ([.5 .5], [.5 .5]), the pair of row a1 a2 a2: listed once
    ("a1", "a2", "a2", "a1", "a2"): ((vec("0.4 0.4"), vec("0.5 0.5")), None),
}


def test_c01_reachable_state_listing_matches_reference(two_state):
    """The two-state plant's reachable set equals the recorded six-state
    reference table with its errata applied: the table omits the seventh
    state [0.4 0.5], reached by a1 a2 a2 a1."""
    g, _ = two_state
    printed = {v: v for v in PRINTED_STATES_TWO_STATE}
    reference = set(apply_errata(printed, STATE_ERRATA_TWO_STATE).values())
    graph = reach.enumerate_states(g)
    assert set(graph.nodes) == reference, (
        "reachable set differs from the corrected reference table: "
        f"extra {[format_vector(v) for v in set(graph.nodes) - reference]}, "
        f"missing {[format_vector(v) for v in reference - set(graph.nodes)]}"
    )
    assert len(graph.nodes) == 7


def test_c02_pair_listing_matches_reference(two_state):
    """The synchronized pair enumeration equals the recorded eight-row
    reference table with its errata applied, witness strings included: the
    row at a1 a2 a2 a1 changes, and the row at a1 a2 a2 a1 a2 goes, since its
    pair is already listed under a shorter witness."""
    g, h = two_state
    reference = apply_errata(PRINTED_PAIRS_TWO_STATE, PAIR_ERRATA_TWO_STATE)
    graph = reach.enumerate_pairs(g, h)
    listing = {graph.witness[i]: node for i, node in enumerate(graph.nodes)}
    assert listing == reference
    for s, (_, now) in PAIR_ERRATA_TWO_STATE.items():
        if now is None:
            assert graph.witness[oracles.replay(graph, s)] != s


# --- c03: first failing row of the two-state check ----------------------------


def test_c03_first_failure_row(two_state, attrs_two_state):
    """With uc(a1)=0.7 and uc(a2)=0.2 the check fails first at s=a1, event a1,
    with row values (0.8, 0.4, 0.7, 0.4, 0.2) exactly."""
    g, h = two_state
    rep = check_controllability(g, h, attrs_two_state)
    assert not rep.overall
    first_f = next(r for r in rep.rows if not r.verdict)
    assert first_f == rep.counterexample
    assert (first_f.representative, first_f.event) == (("a1",), "a1")
    observed = (
        first_f.prK_s,
        first_f.LG_s_sigma,
        first_f.sigma_uc,
        first_f.lhs,
        first_f.prK_s_sigma,
    )
    assert observed == (deg("0.8"), deg("0.4"), deg("0.7"), deg("0.4"), deg("0.2"))


# --- c04: three-state pair enumeration ----------------------------------------

REFERENCE_PAIRS_THREE_STATE = {
    (vec("0.9 0.1 0"), vec("0.9 0.1 0")),
    (vec("0.4 0.9 0.4"), vec("0.4 0.9 0.4")),
    (vec("0.4 0.4 0.4"), vec("0.4 0.4 0.4")),
    (vec("0.4 0.4 0.9"), vec("0.4 0.4 0.9")),
    (vec("0.4 0.1 0"), vec("0.2 0.1 0")),
    (vec("0.4 0.4 0.4"), vec("0.2 0.2 0.2")),
    (vec("0.9 0.4 0.4"), vec("0.9 0.2 0.2")),
    (vec("0.4 0.4 0.4"), vec("0.4 0.2 0.2")),
    (vec("0.4 0.9 0.4"), vec("0.2 0.9 0.2")),
    (vec("0.4 0.4 0.4"), vec("0.2 0.4 0.4")),
    (vec("0.4 0.4 0.9"), vec("0.2 0.4 0.9")),
    (vec("0.4 0.4 0.4"), vec("0.2 0.4 0.2")),
}


def test_c04_twelve_reachable_pairs(three_state):
    """The three-state plant/spec pair reaches exactly the twelve recorded
    state pairs."""
    g, h = three_state
    graph = reach.enumerate_pairs(g, h)
    assert len(graph.nodes) == 12
    assert set(graph.nodes) == REFERENCE_PAIRS_THREE_STATE


# --- c05: verdicts for the two attribute sets ----------------------------------


def test_c05_verdicts_for_both_attribute_sets(three_state, attrs_mixed, attrs_low):
    """With the mixed attributes (0.8, 0.75, 0.7, 0.2, 0.25, 0.3) the check
    fails at the empty string on exactly b2 and b3; with every event at 0.2 it
    passes, and the command-line check exits 0."""
    g, h = three_state
    rep = check_controllability(g, h, attrs_mixed)
    assert not rep.overall
    assert rep.counterexample.representative == ()
    eps_failures = {r.event for r in rep.rows if not r.verdict and r.representative == ()}
    assert eps_failures == {"b2", "b3"}

    assert check_controllability(g, h, attrs_low).overall
    res = cli(
        "check",
        "maxmin_plant_3state.json",
        "maxmin_spec_3state.json",
        "--attrs",
        "attrs_3state_low.json",
    )
    assert res.returncode == 0


# --- c06: composition walkthrough ----------------------------------------------

REFERENCE_TENSOR = vec("0.02 0.06 0.01 0.1 0.3 0.05 0.06 0.18 0.03")

REFERENCE_BLOCK = mat(
    "0.1 0   0   0.2 0   0   0   0   0",
    "0   0.1 0   0   0.2 0   0   0   0",
    "0   0   0.1 0   0   0.2 0   0   0",
    "0.4 0   0   0   0   0   0.7 0   0",
    "0   0.4 0   0   0   0   0   0.7 0",
    "0   0   0.4 0   0   0   0   0   0.7",
    "0.6 0   0   0.8 0   0   0   0   0",
    "0   0.6 0   0   0.8 0   0   0   0",
    "0   0   0.6 0   0   0.8 0   0   0",
)

REFERENCE_MAXMIN_STEP = vec("0.1 0.3 0.05 0.06 0.18 0.03 0.1 0.3 0.05")
PRINTED_MAXPROD_STEP = vec("0.036 0.12 0.18 0.48 0.144 0.24 0.07 0.21 0.35")

# 1-based entry -> (printed, reckoned).  a1 is private, so the step is
# ([0.1 0.5 0.3]∘a1) ⊗ [0.2 0.6 0.1] = [0.2 0.24 0.35] ⊗ [0.2 0.6 0.1], and no
# entry can exceed the initial vector's largest entry 0.3
MAXPROD_STEP_ERRATA = {
    # max(.02·.1, .1·.4, .06·.6) = .04; the printed .036 is the smaller term
    1: (deg("0.036"), deg("0.04")),
    # max(.01·.1, .05·.4, .03·.6) = .02; the printed .18 is ten times the smaller .018
    3: (deg("0.18"), deg("0.02")),
    # max(.02·.2, .06·.8) = .048; the printed .48 is ten times it
    4: (deg("0.48"), deg("0.048")),
    # max(.01·.2, .03·.8) = .024; the printed .24 is ten times it
    6: (deg("0.24"), deg("0.024")),
    # .05·.7 = .035; the printed .35 is ten times it
    9: (deg("0.35"), deg("0.035")),
}


def test_c06_composition_walkthrough(compose_pair, compose_pair_maxprod):
    """Composing the two three-state machines yields the recorded tensor
    initial vector and lifted block matrix for the private event a1, and
    stepping the composed state matches the recorded vectors under both
    semantics.  The max-product step is checked against the recorded
    reference table with its errata applied: five printed entries are slips."""
    gc = parallel_compose(*compose_pair)
    assert gc.initial == REFERENCE_TENSOR
    assert gc.matrix("a1") == REFERENCE_BLOCK
    assert run(gc, ("a1",)) == REFERENCE_MAXMIN_STEP

    gp = parallel_compose(*compose_pair_maxprod)
    assert gp.initial == REFERENCE_TENSOR
    assert gp.matrix("a1") == REFERENCE_BLOCK
    reference = tuple(
        apply_errata(dict(enumerate(PRINTED_MAXPROD_STEP, 1)), MAXPROD_STEP_ERRATA).values()
    )
    stepped = run(gp, ("a1",))
    assert stepped == reference, (
        "max-product step differs from the corrected reference vector: "
        f"computed {format_vector(stepped)}, "
        f"reference {format_vector(reference)}"
    )


# --- c07: chain synthesis, nonblocking and blocking verdicts --------------------


def test_c07_chain_synthesis_and_blocking(chain):
    """Synthesis on the chain plant enables a at 0.8 after the empty string and
    b at 0.8 after a, and nothing else; the loop is nonblocking when c is fully
    controllable and blocking with witness a b c when uc(c)=0.3."""
    g, k, attrs_ok, attrs_bad = chain
    sup = synthesize_supervisor(g, k, attrs_ok)
    assert sup.check_passed
    assert sup.enablement_degree((), "a") == deg("0.8")
    assert sup.enablement_degree(("a",), "b") == deg("0.8")
    nonzero = {
        (s, e): d for s, row in sup.rows() for e, d in row.items() if d != ZERO
    }
    assert nonzero == {((), "a"): deg("0.8"), (("a",), "b"): deg("0.8")}

    rep = check_nonblocking(sup, g, k, attrs_ok)
    assert rep.nonblocking

    sup_bad = synthesize_supervisor(g, k, attrs_bad)
    rep_bad = check_nonblocking(sup_bad, g, k, attrs_bad)
    assert not rep_bad.nonblocking
    assert rep_bad.direct_witness == ("a", "b", "c")


# --- c08: crisp active-event supervisor and oracle agreement --------------------


def test_c08_crisp_supervisor_and_oracle(crisp_pair, attrs_crisp):
    """On the crisp three-state pair the active-event supervisor returns
    {a1,a3} / {a2} / {} / {}, and the set-based controllability oracle agrees
    with the fuzzy check run on the same 0/1 degrees."""
    g, h = crisp_pair
    assert crisp_active_events(h, ()) == {"a1", "a3"}
    assert crisp_active_events(h, ("a1",)) == {"a2"}
    assert crisp_active_events(h, ("a1", "a2")) == set()
    assert crisp_active_events(h, ("a3",)) == set()

    rep = check_controllability(g, h, attrs_crisp)
    uc_events = {e for e in g.alphabet if attrs_crisp.uc(e) == ONE}
    assert rep.overall == oracles.crisp_pair_controllable(g, h, uc_events)


# --- c09: synthesis round-trip property -----------------------------------------


def test_c09_round_trip_property():
    """200 random dominated plant/spec pairs: when the check passes, the
    synthesized supervisor's controlled language equals pr(K) on every string
    to depth 6; when it fails, the counterexample row is reproducible from the
    raw step functions."""
    rng = random.Random(901)
    outcomes = {True: 0, False: 0}
    for _ in range(200):
        g, h = oracles.dominated_pair(rng, max_states=3, max_events=3)
        attrs = oracles.random_attrs(rng, g.alphabet)
        outcomes[oracles.assert_round_trip(g, h, attrs, depth=6, rng=rng)] += 1
    assert outcomes[True] and outcomes[False]


# --- c10: lattice property suite -------------------------------------------------


def test_c10_lattice_property_suite():
    """All documented closure-operator laws over 500 random finite-support
    instances, plus exact agreement with the brute-force lattice search on 50
    tiny instances (support depth <= 2, at most 4 distinct values)."""
    rng = random.Random(1001)
    for _ in range(500):
        alphabet = ("a", "b")[: rng.randint(1, 2)]
        m = oracles.prefix_closure(
            oracles.random_language(rng, alphabet, max_len=3, palette=oracles.HALF_STEPS)
        )
        k1 = oracles.fuzzy_and(
            oracles.random_language(rng, alphabet, max_len=3, palette=oracles.HALF_STEPS), m
        )
        k2 = oracles.fuzzy_and(
            oracles.random_language(rng, alphabet, max_len=3, palette=oracles.HALF_STEPS), m
        )
        attrs = oracles.random_attrs(rng, alphabet)
        oracles.assert_closure_laws(k1, k2, m, attrs)

    rng = random.Random(1002)
    for _ in range(50):
        alphabet = ("a", "b")[: rng.randint(1, 2)]
        m = oracles.prefix_closure(
            oracles.random_language(
                rng, alphabet, max_len=2, palette=oracles.SMALL_LATTICE, max_support=5
            )
        )
        k = oracles.fuzzy_and(
            oracles.random_language(rng, alphabet, max_len=2, palette=oracles.SMALL_LATTICE), m
        )
        attrs = oracles.random_attrs(rng, alphabet, palette=oracles.SMALL_LATTICE)
        vals = oracles.value_lattice(k, m, attrs)
        assert len(vals) <= 4
        oracles.assert_closures_match_brute_force(k, m, attrs, vals)


# --- c11: tree/BFS agreement, witness soundness, value containment ---------------


def test_c11_tree_bfs_agreement():
    """200 random max-min automata: the computing tree's label set equals the
    breadth-first reachable set, every witness string replays to its node, and
    every reachable entry already occurs in the initial vector or a matrix."""
    rng = random.Random(1103)
    palette = vec("0 2/5 7/10 1")
    for _ in range(200):
        g = oracles.random_automaton(rng, max_states=3, max_events=3, palette=palette)
        graph = reach.enumerate_states(g)
        pool = set(g.initial)
        for e in g.alphabet:
            pool |= {x for row in g.matrix(e) for x in row}
        for i, node in enumerate(graph.nodes):
            assert set(node) <= pool
            assert oracles.fraction_run(g, graph.witness[i]) == node
            assert oracles.replay(graph, graph.witness[i]) == i
        tree_labels = {n.label for n in reach.build_computing_tree(g).walk()}
        assert tree_labels == set(graph.nodes)


# --- c12: max-product guardrail ----------------------------------------------------


def test_c12_max_product_guardrail(maxprod_open):
    """A max-product machine whose reachable set never closes raises
    DepthExceeded at the default depth 32, while the bounded check still
    completes for n <= 4 with exactly (sum of |alphabet|^i for i<=n) * |alphabet|
    rows."""
    g, attrs = maxprod_open
    with pytest.raises(DepthExceeded) as exc:
        reach.enumerate_states(g)
    assert "depth 32" in str(exc.value)

    width = len(g.alphabet)
    for n in range(5):
        rep = check_n_controllability(g, g, attrs, n)
        assert len(rep.rows) == sum(width**i for i in range(n + 1)) * width
        assert rep.overall
