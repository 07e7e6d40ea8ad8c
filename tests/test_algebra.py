from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdes.algebra import (
    ONE,
    ZERO,
    Semantics,
    as_matrix,
    as_vector,
    format_degree,
    format_vector,
    identity,
    inner_sup,
    max_element,
    parse_degree,
    tensor_matrices,
    tensor_vectors,
)
from fdes.automaton import FuzzyAutomaton
from fdes.errors import DimensionError, ParseError, RangeError
from oracles import fraction_step, maxmin_apply, maxmin_matmul, maxprod_apply, maxprod_matmul

F = Fraction

# the 181 degrees of [0, 1] with denominator ≤ 24, the values st.fractions(0, 1,
# max_denominator=24) draws; sampling a fixed list is far cheaper per draw
degrees = st.sampled_from(sorted({F(n, d) for d in range(1, 25) for n in range(d + 1)}))


def vectors(n):
    return st.lists(degrees, min_size=n, max_size=n).map(tuple)


def matrices(n):
    return st.lists(vectors(n), min_size=n, max_size=n).map(tuple)


# --- parsing and formatting --------------------------------------------------


def test_parse_degree_accepts_decimal_and_rational_strings():
    assert parse_degree("0.4") == F(2, 5)
    assert parse_degree(".5") == F(1, 2)
    assert parse_degree("0.125") == F(1, 8)
    assert parse_degree("4/5") == F(4, 5)
    assert parse_degree("1") == ONE
    assert parse_degree("0") == ZERO


def test_parse_degree_accepts_numbers():
    assert parse_degree(F(1, 3)) == F(1, 3)
    assert parse_degree(1) == ONE
    # floats go through their shortest repr, so 0.1 means exactly 1/10
    assert parse_degree(0.1) == F(1, 10)
    assert parse_degree(0.8) == F(4, 5)


@pytest.mark.parametrize("bad", ["1.2", "-0.1", "7/5", "abc", "1/0", True, None, [0.2], float("nan"), float("inf"), float("-inf")])
def test_parse_degree_rejects(bad):
    with pytest.raises(RangeError):
        parse_degree(bad)


def test_range_error_is_a_parse_error():
    assert issubclass(RangeError, ParseError)


def test_format_degree_prefers_short_decimals():
    assert format_degree(F(2, 5)) == "0.4"
    assert format_degree(F(1)) == "1"
    assert format_degree(F(0)) == "0"
    assert format_degree(F(1, 4)) == "0.25"
    assert format_degree(F(7, 20)) == "0.35"
    assert format_degree(F(1, 3)) == "1/3"
    assert format_degree(F(3, 7)) == "3/7"


@given(degrees)
def test_format_parse_round_trip(d):
    assert parse_degree(format_degree(d)) == d


def test_format_vector():
    assert format_vector((F(2, 5), F(4, 5))) == "[0.4 0.8]"
    assert format_vector((ZERO,)) == "[0]"


def test_as_matrix_rejects_ragged_and_nonsquare():
    with pytest.raises(DimensionError):
        as_matrix([["0.1", "0.2"], ["0.3"]])
    with pytest.raises(DimensionError):
        as_matrix([["0.1", "0.2", "0.3"], ["0.1", "0.2", "0.3"]])
    with pytest.raises(DimensionError):
        as_vector([])


# --- semiring products --------------------------------------------------------

ALPHA1 = as_matrix([["0.4", "0.8"], ["0.2", "0.2"]])
ALPHA2 = as_matrix([["0.4", "0.2"], ["0.8", "0.5"]])


def test_maxmin_apply_walkthrough():
    v = as_vector(["0.9", "0.1"])
    assert maxmin_apply(v, ALPHA1) == as_vector(["0.4", "0.8"])
    assert maxmin_apply(v, ALPHA2) == as_vector(["0.4", "0.2"])
    # the step that closes the enumeration: [0.5 0.5] under the first event
    assert maxmin_apply(as_vector(["0.5", "0.5"]), ALPHA1) == as_vector(["0.4", "0.5"])


def test_maxprod_apply_small():
    v = as_vector(["0.5", "0.5"])
    assert maxprod_apply(v, ALPHA1) == (F(1, 5), F(2, 5))


def test_apply_event_dispatch():
    """The oracle's step applies the kernel of the automaton's semantics."""
    v = as_vector(["0.9", "0.1"])
    g = FuzzyAutomaton(("q1", "q2"), {"a": ALPHA1}, v)
    assert fraction_step(g, v, "a") == maxmin_apply(v, ALPHA1)
    g = FuzzyAutomaton(("q1", "q2"), {"a": ALPHA1}, v, semantics=Semantics.MAX_PRODUCT)
    assert fraction_step(g, v, "a") == maxprod_apply(v, ALPHA1)


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionError):
        maxmin_apply(as_vector(["0.1"]), ALPHA1)
    with pytest.raises(DimensionError):
        maxprod_apply(as_vector(["0.1", "0.2", "0.3"]), ALPHA1)


@given(vectors(3), matrices(3), matrices(3))
def test_apply_composes_through_matmul_maxmin(v, a, b):
    assert maxmin_apply(maxmin_apply(v, a), b) == maxmin_apply(v, maxmin_matmul(a, b))


@given(vectors(3), matrices(3), matrices(3))
def test_apply_composes_through_matmul_maxprod(v, a, b):
    assert maxprod_apply(maxprod_apply(v, a), b) == maxprod_apply(v, maxprod_matmul(a, b))


@given(matrices(2), matrices(2), matrices(2))
def test_matmul_associative(a, b, c):
    assert maxmin_matmul(maxmin_matmul(a, b), c) == maxmin_matmul(a, maxmin_matmul(b, c))
    assert maxprod_matmul(maxprod_matmul(a, b), c) == maxprod_matmul(a, maxprod_matmul(b, c))


@given(vectors(3))
def test_identity_is_neutral(v):
    e = identity(3)
    assert maxprod_apply(v, e) == v
    assert maxprod_matmul(e, e) == e
    # max-min keeps vectors with entries <= 1 fixed as well
    assert maxmin_apply(v, e) == v


@given(vectors(2), matrices(2))
def test_maxmin_apply_bounded_by_inputs(v, m):
    """Every output entry of a max-min step is one of the input degrees."""
    pool = set(v) | {x for row in m for x in row}
    for entry in maxmin_apply(v, m):
        assert entry in pool


# --- tensor ------------------------------------------------------------------


def tensor(a, b):
    """Tensor product of two vectors or two matrices (same kind)."""
    a_is_matrix = bool(a) and isinstance(a[0], tuple)
    b_is_matrix = bool(b) and isinstance(b[0], tuple)
    if a_is_matrix != b_is_matrix:
        raise DimensionError("tensor needs two vectors or two matrices, not a mix")
    return tensor_matrices(a, b) if a_is_matrix else tensor_vectors(a, b)


def test_tensor_vectors_blocks():
    u = as_vector(["0.1", "0.5", "0.3"])
    w = as_vector(["0.2", "0.6", "0.1"])
    assert tensor_vectors(u, w) == as_vector(
        ["0.02", "0.06", "0.01", "0.1", "0.3", "0.05", "0.06", "0.18", "0.03"]
    )


def test_tensor_matrices_places_scaled_blocks():
    a = as_matrix([["0.4", "0.8"], ["0.2", "0.2"]])
    i2 = identity(2)
    t = tensor_matrices(a, i2)
    assert len(t) == 4 and len(t[0]) == 4
    # block (0,1) is 0.8 * I2
    assert t[0][2] == F(4, 5) and t[1][3] == F(4, 5)
    assert t[0][3] == ZERO and t[1][2] == ZERO


def test_tensor_dispatch_rejects_mixed_shapes():
    with pytest.raises(DimensionError):
        tensor(as_vector(["0.1"]), as_matrix([["0.1"]]))


@given(vectors(2), vectors(2), matrices(2), matrices(2))
def test_tensor_mixed_product_law(u, w, a, b):
    """Under max-product, stepping a tensored vector by a tensored matrix
    equals tensoring the individually stepped vectors.  (No such law holds
    for max-min, which is why composed automata step on the lifted matrices
    directly.)"""
    lhs = maxprod_apply(tensor_vectors(u, w), tensor_matrices(a, b))
    rhs = tensor_vectors(maxprod_apply(u, a), maxprod_apply(w, b))
    assert lhs == rhs


@given(vectors(3), vectors(2))
def test_tensor_max_element_multiplies(u, w):
    assert max_element(tensor_vectors(u, w)) == max_element(u) * max_element(w)


# --- reductions ---------------------------------------------------------------


def test_max_element_and_inner_sup():
    v = as_vector(["0.3", "0.7", "0.2"])
    q = as_vector(["1", "0", "1"])
    assert max_element(v) == F(7, 10)
    assert inner_sup(v, q, Semantics.MAX_MIN) == F(3, 10)
    assert inner_sup(v, q, Semantics.MAX_PRODUCT) == F(3, 10)
    assert inner_sup(v, as_vector(["0", "0.5", "0"]), Semantics.MAX_MIN) == F(1, 2)
    assert inner_sup(v, as_vector(["0", "0.5", "0"]), Semantics.MAX_PRODUCT) == F(7, 20)
