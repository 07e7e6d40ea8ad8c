"""Exact degrees: parsing and formatting, the Kronecker tensor products that
parallel composition builds on, and the reductions of a fuzzy state.

Degrees are `fractions.Fraction` values in [0, 1].  Vectors and matrices are
immutable tuples of Fractions, so they hash consistently.  All operations are
pure.  A fuzzy state is stepped by its automaton's `StepTable`.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Iterable, List, Sequence, Union

from .errors import DimensionError, RangeError

ZERO = Fraction(0)
ONE = Fraction(1)


class Semantics(str, Enum):
    """Which semiring an automaton composes states with."""

    MAX_MIN = "max-min"
    MAX_PRODUCT = "max-product"


# ---------------------------------------------------------------------------
# degree parsing / formatting


def parse_degree(raw: Union[str, int, float, Fraction]) -> Fraction:
    """Turn a decimal string such as ``"0.8"`` (or ``"4/5"``) into an exact
    rational degree in [0, 1].

    Ints are exact.  Floats are accepted for convenience and converted via
    their shortest round-trip decimal representation, so a JSON ``0.8``
    means exactly 4/5.
    """
    if isinstance(raw, bool):
        raise RangeError(f"not a degree: {raw!r}")
    if isinstance(raw, Fraction):
        value = raw
    elif isinstance(raw, int):
        value = Fraction(raw)
    elif isinstance(raw, float):
        if not math.isfinite(raw):
            raise RangeError(f"degree {raw!r} is not a finite number")
        value = Fraction(repr(raw))
    elif isinstance(raw, str):
        try:
            value = Fraction(raw.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise RangeError(f"cannot parse degree {raw!r}: {exc}") from None
    else:
        raise RangeError(f"cannot parse degree of type {type(raw).__name__}")
    if not (ZERO <= value <= ONE):
        raise RangeError(f"degree {raw!r} outside [0, 1]")
    return value


def format_degree(d: Fraction) -> str:
    """Render a degree as its shortest exact decimal ("0.4", "1", "0.35");
    degrees with no finite decimal expansion render as a fraction ("1/3")."""
    if d.denominator == 1:
        return str(d.numerator)
    den = d.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{d.numerator}/{d.denominator}"
    digits = max(twos, fives)
    scaled = d.numerator * 10**digits // d.denominator
    text = str(scaled).rjust(digits, "0")
    return f"{text[:-digits] or '0'}.{text[-digits:]}"


def as_vector(entries: Iterable) -> tuple:
    """Validate and freeze a fuzzy state vector."""
    v = tuple(parse_degree(e) for e in entries)
    if not v:
        raise DimensionError("a fuzzy state vector needs at least one entry")
    return v


def as_matrix(rows: Iterable) -> tuple:
    """Validate and freeze a square fuzzy event matrix."""
    m = tuple(as_vector(row) for row in rows)
    n = len(m)
    for i, row in enumerate(m):
        if len(row) != n:
            raise DimensionError(f"matrix not square: row {i} has {len(row)} of {n} entries")
    return m


def format_vector(v: Sequence[Fraction]) -> str:
    """Render as the bracketed degree list used throughout the reports."""
    return "[" + " ".join(format_degree(d) for d in v) + "]"


def format_table(rows: Sequence[Sequence[str]]) -> List[str]:
    """Lay out text cells (a header first) as left-aligned columns two spaces
    apart, one line per row with trailing blanks stripped."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(map(str.ljust, row, widths)).rstrip() for row in rows]


# ---------------------------------------------------------------------------
# tensor products


def identity(n: int) -> tuple:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def tensor_vectors(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple:
    """Kronecker product of vectors: result[(i·m)+j] = a[i] × b[j]."""
    return tuple(x * y for x in a for y in b)


def tensor_matrices(a: Sequence, b: Sequence) -> tuple:
    """Kronecker product of matrices in the usual block layout."""
    n2 = len(b)
    return tuple(
        tuple(a[i // n2][j // n2] * b[i % n2][j % n2] for j in range(len(a[0]) * len(b[0])))
        for i in range(len(a) * n2)
    )


# ---------------------------------------------------------------------------
# reductions


def max_element(v: Sequence[Fraction]) -> Fraction:
    """The largest entry — the degree a string is generated, once v = q̃0 * s."""
    if not v:
        raise DimensionError("max_element of an empty vector")
    return max(v)


def inner_sup(v: Sequence[Fraction], q: Sequence[Fraction], semantics: Semantics) -> Fraction:
    """The scalar v * q̃ᵀ: the degree the current fuzzy state v matches a
    marked fuzzy state q (max of pairwise min, or of pairwise product)."""
    if len(v) != len(q):
        raise DimensionError(f"dimensions {len(v)} and {len(q)} disagree")
    if semantics is Semantics.MAX_MIN:
        return max(min(x, y) for x, y in zip(v, q))
    return max(x * y for x, y in zip(v, q))
