"""Fuzzy finite automata under max-min or max-product semantics.

An automaton packages an initial possibility vector, one transition matrix
per event, an optional list of marked fuzzy states, and a semantics tag.
Event declaration order is significant: it drives every deterministic
enumeration downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import algebra
from .algebra import Semantics, ZERO
from .errors import (
    AlphabetMismatch,
    DimensionError,
    SemanticsMismatch,
    UnknownEvent,
)

EventString = Tuple[str, ...]

EPSILON: EventString = ()


def string_from_text(text: str) -> EventString:
    """Parse a space-separated event string; '' (or 'eps') means ε."""
    text = text.strip()
    if text in ("", "eps", "ε"):
        return ()
    return tuple(text.split())


def string_to_text(s: Sequence[str]) -> str:
    return " ".join(s) if s else "ε"


@dataclass
class FuzzyAutomaton:
    state_labels: Tuple[str, ...]
    events: Dict[str, tuple]  # event name -> n×n matrix, declaration order
    initial: tuple
    marked: Tuple[tuple, ...] = ()
    semantics: Semantics = Semantics.MAX_MIN

    def __post_init__(self):
        self.state_labels = tuple(str(l) for l in self.state_labels)
        n = len(self.state_labels)
        if n == 0:
            raise DimensionError("an automaton needs at least one state")
        self.initial = algebra.as_vector(self.initial)
        if len(self.initial) != n:
            raise DimensionError(f"initial vector has dim {len(self.initial)}, expected {n}")
        frozen = {}
        for name, m in self.events.items():
            m = algebra.as_matrix(m)
            if len(m) != n:
                raise DimensionError(f"event {name!r} is {len(m)}×{len(m)}, expected {n}×{n}")
            frozen[str(name)] = m
        self.events = frozen
        marked = []
        for v in self.marked:
            v = algebra.as_vector(v)
            if len(v) != n:
                raise DimensionError(f"marked vector has dim {len(v)}, expected {n}")
            marked.append(v)
        self.marked = tuple(marked)
        self.semantics = Semantics(self.semantics)

    @property
    def dim(self) -> int:
        return len(self.state_labels)

    @property
    def alphabet(self) -> Tuple[str, ...]:
        return tuple(self.events)

    def matrix(self, e: str) -> tuple:
        try:
            return self.events[e]
        except KeyError:
            raise _unknown(e, self.events) from None

    def is_crisp(self) -> bool:
        return _degrees(self, marked=True).keys() <= {(0, 1), (1, 1)}

    def table(self) -> StepTable:
        """The automaton's `StepTable`, built on first use and cached.

        The automaton is treated as immutable once built: reassigning its
        vectors or matrices afterwards leaves a stale table behind, with a
        stale memo of every step already taken.  Under either semantics that
        memo holds every state any walk of the automaton has met, for as
        long as the automaton lives.
        """
        table = self.__dict__.get("_table")
        if table is None:
            table = self._table = StepTable(self)
        return table


def _degrees(g: FuzzyAutomaton, marked: bool = False) -> Dict[Tuple[int, int], Fraction]:
    """The distinct degrees of g's initial vector and event matrices, and
    with `marked` those of its marked vectors too, keyed by integer ratio:
    a pair of ints hashes far faster than a Fraction."""
    rows = [g.initial]
    for m in (*g.events.values(), g.marked) if marked else g.events.values():
        rows.extend(m)
    return {d.as_integer_ratio(): d for row in rows for d in row}


def _unknown(e: str, alphabet: Iterable[str]) -> UnknownEvent:
    return UnknownEvent(f"event {e!r} not declared (alphabet: {list(alphabet)})")


class _Fractions(dict):
    """(numerator, denominator) -> Fraction, each built on first lookup."""

    def __missing__(self, key: Tuple[int, int]) -> Fraction:
        value = self[key] = Fraction(*key)
        return value


class StepTable:
    """An automaton on integer numerators, determinized as it is walked.

    Every degree of `initial` and the event matrices is a multiple of 1/D,
    D the lcm of their denominators, so a state is the pair (numerators,
    denominator).  A max-min product only ever picks one of its inputs: its
    min and max run on the numerators and the denominator stays D.  Such a
    key is never reduced, or a min would compare numerators over different
    denominators.  A max-product product multiplies the denominator by D,
    and the key is reduced by D while every numerator divides: then two
    states are equal exactly when the Fraction vectors they stand for are.

    The table numbers each key the first time a step meets it: a state is
    that number.  Each successor is kept in a per-event list indexed by
    state, so a (state, σ) step is computed once for the life of the
    automaton and is a list lookup after.  Like the table itself, the memo
    assumes the automaton is not changed once built.

    Under max-min there are finitely many keys, so the memo is bounded by
    the reachable states × |Σ|.  Under max-product it is bounded only by the
    walks: it keeps every state that any walk met, including those of a
    search that raised or was interrupted, while the automaton lives.
    Dropping the automaton (or building a fresh one) releases it.
    """

    __slots__ = ("scale", "maxmin", "columns", "fractions", "keys", "ids", "tops", "successors", "initial")

    def __init__(self, g: FuzzyAutomaton):
        degrees = _degrees(g).values()
        scale = self.scale = lcm(*(d.denominator for d in degrees))

        def scaled(d: Fraction) -> int:
            return d.numerator * (scale // d.denominator)

        self.maxmin = g.semantics is Semantics.MAX_MIN
        # event -> column j as the numerators of m[l][j] over D
        self.columns: Dict[str, Tuple[Tuple[int, ...], ...]] = {
            e: tuple(tuple(map(scaled, col)) for col in zip(*m)) for e, m in g.events.items()
        }
        # seeded with g's own degrees, so a max-min decode returns g's Fractions
        self.fractions = _Fractions({(scaled(d), scale): d for d in degrees})
        self.keys: List[Tuple[Tuple[int, ...], int]] = []  # state -> its key
        self.ids: Dict[Tuple[Tuple[int, ...], int], int] = {}
        self.tops: List[Fraction] = []  # state -> its largest degree
        # event -> state -> successor state, None until first stepped
        self.successors: Dict[str, List[Optional[int]]] = {e: [] for e in self.columns}
        start = tuple(map(scaled, g.initial)), scale
        self.initial = self._number(start if self.maxmin else self._reduce(*start))

    def _reduce(self, nums: tuple, den: int) -> Tuple[tuple, int]:
        scale, common = self.scale, gcd(*nums)
        factor = 1
        while den > 1 and common % scale == 0:  # a zero vector reduces to den 1
            common //= scale
            den //= scale
            factor *= scale
        if factor > 1:
            nums = tuple([x // factor for x in nums])
        return nums, den

    def _number(self, key: Tuple[Tuple[int, ...], int]) -> int:
        """The state of key, numbered and filed the first time it is met."""
        q = self.ids.get(key)
        if q is None:
            q = self.ids[key] = len(self.keys)
            self.keys.append(key)
            nums, den = key
            self.tops.append(self.fractions[max(nums), den])
            for successors in self.successors.values():
                successors.append(None)
        return q

    def step(self, q: int, e: str) -> int:
        """One transition of state q."""
        try:
            nxt = self.successors[e][q]
        except KeyError:
            raise _unknown(e, self.columns) from None
        return self._successor(q, e) if nxt is None else nxt

    def _successor(self, q: int, e: str) -> int:
        """Compute, number and keep the successor of q under e."""
        nums, den = self.keys[q]
        if self.maxmin:
            key = tuple([max(map(min, nums, col)) for col in self.columns[e]]), den
        else:
            key = self._reduce(tuple([max(map(mul, nums, col)) for col in self.columns[e]]), den * self.scale)
        nxt = self.successors[e][q] = self._number(key)
        return nxt

    def top(self, q: int) -> Fraction:
        """L_G̃ of the strings that lead to q: its largest degree."""
        return self.tops[q]

    def decode(self, q: int) -> tuple:
        nums, den = self.keys[q]
        fractions = self.fractions
        return tuple([fractions[x, den] for x in nums])


def run(g: FuzzyAutomaton, s: Iterable[str]) -> tuple:
    """q̃0 * s: the string folded on g's step table, decoded once."""
    table = g.table()
    v = table.initial
    for e in s:
        v = table.step(v, e)
    return table.decode(v)


def generated_degree(g: FuzzyAutomaton, s: Iterable[str]):
    """L_G̃(s): the degree to which the string is physically possible."""
    return algebra.max_element(run(g, s))


def marked_degree(g: FuzzyAutomaton, s: Iterable[str]):
    """L_G̃,m(s): the degree to which the string is recognized."""
    return marked_at(g, run(g, s))


def marked_at(g: FuzzyAutomaton, q: Sequence) -> Fraction:
    """L_G̃,m of the strings that lead to the fuzzy state q: the sup over
    marked fuzzy states; 0 when no state is marked."""
    return max((algebra.inner_sup(q, m, g.semantics) for m in g.marked), default=ZERO)


def parallel_compose(g1: FuzzyAutomaton, g2: FuzzyAutomaton) -> FuzzyAutomaton:
    """Synchronous composition on the tensor state space.

    Shared events advance both components (σ̃1 ⊗ σ̃2); private events carry
    an identity block for the idle component.  The result applies its own
    semantics tag when stepped.
    """
    if g1.semantics is not g2.semantics:
        raise SemanticsMismatch(f"cannot compose {g1.semantics.value} with {g2.semantics.value}")
    i1 = algebra.identity(g1.dim)
    i2 = algebra.identity(g2.dim)
    events: Dict[str, tuple] = {}
    for name in list(g1.events) + [e for e in g2.events if e not in g1.events]:
        in1, in2 = name in g1.events, name in g2.events
        if in1 and in2:
            events[name] = algebra.tensor_matrices(g1.events[name], g2.events[name])
        elif in1:
            events[name] = algebra.tensor_matrices(g1.events[name], i2)
        else:
            events[name] = algebra.tensor_matrices(i1, g2.events[name])
    return FuzzyAutomaton(
        state_labels=tuple(f"{a},{b}" for a in g1.state_labels for b in g2.state_labels),
        events=events,
        initial=algebra.tensor_vectors(g1.initial, g2.initial),
        marked=tuple(
            algebra.tensor_vectors(m1, m2) for m1 in g1.marked for m2 in g2.marked
        ),
        semantics=g1.semantics,
    )


def require_same_alphabet(a, b) -> None:
    """Two automata, languages or supervisors must declare the same events."""
    if set(a.alphabet) != set(b.alphabet):
        raise AlphabetMismatch(f"alphabets differ: {sorted(a.alphabet)} vs {sorted(b.alphabet)}")


def require_pairable(g: FuzzyAutomaton, spec) -> None:
    """A specification, automaton or language, must share g's alphabet, and
    an automaton spec also g's semantics."""
    if isinstance(spec, FuzzyAutomaton):
        require_same_alphabet(g, spec)
        if spec.semantics is not g.semantics:
            raise SemanticsMismatch("plant and specification must share semantics")
    elif set(spec.alphabet) != set(g.alphabet):
        raise AlphabetMismatch(
            f"language alphabet {sorted(spec.alphabet)} != plant alphabet {sorted(g.alphabet)}"
        )
