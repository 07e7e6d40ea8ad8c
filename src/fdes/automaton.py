"""Fuzzy finite automata under max-min or max-product semantics.

An automaton packages an initial possibility vector, one transition matrix
per event, an optional list of marked fuzzy states, and a semantics tag.
Event declaration order is significant: it drives every deterministic
enumeration downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple

from . import algebra
from .algebra import Semantics, ZERO, ONE
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
            raise UnknownEvent(f"event {e!r} not declared (alphabet: {list(self.events)})") from None

    def is_crisp(self) -> bool:
        values = set(self.initial)
        for m in self.events.values():
            for row in m:
                values.update(row)
        for v in self.marked:
            values.update(v)
        return values <= {ZERO, ONE}

    def ranks(self) -> "RankTable":
        """The max-min rank table, built on first use and cached.

        The automaton is treated as immutable once built: reassigning its
        vectors or matrices afterwards leaves a stale table behind.
        """
        table: Optional[RankTable] = self.__dict__.get("_ranks")
        if table is None:
            if self.semantics is not Semantics.MAX_MIN:
                raise SemanticsMismatch("rank tables exist for max-min automata only")
            table = self._ranks = RankTable(self)
        return table


class RankTable:
    """A max-min automaton in integer rank space.

    A max-min product only ever picks one of its inputs, so every state
    reachable from q̃0 holds degrees drawn from `initial` and the event
    matrices.  Replacing each degree by its rank among those degrees turns
    min and max over Fractions into min and max over ints; `decode` maps a
    rank vector back to the Fraction vector it stands for.
    """

    __slots__ = ("values", "rank", "initial", "columns")

    def __init__(self, g: FuzzyAutomaton):
        degrees = set(g.initial)
        for m in g.events.values():
            for row in m:
                degrees.update(row)
        # the sorted distinct degrees; rank r stands for values[r]
        self.values: Tuple[Fraction, ...] = tuple(sorted(degrees))
        self.rank: Dict[Fraction, int] = {d: r for r, d in enumerate(self.values)}
        self.initial: Tuple[int, ...] = tuple(self.rank[d] for d in g.initial)
        # event -> column j as the ranks of m[l][j]
        self.columns: Dict[str, Tuple[Tuple[int, ...], ...]] = {
            e: tuple(tuple(self.rank[d] for d in col) for col in zip(*m)) for e, m in g.events.items()
        }

    def step(self, r: tuple, e: str) -> tuple:
        """One max-min transition of the rank vector r."""
        try:
            cols = self.columns[e]
        except KeyError:
            raise UnknownEvent(f"event {e!r} not declared (alphabet: {list(self.columns)})") from None
        return tuple([max(map(min, r, col)) for col in cols])

    def decode(self, r: tuple) -> tuple:
        values = self.values
        return tuple([values[x] for x in r])


def step(g: FuzzyAutomaton, q: Sequence, e: str) -> tuple:
    """One transition: q̃ ⊙ σ̃ (or ∘ under max-product).

    Max-min steps run on the automaton's rank table; a vector holding a
    degree the automaton lacks takes the Fraction kernel, with equal result.
    """
    if g.semantics is not Semantics.MAX_MIN:
        return algebra.maxprod_apply(q, g.matrix(e))
    table = g.ranks()
    cols = table.columns.get(e)
    if cols is not None and len(q) == len(cols):
        ranks = tuple(map(table.rank.get, q))
        if None not in ranks:
            values = table.values
            return tuple([values[max(map(min, ranks, col))] for col in cols])
    return algebra.maxmin_apply(q, g.matrix(e))


def run(g: FuzzyAutomaton, s: Iterable[str]) -> tuple:
    """Fold the string through the transition matrices from the initial state."""
    q = g.initial
    for e in s:
        q = step(g, q, e)
    return q


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


def require_same_alphabet(g: FuzzyAutomaton, h: FuzzyAutomaton) -> None:
    if set(g.events) != set(h.events):
        raise AlphabetMismatch(
            f"alphabets differ: {sorted(g.events)} vs {sorted(h.events)}"
        )
