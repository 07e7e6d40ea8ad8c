"""Finite-support fuzzy languages and their controllability lattice.

A language maps event strings to degrees and is zero outside a finite
support.  On top of the pointwise lattice (Zadeh min/max) this module
implements prefix closure, the controllability test with respect to a
prefix-closed bound M̃ and uncontrollability attributes, and the two
closure operations.  The controllable languages are closed under
pointwise max and the prefix-closed controllable ones under pointwise
min, so each family has one extreme member, and each closure computes it
in one ordered sweep:

* the supremal controllable sublanguage K̃^< — one *backward* pass over
  pr(K̃)'s support, deepest strings first.  h(s) is the max of K̃(s) and
  of the already final h(s·σ); if some σ violates
  min(h(s), Σ̃uc(σ), M̃(s·σ)) ≤ h(s·σ), h(s) drops to the least such
  h(s·σ).  Every controllable sublanguage of K̃ has its prefix closure
  below h, because a violating σ forces pr(s) ≤ h(s·σ).  Lowering s
  together with its subtree to the same cap creates no violation below
  it, so the forward min of h along each string is the prefix closure of
  a controllable language; capping K̃ by it gives the supremum.
* the infimal prefix-closed controllable superlanguage K̃^> — one
  *forward* pass from pr(K̃), shortest strings first and each raised
  string queued after them: lift g(s·σ) to min(g(s), Σ̃uc(σ), M̃(s·σ))
  whenever that exceeds it.  Only s's parent raises g(s), so g(s) is
  final when s is taken; raises never break prefix monotonicity (the new
  value is ≤ g(s)) and never leave M̃, and every member of the family
  dominates every raise, so the result is exactly the infimum.

All quantification "for all s ∈ Σ̃*" collapses to the finite supports:
outside them the left side of every inequality is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, NamedTuple, Optional, Tuple

from .algebra import ZERO, parse_degree
from .automaton import require_same_alphabet
from .errors import AlphabetMismatch, KNotContainedInM, MNotPrefixClosed

EventString = Tuple[str, ...]


@dataclass(frozen=True)
class FiniteSupportFuzzyLanguage:
    alphabet: Tuple[str, ...]
    degrees: Mapping[EventString, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        clean: Dict[EventString, Fraction] = {}
        for s, d in self.degrees.items():
            s = tuple(s)
            for e in s:
                if e not in self.alphabet:
                    raise AlphabetMismatch(f"string {s} uses undeclared event {e!r}")
            d = parse_degree(d)
            if d != ZERO:
                clean[s] = d
        object.__setattr__(self, "degrees", clean)

    def __call__(self, s: Iterable[str]) -> Fraction:
        return self.degrees.get(tuple(s), ZERO)

    def support(self) -> Tuple[EventString, ...]:
        return tuple(sorted(self.degrees, key=lambda s: (len(s), s)))

    def with_degrees(self, degrees: Mapping[EventString, Fraction]) -> "FiniteSupportFuzzyLanguage":
        return FiniteSupportFuzzyLanguage(self.alphabet, degrees)

    def __eq__(self, other):
        if not isinstance(other, FiniteSupportFuzzyLanguage):
            return NotImplemented
        return set(self.alphabet) == set(other.alphabet) and dict(self.degrees) == dict(other.degrees)

    def __hash__(self):
        return hash((frozenset(self.alphabet), frozenset(self.degrees.items())))


def prefix_closure(l: FiniteSupportFuzzyLanguage) -> FiniteSupportFuzzyLanguage:
    """pr(l)(s) = max degree of any member extending s; idempotent."""
    out: Dict[EventString, Fraction] = {}
    for s, d in l.degrees.items():
        for i in range(len(s) + 1):
            p = s[:i]
            if d > out.get(p, ZERO):
                out[p] = d
    return l.with_degrees(out)


def is_prefix_closed(l: FiniteSupportFuzzyLanguage) -> bool:
    """pr(l) = l: no string of the support has a higher degree than its parent."""
    return all(l.degrees.get(s[:-1], ZERO) >= d for s, d in l.degrees.items() if s)


def is_sublanguage(a: FiniteSupportFuzzyLanguage, b: FiniteSupportFuzzyLanguage) -> bool:
    return all(d <= b(s) for s, d in a.degrees.items())


def _bounded_uc(k: FiniteSupportFuzzyLanguage, m: FiniteSupportFuzzyLanguage, attrs) -> Mapping[str, Fraction]:
    """Σ̃uc as a mapping event → degree, from either a plain mapping or an
    EventAttributes, once the bounding language M̃ is checked: it must share
    k's alphabet and be prefix-closed."""
    require_same_alphabet(k, m)
    if not is_prefix_closed(m):
        raise MNotPrefixClosed("the bounding language M̃ must be prefix-closed")
    return getattr(attrs, "uncontrollability", attrs)


class ControllabilityWitness(NamedTuple):
    s: EventString
    sigma: str
    lhs: Fraction
    rhs: Fraction


def _violation(
    l: FiniteSupportFuzzyLanguage, uc: Mapping[str, Fraction], bound
) -> Optional[ControllabilityWitness]:
    """The first (s, σ), s over l's support in (length, lex) order, with
    min(l(s), Σ̃uc(σ), bound(s·σ)) > l(s·σ)."""
    for s in l.support():
        for sigma in l.alphabet:
            lhs = min(l(s), uc.get(sigma, ZERO), bound(s + (sigma,)))
            rhs = l(s + (sigma,))
            if lhs > rhs:
                return ControllabilityWitness(s, sigma, lhs, rhs)
    return None


def is_controllable_wrt(
    k: FiniteSupportFuzzyLanguage,
    m: FiniteSupportFuzzyLanguage,
    attrs,
) -> Tuple[bool, Optional[ControllabilityWitness]]:
    """min(pr(k)(s), Σ̃uc(σ), m(s·σ)) ≤ pr(k)(s·σ) for all s, σ.

    m must be prefix-closed.  The scan ranges over pr(k)'s support only:
    elsewhere the left side is 0.
    """
    uc = _bounded_uc(k, m, attrs)
    prk = prefix_closure(k)
    witness = _violation(prk, uc, m)
    return witness is None, witness


def supremal_controllable_sublanguage(
    k: FiniteSupportFuzzyLanguage,
    m: FiniteSupportFuzzyLanguage,
    attrs,
) -> FiniteSupportFuzzyLanguage:
    """K̃^<: the union of all controllable sublanguages of k (one backward
    pass over pr(k)'s support, then one forward pass applying the caps)."""
    uc = _bounded_uc(k, m, attrs)
    events = [(sigma, uc.get(sigma, ZERO)) for sigma in k.alphabet]
    bound = m.degrees.get
    domain = sorted(prefix_closure(k).degrees, key=len)
    # h(s): pr of the capped language below s, each string capped in turn
    h: Dict[EventString, Fraction] = {}
    for s in reversed(domain):
        children = [(u, bound(s + (sigma,), ZERO), h.get(s + (sigma,), ZERO)) for sigma, u in events]
        hs = max(k(s), *(ht for _, _, ht in children))
        h[s] = min((ht for u, mt, ht in children if min(hs, u, mt) > ht), default=hs)
    # pr(K̃^<)(s) is the least h on the way to s
    pr_f: Dict[EventString, Fraction] = {}
    for s in domain:
        pr_f[s] = min(h[s], pr_f[s[:-1]]) if s else h[s]
    return k.with_degrees({t: min(d, pr_f[t]) for t, d in k.degrees.items()})


def infimal_prefix_closed_superlanguage(
    k: FiniteSupportFuzzyLanguage,
    m: FiniteSupportFuzzyLanguage,
    attrs,
) -> FiniteSupportFuzzyLanguage:
    """K̃^>: the smallest prefix-closed controllable language between k and m
    (one forward pass from pr(k), each string after its parent)."""
    uc = _bounded_uc(k, m, attrs)
    if not is_sublanguage(k, m):
        raise KNotContainedInM("K̃ must be a sublanguage of M̃")
    events = [(sigma, uc.get(sigma, ZERO)) for sigma in k.alphabet]
    bound = m.degrees.get
    g = dict(prefix_closure(k).degrees)
    # each string is taken after its parent, the only string that raises it
    order = sorted(g, key=len)
    for s in order:
        for sigma, u in events:
            t = s + (sigma,)
            lhs = min(g[s], u, bound(t, ZERO))
            if lhs > g.get(t, ZERO):
                if t not in g:
                    order.append(t)
                g[t] = lhs
    return k.with_degrees(g)
