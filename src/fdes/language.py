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

from .algebra import ZERO, ONE, parse_degree
from .errors import AlphabetMismatch, KNotContainedInM, MNotPrefixClosed

EventString = Tuple[str, ...]


def _uc_map(attrs) -> Mapping[str, Fraction]:
    """Accept either a plain mapping event → degree or an EventAttributes."""
    return getattr(attrs, "uncontrollability", attrs)


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


def zero_language(alphabet: Iterable[str]) -> FiniteSupportFuzzyLanguage:
    return FiniteSupportFuzzyLanguage(tuple(alphabet), {})


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
    return prefix_closure(l) == l


def _require_same_alphabet(a: FiniteSupportFuzzyLanguage, b: FiniteSupportFuzzyLanguage):
    if set(a.alphabet) != set(b.alphabet):
        raise AlphabetMismatch(f"alphabets differ: {sorted(a.alphabet)} vs {sorted(b.alphabet)}")


def fuzzy_and(a: FiniteSupportFuzzyLanguage, b: FiniteSupportFuzzyLanguage) -> FiniteSupportFuzzyLanguage:
    """Pointwise Zadeh AND (min)."""
    _require_same_alphabet(a, b)
    return a.with_degrees({s: min(d, b(s)) for s, d in a.degrees.items()})


def fuzzy_or(a: FiniteSupportFuzzyLanguage, b: FiniteSupportFuzzyLanguage) -> FiniteSupportFuzzyLanguage:
    """Pointwise Zadeh OR (max)."""
    _require_same_alphabet(a, b)
    merged = dict(a.degrees)
    for s, d in b.degrees.items():
        if d > merged.get(s, ZERO):
            merged[s] = d
    return a.with_degrees(merged)


def is_sublanguage(a: FiniteSupportFuzzyLanguage, b: FiniteSupportFuzzyLanguage) -> bool:
    return all(d <= b(s) for s, d in a.degrees.items())


class ControllabilityWitness(NamedTuple):
    s: EventString
    sigma: str
    lhs: Fraction
    rhs: Fraction


def _violation(
    domain: Iterable[EventString],
    alphabet: Tuple[str, ...],
    uc: Mapping[str, Fraction],
    bound,
    value_at,
) -> Optional[ControllabilityWitness]:
    for s in sorted(domain, key=lambda t: (len(t), t)):
        for sigma in alphabet:
            lhs = min(value_at(s), uc.get(sigma, ZERO), bound(s + (sigma,)))
            rhs = value_at(s + (sigma,))
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
    _require_same_alphabet(k, m)
    if not is_prefix_closed(m):
        raise MNotPrefixClosed("the bounding language M̃ must be prefix-closed")
    uc = _uc_map(attrs)
    prk = prefix_closure(k)
    witness = _violation(prk.degrees, k.alphabet, uc, m, prk)
    return witness is None, witness


def value_lattice(
    k: FiniteSupportFuzzyLanguage, m: FiniteSupportFuzzyLanguage, attrs
) -> Tuple[Fraction, ...]:
    """Every value the closures can produce: inputs plus the bounds 0 and 1."""
    uc = _uc_map(attrs)
    values = {ZERO, ONE}
    values.update(k.degrees.values())
    values.update(m.degrees.values())
    values.update(uc.values())
    return tuple(sorted(values))


def supremal_controllable_sublanguage(
    k: FiniteSupportFuzzyLanguage,
    m: FiniteSupportFuzzyLanguage,
    attrs,
) -> FiniteSupportFuzzyLanguage:
    """K̃^<: the union of all controllable sublanguages of k (one backward
    pass over pr(k)'s support, then one forward pass applying the caps)."""
    _require_same_alphabet(k, m)
    if not is_prefix_closed(m):
        raise MNotPrefixClosed("the bounding language M̃ must be prefix-closed")
    uc = _uc_map(attrs)
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
    _require_same_alphabet(k, m)
    if not is_prefix_closed(m):
        raise MNotPrefixClosed("the bounding language M̃ must be prefix-closed")
    if not is_sublanguage(k, m):
        raise KNotContainedInM("K̃ must be a sublanguage of M̃")
    uc = _uc_map(attrs)
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
