"""Supervisory control over fuzzy plants.

The controllability condition says an uncontrollable event may never push
the plant outside the specification harder than the specification itself
allows:

    min(pr(K̃)(s), Σ̃uc(σ), L_G̃(s·σ))  ≤  pr(K̃)(s·σ)      for all s, σ.

Every quantity in that inequality depends on s only through the pair of
fuzzy states (q̃0 * s, p̃0 * s) of plant and specification, so for max-min
systems checking one representative string per reachable pair class is
sound *and complete*.  The bounded variant checks all strings of length
≤ n directly and works for max-product systems too.

Supervisors map each string to an enablement degree per event.  The
synthesized supervisor realizes

    S̃(s)(σ) = min(Σ̃uc(σ), L_G̃(s·σ))   if Σ̃uc(σ) ≥ pr(K̃)(s·σ)
             = pr(K̃)(s·σ)              otherwise

lazily from its source models; explicit supervisors carry a finite table
with a default.  S̃(s)(σ) too depends on s only through the pair.

So every plant–spec computation reads one `_PairWalk`.  It numbers the
(plant, spec) pairs of step-table states as it meets them — the plant's
`FuzzyAutomaton.table` and the spec's, or a `_LanguageTable` — and
computes each (pair, σ) transition once: both steps, the row of the
inequality and, on first use, S̃(s)(σ).  A language spec's table state is
the string while it stays in pr(K̃)'s support and one absorbing state
after, so it too repeats as strings grow.  The exact checks, a synthesized
supervisor's rows and exact admissibility read the walk's domain: pr(K̃)'s
support for a language spec, the pair classes the reachability BFS finds
for a max-min automaton spec.  The other checks go over all strings of
length ≤ n (`_strings`), each string's state stepped from its parent's:
the bounded check carries pair ids and emits |Σ| rows per string, the
bounded synthesis verdict extends one string per pair id, and bounded
admissibility and the nonblocking comparison step the controlled
system (`_controlled`), where a synthesized supervisor's state is its pair
id and a transition met again is a dict hit; bounded admissibility extends
one string per (plant state, pair id).  Reports render each distinct
degree once per call.

Under max-min every degree a walk touches lies in a finite set known up
front: the plant's and the spec's degrees, K̃, Σ̃uc, 0 and 1, and for the
controlled system also the plant's marked entries and the supervisor's
degrees.  A walk's `_Codec` maps each to an exact int, its numerator over
the lcm of the set's denominators, so the walks compare and pick ints and
decode a degree only where a result leaves this module.  Under max-product
the degrees do not stay in a finite set, the codec is the identity, and
the same walks run on Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import attrgetter, itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import automaton as fa
from . import language as fl
from . import reachability
from .algebra import ONE, ZERO, Semantics, format_degree, format_table, parse_degree
from .automaton import EventString, FuzzyAutomaton, string_to_text
from .errors import AlphabetMismatch, NotCrisp, RangeError, SemanticsMismatch, StringNotInLanguage
from .language import FiniteSupportFuzzyLanguage


@dataclass
class EventAttributes:
    """Fuzzy uncontrollable subset Σ̃uc; the controllable subset is 1 − uc."""

    uncontrollability: Dict[str, Fraction]

    def __post_init__(self):
        self.uncontrollability = {
            str(e): parse_degree(d) for e, d in self.uncontrollability.items()
        }

    @property
    def controllability(self) -> Dict[str, Fraction]:
        return {e: ONE - d for e, d in self.uncontrollability.items()}

    def uc(self, e: str) -> Fraction:
        try:
            return self.uncontrollability[e]
        except KeyError:
            raise AlphabetMismatch(f"no uncontrollability degree for event {e!r}") from None

    def require_alphabet(self, alphabet: Sequence[str]) -> None:
        if set(self.uncontrollability) != set(alphabet):
            raise AlphabetMismatch(
                f"attribute events {sorted(self.uncontrollability)} "
                f"!= alphabet {sorted(alphabet)}"
            )


@dataclass(slots=True)
class ReportRow:
    representative: EventString
    event: str
    prK_s: Fraction
    LG_s_sigma: Fraction
    sigma_uc: Fraction
    lhs: Fraction
    prK_s_sigma: Fraction
    verdict: bool


REPORT_HEADERS = ("s", "ev", "prK(s)", "LG(s.ev)", "uc(ev)", "lhs", "prK(s.ev)", "ok")
# the ReportRow degrees, in column order; their JSON keys are these names
DEGREE_FIELDS = ("prK_s", "LG_s_sigma", "sigma_uc", "lhs", "prK_s_sigma")
_row_degrees = attrgetter(*DEGREE_FIELDS)


def _degree_texts() -> Callable[[Fraction], str]:
    """format_degree for one rendering, each distinct degree formatted once.
    The memo is keyed by the degree's integer ratio: a pair of ints hashes
    far faster than the Fraction itself, which would cost more to hash than
    formatting saves."""
    texts: Dict[Tuple[int, int], str] = {}

    def text(d: Fraction) -> str:
        key = d.as_integer_ratio()
        return texts.get(key) or texts.setdefault(key, format_degree(d))

    return text


@dataclass
class ControllabilityReport:
    rows: List[ReportRow]
    overall: bool
    counterexample: Optional[ReportRow]
    warnings: List[str] = field(default_factory=list)
    n: Optional[int] = None

    def through_first_failure(self) -> "ControllabilityReport":
        """This report with its rows cut after the first failing row."""
        cut = next((i + 1 for i, r in enumerate(self.rows) if not r.verdict), len(self.rows))
        return replace(self, rows=self.rows[:cut])

    def render_text(self, first_failure: bool = False) -> str:
        if first_failure:
            return self.through_first_failure().render_text()
        text = _degree_texts()
        lines = format_table([REPORT_HEADERS] + [
            (string_to_text(r.representative), r.event, *map(text, _row_degrees(r)), "T" if r.verdict else "F")
            for r in self.rows
        ])
        lines.append(f"overall: {'T' if self.overall else 'F'}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        text = _degree_texts()
        return {
            "schema_version": "1",
            "kind": "controllability-report",
            "overall": self.overall,
            "n": self.n,
            "warnings": list(self.warnings),
            "rows": [
                {
                    "s": string_to_text(r.representative) if r.representative else "",
                    "event": r.event,
                    "prK_s": text(r.prK_s),
                    "LG_s_sigma": text(r.LG_s_sigma),
                    "sigma_uc": text(r.sigma_uc),
                    "lhs": text(r.lhs),
                    "prK_s_sigma": text(r.prK_s_sigma),
                    "verdict": r.verdict,
                }
                for r in self.rows
            ],
        }


def _finish(rows: List[ReportRow], warnings: List[str], n: Optional[int] = None) -> ControllabilityReport:
    counterexample = next((r for r in rows if not r.verdict), None)
    return ControllabilityReport(rows, counterexample is None, counterexample, warnings, n)


def _strings(depth: int, alphabet: Sequence[str], start, step: Callable, cls=None) -> Iterator[Tuple[EventString, object]]:
    """(s, state) for every string s of length ≤ depth, level by level with
    events in alphabet order; step(state, σ) gives the state of s·σ from
    that of s.  One level is held for the next, and the last one not at all.
    Given cls, only the first string met of each class cls(state) is
    extended.  That suits a caller that reads s only through its class:
    below a later string of a class, every string repeats the class of one
    met earlier below the first, so the classes met stay the same, each
    first met at the same string."""
    level, seen = [((), start)], set()
    yield level[0]
    for length in range(1, depth + 1):
        parents, level = level, []
        if cls is not None:
            parents = [p for p in parents if (c := cls(p[1])) not in seen and not seen.add(c)]
        for s, state in parents:
            for sigma in alphabet:
                child = (s + (sigma,), step(state, sigma))
                yield child
                if length < depth:
                    level.append(child)


def _same(d):
    return d


class _Codec:
    """Degrees as exact ints for one walk: under max-min a degree's code is
    its numerator × (L ÷ its denominator), L the lcm of the denominators of
    the walk's finite degree set, so codes order, min and max as the degrees
    do.  `_Codec(None)` is the identity, for walks whose degrees are not a
    finite set (max-product).  Encoding a degree outside the set raises."""

    __slots__ = ("degrees", "scale", "codes", "encode", "decode")

    def __init__(self, degrees: Optional[Iterable[Fraction]]):
        if degrees is None:
            self.degrees, self.scale, self.encode, self.decode = None, None, _same, _same
            return
        # keyed by integer ratio, which is cheaper to hash than a Fraction
        distinct = {d.as_integer_ratio(): d for d in (ZERO, ONE, *degrees)}
        self.degrees = tuple(distinct.values())
        scale = self.scale = lcm(*(den for _, den in distinct))
        self.codes = {(num, den): num * (scale // den) for num, den in distinct}
        self.decode = {self.codes[ratio]: d for ratio, d in distinct.items()}.__getitem__
        self.encode = self._encode

    def _encode(self, d: Fraction) -> int:
        code = self.codes.get(d.as_integer_ratio())
        if code is None:
            raise RangeError(f"degree {format_degree(d)} is outside the walk's degree set")
        return code

    def recode(self, other: "_Codec") -> Callable:
        """other's codes to this codec's, when this codec's set holds other's
        or this codec is the identity."""
        if self.scale is None:
            return other.decode
        factor = self.scale // other.scale
        return _same if factor == 1 else factor.__mul__


# the walk state of a language spec once a string has left pr(K̃)'s support:
# no string over any alphabet, so pr(K̃) reads 0 there, and absorbing
_OUTSIDE = (None,)


class _LanguageTable:
    """The step table of a language spec, with the interface of an
    automaton's (`FuzzyAutomaton.table`): a state is the string itself while
    it is in pr(K̃)'s support and `_OUTSIDE` after, and top reads pr(K̃)."""

    __slots__ = ("prk", "initial")

    def __init__(self, k: FiniteSupportFuzzyLanguage):
        self.prk = fl.prefix_closure(k)
        self.initial = () if () in self.prk.degrees else _OUTSIDE

    def step(self, w: tuple, sigma: str) -> tuple:
        t = w + (sigma,)
        return t if t in self.prk.degrees else _OUTSIDE

    def top(self, w: tuple) -> Fraction:
        return self.prk(w)


class _PairWalk(dict):
    """The (plant, spec) pairs of table states met from (q̃0, p̃0), numbered
    as they are met, and the transitions between them, each computed once.

    walk[i, σ] is the move (j, row) for every s at pair i: j is the pair of
    s·σ, and row holds the degrees and verdict of the controllability row of
    (s, σ), the `ReportRow` fields after s and σ, decoded once.  A move is
    computed on its first lookup and kept, and so is S̃(s)(σ)
    (`enablement`).  `lg`, `prk`, `uc` and the enablement degrees are codes
    of `codec`.
    """

    def __init__(self, g: FuzzyAutomaton, spec: Union[FuzzyAutomaton, FiniteSupportFuzzyLanguage],
                 attrs: EventAttributes):
        super().__init__()
        self.alphabet, self.attrs = g.alphabet, attrs
        self.tg = g.table()
        # the step table pr(K̃) is read off: an automaton spec's own, or a language spec's
        if isinstance(spec, FuzzyAutomaton):
            self.tk, spec_degrees = spec.table(), fa._degrees(spec, marked=True).values()
        else:
            self.tk, spec_degrees = _LanguageTable(spec), spec.degrees.values()
        # every caller's `fa.require_pairable` gives an automaton spec g's semantics
        finite = g.semantics is Semantics.MAX_MIN
        self.codec = _Codec(
            [*fa._degrees(g, marked=True).values(), *spec_degrees, *attrs.uncontrollability.values()] if finite else None
        )
        encode = self.codec.encode
        self.uc = {e: encode(d) for e, d in attrs.uncontrollability.items()}
        start = (self.tg.initial, self.tk.initial)
        self.pairs = [start]  # id -> (plant state, spec state)
        self.ids = {start: 0}
        self.lg = [encode(self.tg.top(start[0]))]  # id -> L_G̃ of its strings
        self.prk = [encode(self.tk.top(start[1]))]  # id -> pr(K̃) of its strings
        self.enabled: Dict[Tuple[int, str], object] = {}
        self._domain: Optional[Dict[int, EventString]] = None

    def __missing__(self, key: Tuple[int, str]) -> Tuple[int, tuple]:
        i, sigma = key
        v, w = self.pairs[i]
        pair = self.tg.step(v, sigma), self.tk.step(w, sigma)
        j = self.ids.setdefault(pair, len(self.pairs))
        if j == len(self.pairs):
            self.pairs.append(pair)
            self.lg.append(self.codec.encode(self.tg.top(pair[0])))
            self.prk.append(self.codec.encode(self.tk.top(pair[1])))
        uc = self.uc[sigma] if sigma in self.uc else self.attrs.uc(sigma)  # the latter raises
        prk_s, lg, prk_next = self.prk[i], self.lg[j], self.prk[j]
        lhs = min(prk_s, uc, lg)
        move = self[key] = j, (*map(self.codec.decode, (prk_s, lg, uc, lhs, prk_next)), lhs <= prk_next)
        return move

    def enablement(self, i: int, sigma: str):
        """The code of S̃(s)(σ) for every s at pair i."""
        enabled = self.enabled.get((i, sigma))
        if enabled is None:
            j = self[i, sigma][0]
            uc, lg, prk_next = self.uc[sigma], self.lg[j], self.prk[j]
            enabled = self.enabled[i, sigma] = min(uc, lg) if uc >= prk_next else prk_next
        return enabled

    def pair(self, s: Sequence[str]) -> int:
        """The pair id of the string s."""
        i = 0
        for sigma in s:
            i = self[i, sigma][0]
        return i

    def domain(self) -> Dict[int, EventString]:
        """Pair id → witness for the strings the exact conditions range
        over: pr(K̃)'s support in (length, lex) order for a language spec,
        where each string is a pair of its own; otherwise the reachable
        pairs breadth-first with shortest witnesses, which close under
        max-min only."""
        if self._domain is None:
            if isinstance(self.tk, _LanguageTable):
                ids: Dict[EventString, int] = {}
                for s in self.tk.prk.support():  # prefix-closed and sorted by length: parents first
                    ids[s] = self[ids[s[:-1]], s[-1]][0] if s else 0
                self._domain = {i: s for s, i in ids.items()}
            else:
                graph = reachability._bfs(0, self.alphabet, lambda i, sigma: self[i, sigma][0], int, None)
                self._domain = {i: graph.witness[k] for k, i in enumerate(graph.nodes)}
        return self._domain


def _require_exact(
    g: FuzzyAutomaton, spec: Union[FuzzyAutomaton, FiniteSupportFuzzyLanguage], attrs: EventAttributes
) -> None:
    """The preconditions of an exact check: a matching spec, max-min if it
    is an automaton, and attributes for g's alphabet."""
    if isinstance(spec, FuzzyAutomaton) and (
        g.semantics is not Semantics.MAX_MIN or spec.semantics is not Semantics.MAX_MIN
    ):
        raise SemanticsMismatch(
            "the pair-class check is exact for max-min systems only; "
            "use check_n_controllability for max-product"
        )
    fa.require_pairable(g, spec)
    attrs.require_alphabet(g.alphabet)


def _exact_moves(walk: _PairWalk) -> List[Tuple[EventString, str, tuple]]:
    """(s, σ, row) for each (s, σ) of the walk's domain, every move computed."""
    return [(s, sigma, walk[i, sigma][1]) for i, s in walk.domain().items() for sigma in walk.alphabet]


def _exact_report(walk: _PairWalk) -> ControllabilityReport:
    """The exact check: a row for each (s, σ) of the walk's domain, and a
    warning at the first s with pr(K̃)(s) > L_G̃(s)."""
    domain, lg, prk, decode = walk.domain(), walk.lg, walk.prk, walk.codec.decode
    warnings: List[str] = []
    i = next((i for i in domain if prk[i] > lg[i]), None)
    if i is not None:
        warnings.append(
            f"pr(K) is not contained in L(G): at {string_to_text(domain[i])} "
            f"pr(K)={format_degree(decode(prk[i]))} > L(G)={format_degree(decode(lg[i]))}"
        )
    return _finish([ReportRow(s, sigma, *row) for s, sigma, row in _exact_moves(walk)], warnings)


def check_controllability(
    g: FuzzyAutomaton, h: FuzzyAutomaton, attrs: EventAttributes
) -> ControllabilityReport:
    """Exact check over the reachable pair classes (max-min only).

    h is the specification automaton generating pr(K̃).
    """
    _require_exact(g, h, attrs)
    return _exact_report(_PairWalk(g, h, attrs))


def check_language_controllability(
    g: FuzzyAutomaton, k: FiniteSupportFuzzyLanguage, attrs: EventAttributes
) -> ControllabilityReport:
    """Exact check of a finite-support specification against the plant's
    generated language: outside pr(K̃)'s support the condition is 0 ≤ rhs."""
    _require_exact(g, k, attrs)
    return _exact_report(_PairWalk(g, k, attrs))


def check_n_controllability(
    g: FuzzyAutomaton,
    spec: Union[FuzzyAutomaton, FiniteSupportFuzzyLanguage],
    attrs: EventAttributes,
    n: int,
    progress: Optional[Callable[[int], None]] = None,
) -> ControllabilityReport:
    """Bounded check over every string of length ≤ n (both semantics).

    Enumerates the full string tree — (Σ_{i=0..n} |Σ|^i)·|Σ| rows — and
    reports progress through the optional callback.  Each string carries
    its pair id, so a row shares the degrees and verdict of its
    transition, computed once for all the strings that take it.
    """
    reachability._require_bound("n", n)
    attrs.require_alphabet(g.alphabet)
    fa.require_pairable(g, spec)
    walk = _PairWalk(g, spec, attrs)
    rows: List[ReportRow] = []
    for s, i in _strings(n, g.alphabet, 0, lambda i, sigma: walk[i, sigma][0]):
        rows.extend(ReportRow(s, sigma, *walk[i, sigma][1]) for sigma in g.alphabet)
        if progress is not None:
            progress(len(rows))
    return _finish(rows, [], n)


def check_sufficient_condition(
    g: FuzzyAutomaton, k: FiniteSupportFuzzyLanguage, attrs: EventAttributes
) -> bool:
    """K̃(s·σ) ≥ min(Σ̃uc(σ), L_G̃(s·σ)) on pr(K̃)'s support — a stronger,
    cheaper condition that implies controllability."""
    attrs.require_alphabet(g.alphabet)
    fa.require_pairable(g, k)
    walk = _PairWalk(g, k, attrs)
    return all(
        walk.codec.encode(k(s + (sigma,))) >= min(walk.uc[sigma], walk.lg[walk[i, sigma][0]])
        for i, s in walk.domain().items()
        for sigma in g.alphabet
    )


# ---------------------------------------------------------------------------
# supervisors


@dataclass
class SynthesizedSupervisor:
    """Lazy realization of the constructive supervisor above."""

    plant: FuzzyAutomaton
    attrs: EventAttributes
    spec: Union[FuzzyAutomaton, FiniteSupportFuzzyLanguage]
    check_passed: Optional[bool] = None
    # the (plant, spec) pair walk every enablement degree is read off
    _walk: _PairWalk = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fa.require_pairable(self.plant, self.spec)
        self._walk = _PairWalk(self.plant, self.spec, self.attrs)

    @property
    def alphabet(self) -> Tuple[str, ...]:
        return self.plant.alphabet

    def enablement_degree(self, s: EventString, sigma: str) -> Fraction:
        return self._walk.codec.decode(self._walk.enablement(self._walk.pair(s), sigma))

    def rows(self) -> List[Tuple[EventString, Dict[str, Fraction]]]:
        """One representative enablement row per distinguishable input."""
        if isinstance(self.spec, FuzzyAutomaton) and self.plant.semantics is not Semantics.MAX_MIN:
            raise SemanticsMismatch("no finite representative table for a max-product pair")
        walk, decode = self._walk, self._walk.codec.decode
        return [
            (s, {sigma: decode(walk.enablement(i, sigma)) for sigma in self.alphabet})
            for i, s in walk.domain().items()
        ]


@dataclass
class ExplicitSupervisor:
    """A finite enablement table; unlisted (s, σ) fall back to the default."""

    alphabet: Tuple[str, ...]
    table: Dict[EventString, Dict[str, Fraction]]
    default: Fraction = ZERO

    def __post_init__(self):
        self.alphabet = tuple(self.alphabet)
        self.table = {
            tuple(s): {str(e): parse_degree(d) for e, d in row.items()}
            for s, row in self.table.items()
        }
        for s, row in self.table.items():
            undeclared = (set(s) | set(row)) - set(self.alphabet)
            if undeclared:
                raise AlphabetMismatch(
                    f"supervisor row {string_to_text(s)} uses undeclared events {sorted(undeclared)}"
                )
        self.default = parse_degree(self.default)

    def enablement_degree(self, s: EventString, sigma: str) -> Fraction:
        return self.table.get(tuple(s), {}).get(sigma, self.default)


Supervisor = Union[SynthesizedSupervisor, ExplicitSupervisor]


# the string-length bound of the check synthesis runs for a max-product automaton spec
CHECK_DEPTH = 8


def synthesize_supervisor(
    g: FuzzyAutomaton,
    spec: Union[FuzzyAutomaton, FiniteSupportFuzzyLanguage],
    attrs: EventAttributes,
) -> SynthesizedSupervisor:
    """Build the constructive supervisor and flag whether the matching
    controllability check passes (synthesis itself is total), read off the
    supervisor's own walk.  The check is exact over the walk's domain but
    for a max-product automaton spec, whose check covers the pair ids of
    the strings of length ≤ `CHECK_DEPTH`: a bounded row reads its string
    only through its pair id."""
    sup = SynthesizedSupervisor(g, attrs, spec)
    walk = sup._walk
    if isinstance(spec, FuzzyAutomaton) and g.semantics is not Semantics.MAX_MIN:
        attrs.require_alphabet(g.alphabet)
        step = lambda i, sigma: walk[i, sigma][0]
        ids = dict.fromkeys(i for _, i in _strings(CHECK_DEPTH, g.alphabet, 0, step, _same))
    else:
        _require_exact(g, spec, attrs)
        ids = walk.domain()
    # every move computed, so the supervisor's rows step no table later
    sup.check_passed = all([walk[i, sigma][1][-1] for i in ids for sigma in g.alphabet])
    return sup


def _controlled(
    sup: Supervisor, g: FuzzyAutomaton, extra: Iterable[Fraction] = ()
) -> Tuple[_Codec, tuple, Callable[[tuple, str], tuple]]:
    """(codec, start, step) for `_strings` over the controlled system: the
    state of a string t = s·σ is (g's table state, the supervisor's walk
    state, L_G̃(t), S̃(s)(σ)), and the empty string's last two are 1.  The
    degrees are codes of codec, whose set holds g's degrees and marked
    entries, the supervisor's degrees and extra; it is the identity when g
    or a synthesized supervisor is max-product.  A synthesized supervisor's
    walk state is its pair id, an explicit one's the string itself."""
    fa.require_same_alphabet(sup, g)
    table = g.table()
    if isinstance(sup, SynthesizedSupervisor):
        walk = sup._walk
        sup_degrees = walk.codec.degrees
    else:
        sup_degrees = [sup.default, *(d for row in sup.table.values() for d in row.values())]
    finite = g.semantics is Semantics.MAX_MIN and sup_degrees is not None
    codec = _Codec([*fa._degrees(g, marked=True).values(), *sup_degrees, *extra] if finite else None)
    encode = codec.encode
    if isinstance(sup, SynthesizedSupervisor):
        recode, start = codec.recode(walk.codec), 0
        follow = lambda i, sigma: (recode(walk.enablement(i, sigma)), walk[i, sigma][0])
    else:
        start = ()
        follow = lambda s, sigma: (encode(sup.enablement_degree(s, sigma)), s + (sigma,))
    lg = lru_cache(maxsize=None)(lambda v: encode(table.top(v)))

    def step(state, sigma):
        v = table.step(state[0], sigma)
        enabled, w = follow(state[1], sigma)
        return v, w, lg(v), enabled

    one = encode(ONE)
    return codec, (table.initial, start, one, one), step


def controlled_generated_degree(sup: Supervisor, g: FuzzyAutomaton, s: Sequence[str]) -> Fraction:
    """L_{S̃/G̃}: ε ↦ 1, then min(previous, L_G̃(s·σ), S̃(s)(σ)) along the string."""
    codec, state, step = _controlled(sup, g)
    degree = state[2]
    for sigma in s:
        state = step(state, sigma)
        degree = min(degree, state[2], state[3])
    return codec.decode(degree)


def controlled_marked_degree(sup: Supervisor, g: FuzzyAutomaton, s: Sequence[str]) -> Fraction:
    """L_{S̃/G̃,m} = L_{S̃/G̃} ∩̃ L_{G̃,m}."""
    return min(controlled_generated_degree(sup, g, s), fa.marked_degree(g, s))


class AdmissibilityResult(NamedTuple):
    ok: bool
    counterexample: Optional[Tuple[EventString, str, Fraction, Fraction]]
    domain: str


def check_admissibility(
    sup: Supervisor, g: FuzzyAutomaton, attrs: EventAttributes, n: Optional[int] = None
) -> AdmissibilityResult:
    """min(Σ̃uc(σ), L_G̃(s·σ)) ≤ S̃(s)(σ).

    Exact over reachable pair classes for a max-min supervisor synthesized
    for g itself from an automaton spec; otherwise checked on all strings of
    length ≤ n (the result names the domain used).  For a supervisor of
    another plant, one pair class of g can hold strings the supervisor
    treats differently, so the pair classes are not exact there.
    """
    reachability._require_bound("n", n)
    attrs.require_alphabet(g.alphabet)
    # a max-min supervisor of g itself from an automaton spec, whose pair classes are g's
    exact = (
        n is None
        and isinstance(sup, SynthesizedSupervisor)
        and isinstance(sup.spec, FuzzyAutomaton)
        and (sup.plant is g or (sup.plant == g and sup.plant.alphabet == g.alphabet))
        and g.semantics is Semantics.MAX_MIN
    )
    # (s·σ, required, provided) for each (s, σ) of the domain, in order, as codes of codec
    if exact:
        domain = "exact (reachable pair classes)"
        walk = sup._walk
        codec = _Codec([*walk.codec.degrees, *attrs.uncontrollability.values()])
        uc, recode = {e: codec.encode(attrs.uc(e)) for e in g.alphabet}, codec.recode(walk.codec)
        checks = (
            (s + (sigma,), min(uc[sigma], recode(walk.lg[walk[i, sigma][0]])), recode(walk.enablement(i, sigma)))
            for i, s in walk.domain().items()
            for sigma in g.alphabet
        )
    else:
        bound = 6 if n is None else n
        domain = f"strings of length ≤ {bound}"
        codec, start, step = _controlled(sup, g, attrs.uncontrollability.values())
        uc = {e: codec.encode(attrs.uc(e)) for e in g.alphabet}
        # (s, σ) is checked at the string s·σ, one longer than s, and reads s only
        # through (g's table state, the supervisor's walk state); only a pair id repeats
        cls = itemgetter(0, 1) if isinstance(sup, SynthesizedSupervisor) else None
        checks = (
            (t, min(uc[t[-1]], lg), provided)
            for t, (_, _, lg, provided) in _strings(bound + 1, g.alphabet, start, step, cls)
            if t
        )
    t, required, provided = next((c for c in checks if c[1] > c[2]), ((), None, None))
    violation = (t[:-1], t[-1], codec.decode(required), codec.decode(provided)) if t else None
    return AdmissibilityResult(violation is None, violation, domain)


# ---------------------------------------------------------------------------
# nonblocking


@dataclass
class NonblockingReport:
    condition_a: bool
    condition_a_witness: Optional[EventString]
    condition_b: bool
    condition_b_witness: Optional[ReportRow]
    direct_ok: bool
    direct_witness: Optional[EventString]
    depth_used: int
    warnings: List[str]
    nonblocking: bool

    def render_text(self) -> str:
        lines = [
            f"K = pr(K) ∩ L(G,m):        {'T' if self.condition_a else 'F'}"
            + (f"  (first failure at {string_to_text(self.condition_a_witness)})" if self.condition_a_witness else ""),
            f"controllability condition: {'T' if self.condition_b else 'F'}"
            + (
                f"  (violated at ({string_to_text(self.condition_b_witness.representative)}, {self.condition_b_witness.event}))"
                if self.condition_b_witness
                else ""
            ),
            f"pr(L(S/G,m)) = L(S/G):     {'T' if self.direct_ok else 'F'}"
            + (f"  (diverges at {string_to_text(self.direct_witness)})" if self.direct_witness else "")
            + f"  [checked to depth {self.depth_used}]",
            f"verdict: {'nonblocking' if self.nonblocking else 'blocking'}",
        ]
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "schema_version": "1",
            "kind": "nonblocking-report",
            "condition_a": self.condition_a,
            "condition_a_witness": string_to_text(self.condition_a_witness) if self.condition_a_witness else None,
            "condition_b": self.condition_b,
            "condition_b_witness": (
                {
                    "s": string_to_text(self.condition_b_witness.representative),
                    "event": self.condition_b_witness.event,
                }
                if self.condition_b_witness
                else None
            ),
            "direct_ok": self.direct_ok,
            "direct_witness": string_to_text(self.direct_witness) if self.direct_witness else None,
            "depth_used": self.depth_used,
            "warnings": list(self.warnings),
            "nonblocking": self.nonblocking,
        }


def check_nonblocking(
    sup: Supervisor,
    g: FuzzyAutomaton,
    k: FiniteSupportFuzzyLanguage,
    attrs: EventAttributes,
    depth: Optional[int] = None,
) -> NonblockingReport:
    """Check the two nonblocking conditions and, independently, compare
    pr(L_{S̃/G̃,m}) with L_{S̃/G̃} on all strings to `depth`.

    The hypotheses K̃(ε) = 1 and pr(K̃) ⊆ L_{G̃,m} are diagnosed as warnings,
    not failures: the verdicts below are computed regardless.
    """
    reachability._require_bound("depth", depth)
    _require_exact(g, k, attrs)
    warnings: List[str] = []
    if k(()) != ONE:
        warnings.append(f"K(ε) = {format_degree(k(()))}, expected 1")
    walk = _PairWalk(g, k, attrs)
    # L(G,m) of the strings that reach a table state, as walks meet states again
    marked = lru_cache(maxsize=None)(lambda v: fa.marked_at(g, walk.tg.decode(v)))

    # one pass over pr(K)'s support for the hypothesis pr(K) ⊆ L(G,m) and
    # (a)  K = pr(K) ∩ L(G,m), trivially 0 = 0 outside pr(K)'s support
    contained, condition_a, a_witness = True, True, None
    for i, t in walk.domain().items():
        prk, lm = walk.codec.decode(walk.prk[i]), marked(walk.pairs[i][0])
        if contained and prk > lm:
            contained = False
            warnings.append(
                f"pr(K) is not contained in L(G,m): at {string_to_text(t)} "
                f"pr(K)={format_degree(prk)} > L(G,m)={format_degree(lm)}"
            )
        if condition_a and k(t) != min(prk, lm):
            condition_a, a_witness = False, t

    # (b)  the controllability condition for K against L(G), on the same walk
    b_witness = next((ReportRow(s, sigma, *row) for s, sigma, row in _exact_moves(walk) if not row[-1]), None)

    # direct bounded comparison for the supervisor actually given, on codes
    if depth is None:
        depth = max(map(len, walk.domain().values()), default=0) + 2
    codec, start, step = _controlled(sup, g)
    marked_code = lru_cache(maxsize=None)(lambda v: codec.encode(marked(v)))
    # events in name order, so the strings come in the witness order: length, then names
    gen: Dict[EventString, object] = {}
    pr_marked: Dict[EventString, object] = {}
    for s, (v, _, lg, enabled) in _strings(depth, sorted(g.alphabet), start, step):
        gen[s] = min(gen[s[:-1]], lg, enabled) if s else start[2]
        pr_marked[s] = min(gen[s], marked_code(v))
    for s in reversed(gen):  # longest first
        if s and pr_marked[s] > pr_marked[s[:-1]]:
            pr_marked[s[:-1]] = pr_marked[s]
    direct_witness = next((s for s in gen if pr_marked[s] != gen[s]), None)
    direct_ok = direct_witness is None

    return NonblockingReport(
        condition_a=condition_a,
        condition_a_witness=a_witness,
        condition_b=b_witness is None,
        condition_b_witness=b_witness,
        direct_ok=direct_ok,
        direct_witness=direct_witness,
        depth_used=depth,
        warnings=warnings,
        nonblocking=condition_a and b_witness is None and direct_ok,
    )


# ---------------------------------------------------------------------------
# crisp specialization


def crisp_active_events(h: FuzzyAutomaton, s: Sequence[str]) -> set:
    """Γ_H after executing s: the events with a possible next transition.

    Realizes the classical active-event supervisor S(s) = Γ_H(δ(q0, s))
    for crisp specifications.
    """
    if not h.is_crisp():
        raise NotCrisp("crisp_active_events needs {0,1} degrees")
    # on {0,1} degrees a fuzzy state is the indicator of H's current states
    table = h.table()
    q = table.initial
    for sigma in s:
        q = table.step(q, sigma)
        if table.top(q) == ZERO:
            raise StringNotInLanguage(f"{string_to_text(tuple(s))} is not in L(H)")
    return {sigma for sigma in h.alphabet if table.top(table.step(q, sigma)) == ONE}
