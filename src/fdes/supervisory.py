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
with a default.  For a max-min automaton spec, S̃(s)(σ) too depends on s
only through its pair class.

The conditions are evaluated on three finite string domains, each with one
walker: the reachable pair classes (`_pair_successors`), pr(K̃)'s support
(`_support_walk`) and all strings of length ≤ n (`_strings`).  The last two
step each string's plant, spec and supervisor state from its parent's
(`_state_walk`, `_spec_reader`, `_follower`), so none replays from q̃0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache, partial
from operator import attrgetter
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import automaton as fa
from . import language as fl
from . import reachability
from .algebra import ONE, ZERO, Semantics, format_degree, format_table, max_element, parse_degree
from .automaton import EventString, FuzzyAutomaton, string_to_text
from .errors import AlphabetMismatch, NotCrisp, ParseError, SemanticsMismatch, StringNotInLanguage
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


@dataclass
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
        lines = format_table([REPORT_HEADERS] + [
            (string_to_text(r.representative), r.event, *map(format_degree, _row_degrees(r)), "T" if r.verdict else "F")
            for r in self.rows
        ])
        lines.append(f"overall: {'T' if self.overall else 'F'}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        keys = ("s", "event", *DEGREE_FIELDS, "verdict")
        return {
            "schema_version": "1",
            "kind": "controllability-report",
            "overall": self.overall,
            "n": self.n,
            "warnings": list(self.warnings),
            "rows": [
                dict(zip(keys, (
                    string_to_text(r.representative) if r.representative else "",
                    r.event,
                    *map(format_degree, _row_degrees(r)),
                    r.verdict,
                )))
                for r in self.rows
            ],
        }


def _make_row(s, sigma, prK_s, lg, uc_val, prK_s_sigma) -> ReportRow:
    lhs = min(prK_s, uc_val, lg)
    return ReportRow(s, sigma, prK_s, lg, uc_val, lhs, prK_s_sigma, lhs <= prK_s_sigma)


def _finish(rows: List[ReportRow], warnings: List[str], n: Optional[int] = None) -> ControllabilityReport:
    counterexample = next((r for r in rows if not r.verdict), None)
    return ControllabilityReport(rows, counterexample is None, counterexample, warnings, n)


def _node_degrees(pairs: reachability.ReachableStateGraph) -> Tuple[List[Fraction], List[Fraction]]:
    """L_G̃ and pr(K̃) at each (plant, spec) pair node: the largest entries."""
    return [max_element(vg) for vg, _ in pairs.nodes], [max_element(vh) for _, vh in pairs.nodes]


def _enablement(uc: Fraction, lg_next: Fraction, prk_next: Fraction) -> Fraction:
    """The constructive rule S̃(s)(σ) from Σ̃uc(σ), L_G̃(s·σ) and pr(K̃)(s·σ)."""
    return min(uc, lg_next) if uc >= prk_next else prk_next


def _pair_successors(pairs: reachability.ReachableStateGraph, attrs: EventAttributes):
    """(i, s, σ, Σ̃uc(σ), j) for each pair node i, in witness order, with its
    witness s and each event σ in alphabet order, where j is the σ-successor
    node of i read off the graph's edges."""
    uc = [(sigma, attrs.uc(sigma)) for sigma in pairs.events]
    for i, s in pairs.witness.items():
        for sigma, uc_sigma in uc:
            yield i, s, sigma, uc_sigma, pairs.edges[(i, sigma)]


def _support_walk(prk: FiniteSupportFuzzyLanguage, start, step: Callable) -> Iterator[Tuple[EventString, object]]:
    """(s, v) for each string s of pr(K̃)'s support in (length, lex) order,
    where v is one step(v, σ) from the state of s's parent: the support is
    prefix-closed and sorted by length, so the parent came first."""
    states = {}
    for s in prk.support():
        states[s] = v = step(states[s[:-1]], s[-1]) if s else start
        yield s, v


def _strings(depth: int, alphabet: Sequence[str], start, step: Callable) -> Iterator[Tuple[EventString, object]]:
    """(s, state) for every string s of length ≤ depth, level by level with
    events in alphabet order; step(state, s, σ) gives the state of s·σ from
    that of s.  One level is held for the next, and the last one not at all."""
    level = [((), start)]
    yield level[0]
    for length in range(1, depth + 1):
        parents, level = level, []
        for s, state in parents:
            for sigma in alphabet:
                child = (s + (sigma,), step(state, s, sigma))
                yield child
                if length < depth:
                    level.append(child)


def _require_bound(name: str, bound: Optional[int]) -> None:
    """A string-length bound from the caller must not be negative."""
    if bound is not None and bound < 0:
        raise ParseError(f"{name} must be ≥ 0")


def _state_walk(g: FuzzyAutomaton) -> Tuple[tuple, Callable, Callable, Callable]:
    """How a walk over strings carries g's fuzzy state: (start, step, top,
    marked), where step(v, σ) is the next state, and top(v) and marked(v)
    are L_G̃ and L_G̃,m of the strings that reach v, marked memoized as walks
    meet states again.  Max-min automata are walked in rank space
    (`FuzzyAutomaton.ranks`), so no step encodes or decodes."""
    if g.semantics is Semantics.MAX_MIN:
        table = g.ranks()
        values = table.values
        start, step, top, vector = table.initial, table.step, lambda r: values[max(r)], table.decode
    else:
        start, step, top, vector = g.initial, partial(fa.step, g), max_element, lambda v: v
    return start, step, top, lru_cache(maxsize=None)(lambda v: fa.marked_at(g, vector(v)))


def _require_matching_spec(g: FuzzyAutomaton, spec: Union[FuzzyAutomaton, FiniteSupportFuzzyLanguage]) -> None:
    """A specification must share g's alphabet, and an automaton spec also
    g's semantics."""
    if isinstance(spec, FuzzyAutomaton):
        fa.require_same_alphabet(g, spec)
        if spec.semantics is not g.semantics:
            raise SemanticsMismatch("plant and specification must share semantics")
    elif set(spec.alphabet) != set(g.alphabet):
        raise AlphabetMismatch(
            f"language alphabet {sorted(spec.alphabet)} != plant alphabet {sorted(g.alphabet)}"
        )


def _spec_reader(spec: Union[FuzzyAutomaton, FiniteSupportFuzzyLanguage]) -> Tuple[object, Callable, Callable]:
    """How a walk over strings reads pr(K̃) off a specification: (start,
    step, prk) as in `_state_walk`, where prk(w) is pr(K̃)(s).  An automaton
    spec is walked by its fuzzy state, a language spec by the string itself."""
    if isinstance(spec, FuzzyAutomaton):
        return _state_walk(spec)[:3]
    return (), lambda s, sigma: s + (sigma,), fl.prefix_closure(spec)


def check_controllability(
    g: FuzzyAutomaton, h: FuzzyAutomaton, attrs: EventAttributes
) -> ControllabilityReport:
    """Exact check over the reachable pair classes (max-min only).

    h is the specification automaton generating pr(K̃).
    """
    return _check_pair_classes(g, h, attrs)[0]


def _check_pair_classes(
    g: FuzzyAutomaton, h: FuzzyAutomaton, attrs: EventAttributes
) -> Tuple[ControllabilityReport, reachability.ReachableStateGraph]:
    """check_controllability, also returning the pair graph it checked;
    each row reads its successor pair off the graph's edges."""
    if g.semantics is not Semantics.MAX_MIN or h.semantics is not Semantics.MAX_MIN:
        raise SemanticsMismatch(
            "the pair-class check is exact for max-min systems only; "
            "use check_n_controllability for max-product"
        )
    fa.require_same_alphabet(g, h)
    attrs.require_alphabet(g.alphabet)
    pairs = reachability.enumerate_pairs(g, h)
    lg, prk = _node_degrees(pairs)
    warnings: List[str] = []
    i = next((i for i in pairs.witness if prk[i] > lg[i]), None)
    if i is not None:
        warnings.append(
            f"pr(K) is not contained in L(G): at {string_to_text(pairs.witness[i])} "
            f"pr(K)={format_degree(prk[i])} > L(G)={format_degree(lg[i])}"
        )
    rows = [
        _make_row(s, sigma, prk[i], lg[j], uc_sigma, prk[j])
        for i, s, sigma, uc_sigma, j in _pair_successors(pairs, attrs)
    ]
    return _finish(rows, warnings), pairs


def check_language_controllability(
    g: FuzzyAutomaton, k: FiniteSupportFuzzyLanguage, attrs: EventAttributes
) -> ControllabilityReport:
    """Exact check of a finite-support specification against the plant's
    generated language: outside pr(K̃)'s support the condition is 0 ≤ rhs."""
    _require_matching_spec(g, k)
    attrs.require_alphabet(g.alphabet)
    prk = fl.prefix_closure(k)
    start, step, top, _ = _state_walk(g)
    rows: List[ReportRow] = []
    warnings: List[str] = []
    for s, v in _support_walk(prk, start, step):
        if prk(s) > top(v) and not warnings:
            warnings.append(
                f"pr(K) is not contained in L(G): at {string_to_text(s)} "
                f"pr(K)={format_degree(prk(s))} > L(G)={format_degree(top(v))}"
            )
        for sigma in g.alphabet:
            rows.append(_make_row(s, sigma, prk(s), top(step(v, sigma)), attrs.uc(sigma), prk(s + (sigma,))))
    return _finish(rows, warnings)


def check_n_controllability(
    g: FuzzyAutomaton,
    spec: Union[FuzzyAutomaton, FiniteSupportFuzzyLanguage],
    attrs: EventAttributes,
    n: int,
    progress: Optional[Callable[[int], None]] = None,
) -> ControllabilityReport:
    """Bounded check over every string of length ≤ n (both semantics).

    Enumerates the full string tree — (Σ_{i=0..n} |Σ|^i)·|Σ| rows — and
    reports progress through the optional callback.
    """
    _require_bound("n", n)
    attrs.require_alphabet(g.alphabet)
    _require_matching_spec(g, spec)
    g_start, g_step, lg, _ = _state_walk(g)
    k_start, k_step, prk = _spec_reader(spec)

    # the state of t = s·σ: (plant, spec, pr(K̃)(t), the row of (s, σ)), so the walk goes to n + 1
    def grow(state, s, sigma):
        v, w, prk_s, _ = state
        v, w = g_step(v, sigma), k_step(w, sigma)
        prk_t = prk(w)
        return v, w, prk_t, _make_row(s, sigma, prk_s, lg(v), attrs.uc(sigma), prk_t)

    rows: List[ReportRow] = []
    for t, (*_, row) in _strings(n + 1, g.alphabet, (g_start, k_start, prk(k_start), None), grow):
        if t:
            rows.append(row)
            if progress is not None and len(rows) % len(g.alphabet) == 0:
                progress(len(rows))
    return _finish(rows, [], n)


def check_sufficient_condition(
    g: FuzzyAutomaton, k: FiniteSupportFuzzyLanguage, attrs: EventAttributes
) -> bool:
    """K̃(s·σ) ≥ min(Σ̃uc(σ), L_G̃(s·σ)) on pr(K̃)'s support — a stronger,
    cheaper condition that implies controllability."""
    attrs.require_alphabet(g.alphabet)
    start, step, top, _ = _state_walk(g)
    return all(
        k(s + (sigma,)) >= min(attrs.uc(sigma), top(step(v, sigma)))
        for s, v in _support_walk(fl.prefix_closure(k), start, step)
        for sigma in g.alphabet
    )


# ---------------------------------------------------------------------------
# supervisors


@dataclass
class SynthesizedSupervisor:
    """Lazy realization of the constructive supervisor above."""

    plant: FuzzyAutomaton
    attrs: EventAttributes
    spec_automaton: Optional[FuzzyAutomaton] = None
    spec_language: Optional[FiniteSupportFuzzyLanguage] = None
    check_passed: Optional[bool] = None
    # the reachable (plant, spec) pair graph of a max-min automaton spec, built on first use
    _pairs: Optional[reachability.ReachableStateGraph] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if (self.spec_automaton is None) == (self.spec_language is None):
            raise ValueError("exactly one of spec_automaton / spec_language required")
        spec = self.spec_language if self.spec_automaton is None else self.spec_automaton
        _require_matching_spec(self.plant, spec)
        # (start, step, prk) for reading pr(K̃) along a walk; see _spec_reader
        self._spec = _spec_reader(spec)

    @property
    def alphabet(self) -> Tuple[str, ...]:
        return self.plant.alphabet

    def prk_degree(self, s: EventString) -> Fraction:
        w, step, prk = self._spec
        for sigma in s:
            w = step(w, sigma)
        return prk(w)

    def enablement_degree(self, s: EventString, sigma: str) -> Fraction:
        s_sigma = tuple(s) + (sigma,)
        return _enablement(
            self.attrs.uc(sigma), fa.generated_degree(self.plant, s_sigma), self.prk_degree(s_sigma)
        )

    def pair_graph(self) -> reachability.ReachableStateGraph:
        """The reachable (plant, spec) pair graph (max-min automaton spec)."""
        if self._pairs is None:
            self._pairs = reachability.enumerate_pairs(self.plant, self.spec_automaton)
        return self._pairs

    def rows(self) -> List[Tuple[EventString, Dict[str, Fraction]]]:
        """One representative enablement row per distinguishable input."""
        if self.spec_automaton is not None and self.plant.semantics is Semantics.MAX_MIN:
            pairs = self.pair_graph()
            lg, prk = _node_degrees(pairs)
            rows = {s: {} for s in pairs.witness.values()}
            for i, s, sigma, uc_sigma, j in _pair_successors(pairs, self.attrs):
                rows[s][sigma] = _enablement(uc_sigma, lg[j], prk[j])
            return list(rows.items())
        if self.spec_language is not None:
            _, _, prk = self._spec
            start, step, top, _ = _state_walk(self.plant)
            return [
                (s, {sigma: _enablement(self.attrs.uc(sigma), top(step(v, sigma)), prk(s + (sigma,)))
                     for sigma in self.alphabet})
                for s, v in _support_walk(prk, start, step)
            ]
        raise SemanticsMismatch("no finite representative table for a max-product pair")


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
        self.default = parse_degree(self.default)

    def enablement_degree(self, s: EventString, sigma: str) -> Fraction:
        return self.table.get(tuple(s), {}).get(sigma, self.default)


Supervisor = Union[SynthesizedSupervisor, ExplicitSupervisor]


def synthesize_supervisor(
    g: FuzzyAutomaton,
    spec: Union[FuzzyAutomaton, FiniteSupportFuzzyLanguage],
    attrs: EventAttributes,
    check_depth: int = 8,
) -> SynthesizedSupervisor:
    """Build the constructive supervisor; runs the matching controllability
    check first and flags the result (synthesis itself is total)."""
    _require_matching_spec(g, spec)
    if isinstance(spec, FuzzyAutomaton):
        if g.semantics is Semantics.MAX_MIN:
            report, pairs = _check_pair_classes(g, spec, attrs)
            sup = SynthesizedSupervisor(g, attrs, spec_automaton=spec, check_passed=report.overall)
            sup._pairs = pairs
            return sup
        report = check_n_controllability(g, spec, attrs, check_depth)
        return SynthesizedSupervisor(g, attrs, spec_automaton=spec, check_passed=report.overall)
    report = check_language_controllability(g, spec, attrs)
    return SynthesizedSupervisor(g, attrs, spec_language=spec, check_passed=report.overall)


def _supervises(sup: Supervisor, g: FuzzyAutomaton) -> bool:
    """Whether sup was synthesized for g itself, so that g's fuzzy states
    give it L_G̃ and g's pair classes are its own."""
    return isinstance(sup, SynthesizedSupervisor) and (
        sup.plant is g or (sup.plant == g and sup.plant.alphabet == g.alphabet)
    )


def _follower(
    sup: Supervisor, g: FuzzyAutomaton
) -> Tuple[object, Callable[[object, EventString, str, Fraction], Tuple[Fraction, object]]]:
    """How a walk over g's strings reads S̃(s)(σ): (start, follow), where
    follow(state, s, σ, lg) gives S̃(s)(σ) and the next walk state, and lg is
    L_G̃(s·σ), which the walk has from g's fuzzy state.

    A synthesized supervisor of g uses that lg and carries its spec's walk
    state (`_spec_reader`); any other supervisor is asked directly, which for
    a synthesized one replays s·σ from q̃0.
    """
    if not _supervises(sup, g):
        return None, lambda state, s, sigma, lg: (sup.enablement_degree(s, sigma), None)
    uc = sup.attrs.uc
    start, step, prk = sup._spec

    def follow(w, s, sigma, lg):
        w = step(w, sigma)
        return _enablement(uc(sigma), lg, prk(w)), w

    return start, follow


def controlled_generated_degree(sup: Supervisor, g: FuzzyAutomaton, s: Sequence[str]) -> Fraction:
    """L_{S̃/G̃}: ε ↦ 1, then min(previous, L_G̃(s·σ), S̃(s)(σ)) along the string."""
    state, follow = _follower(sup, g)
    v, step, top, _ = _state_walk(g)
    degree = ONE
    prefix: EventString = ()
    for sigma in s:
        v = step(v, sigma)
        lg = top(v)
        enabled, state = follow(state, prefix, sigma, lg)
        degree = min(degree, lg, enabled)
        prefix = prefix + (sigma,)
    return degree


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
    _require_bound("n", n)
    attrs.require_alphabet(g.alphabet)
    exact = (
        n is None
        and _supervises(sup, g)
        and sup.spec_automaton is not None
        and g.semantics is Semantics.MAX_MIN
        and sup.spec_automaton.semantics is Semantics.MAX_MIN
    )
    # (s, σ, required, provided) for each (s, σ) of the domain, in order
    if exact:
        domain = "exact (reachable pair classes)"
        pairs = sup.pair_graph()
        lg, prk = _node_degrees(pairs)
        checks = (
            (s, sigma, min(attrs.uc(sigma), lg[j]), _enablement(sup_uc, lg[j], prk[j]))
            for i, s, sigma, sup_uc, j in _pair_successors(pairs, sup.attrs)
        )
    else:
        bound = 6 if n is None else n
        domain = f"strings of length ≤ {bound}"
        start, follow = _follower(sup, g)
        v0, step, top, _ = _state_walk(g)

        def grow(state, s, sigma):
            v, w, _ = state
            v = step(v, sigma)
            lg = top(v)
            provided, w = follow(w, s, sigma, lg)
            return v, w, (s, sigma, min(attrs.uc(sigma), lg), provided)

        # (s, σ) is checked at the string s·σ, one longer than s
        checks = (c for t, (_, _, c) in _strings(bound + 1, g.alphabet, (v0, start, None), grow) if t)
    violation = next((c for c in checks if c[2] > c[3]), None)
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
    _require_bound("depth", depth)
    attrs.require_alphabet(g.alphabet)
    prk = fl.prefix_closure(k)
    warnings: List[str] = []
    if k(()) != ONE:
        warnings.append(f"K(ε) = {format_degree(k(()))}, expected 1")
    v0, step, top, marked = _state_walk(g)

    # one pass over pr(K)'s support for the hypothesis pr(K) ⊆ L(G,m) and
    # (a)  K = pr(K) ∩ L(G,m), trivially 0 = 0 outside pr(K)'s support
    contained, condition_a, a_witness = True, True, None
    for t, v in _support_walk(prk, v0, step):
        lm = marked(v)
        if contained and prk(t) > lm:
            contained = False
            warnings.append(
                f"pr(K) is not contained in L(G,m): at {string_to_text(t)} "
                f"pr(K)={format_degree(prk(t))} > L(G,m)={format_degree(lm)}"
            )
        if condition_a and k(t) != min(prk(t), lm):
            condition_a, a_witness = False, t

    # (b)  the controllability condition for K against L(G)
    report_b = check_language_controllability(g, k, attrs)

    # direct bounded comparison for the supervisor actually given
    if depth is None:
        depth = max((len(t) for t in prk.support()), default=0) + 2
    start, follow = _follower(sup, g)

    def grow(state, s, sigma):
        v, degree, w = state
        v = step(v, sigma)
        lg = top(v)
        enabled, w = follow(w, s, sigma, lg)
        return v, min(degree, lg, enabled), w

    gen: Dict[EventString, Fraction] = {}
    pr_marked: Dict[EventString, Fraction] = {}
    for s, (v, degree, _) in _strings(depth, g.alphabet, (v0, ONE, start), grow):
        gen[s] = degree
        pr_marked[s] = min(degree, marked(v))
    for s in sorted(gen, key=len, reverse=True):
        if s and pr_marked[s] > pr_marked[s[:-1]]:
            pr_marked[s[:-1]] = pr_marked[s]
    direct_witness = next((s for s in sorted(gen, key=lambda t: (len(t), t)) if pr_marked[s] != gen[s]), None)
    direct_ok = direct_witness is None

    return NonblockingReport(
        condition_a=condition_a,
        condition_a_witness=a_witness,
        condition_b=report_b.overall,
        condition_b_witness=report_b.counterexample,
        direct_ok=direct_ok,
        direct_witness=direct_witness,
        depth_used=depth,
        warnings=warnings,
        nonblocking=condition_a and report_b.overall and direct_ok,
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
    current = {i for i, d in enumerate(h.initial) if d == ONE}
    for sigma in s:
        m = h.matrix(sigma)
        current = {j for i in current for j in range(h.dim) if m[i][j] == ONE}
        if not current:
            raise StringNotInLanguage(f"{string_to_text(tuple(s))} is not in L(H)")
    return {
        sigma
        for sigma in h.alphabet
        if any(h.events[sigma][i][j] == ONE for i in current for j in range(h.dim))
    }
