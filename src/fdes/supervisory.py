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
only through its pair class, so the synthesized supervisor's rows and the
exact admissibility check read it off the reachable pair graph, and walks
over strings carry the plant's fuzzy state instead of replaying s from q̃0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import automaton as fa
from . import language as fl
from . import reachability
from .algebra import ZERO, ONE, Semantics, format_degree, max_element, inner_sup, parse_degree
from .automaton import EventString, FuzzyAutomaton, string_to_text
from .errors import AlphabetMismatch, NotCrisp, SemanticsMismatch, StringNotInLanguage
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


@dataclass
class ControllabilityReport:
    rows: List[ReportRow]
    overall: bool
    counterexample: Optional[ReportRow]
    warnings: List[str] = field(default_factory=list)
    n: Optional[int] = None

    def render_text(self, first_failure: bool = False) -> str:
        rows = self.rows
        if first_failure:
            for i, row in enumerate(rows):
                if not row.verdict:
                    rows = rows[: i + 1]
                    break
        cells = [REPORT_HEADERS]
        for r in rows:
            cells.append(
                (
                    string_to_text(r.representative),
                    r.event,
                    format_degree(r.prK_s),
                    format_degree(r.LG_s_sigma),
                    format_degree(r.sigma_uc),
                    format_degree(r.lhs),
                    format_degree(r.prK_s_sigma),
                    "T" if r.verdict else "F",
                )
            )
        widths = [max(len(row[c]) for row in cells) for c in range(len(REPORT_HEADERS))]
        lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
        lines.append(f"overall: {'T' if self.overall else 'F'}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
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
                    "prK_s": format_degree(r.prK_s),
                    "LG_s_sigma": format_degree(r.LG_s_sigma),
                    "sigma_uc": format_degree(r.sigma_uc),
                    "lhs": format_degree(r.lhs),
                    "prK_s_sigma": format_degree(r.prK_s_sigma),
                    "verdict": r.verdict,
                }
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
    if set(k.alphabet) != set(g.alphabet):
        raise AlphabetMismatch(
            f"language alphabet {sorted(k.alphabet)} != plant alphabet {sorted(g.alphabet)}"
        )
    attrs.require_alphabet(g.alphabet)
    prk = fl.prefix_closure(k)
    rows: List[ReportRow] = []
    warnings: List[str] = []
    for s in prk.support():
        v = fa.run(g, s)
        lg_s = max_element(v)
        if prk(s) > lg_s and not warnings:
            warnings.append(
                f"pr(K) is not contained in L(G): at {string_to_text(s)} "
                f"pr(K)={format_degree(prk(s))} > L(G)={format_degree(lg_s)}"
            )
        for sigma in g.alphabet:
            rows.append(
                _make_row(
                    s,
                    sigma,
                    prk(s),
                    max_element(fa.step(g, v, sigma)),
                    attrs.uc(sigma),
                    prk(s + (sigma,)),
                )
            )
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
    if n < 0:
        raise ValueError("n must be ≥ 0")
    attrs.require_alphabet(g.alphabet)
    spec_is_automaton = isinstance(spec, FuzzyAutomaton)
    if spec_is_automaton:
        fa.require_same_alphabet(g, spec)
        if spec.semantics is not g.semantics:
            raise SemanticsMismatch("plant and specification must share semantics")
    else:
        if set(spec.alphabet) != set(g.alphabet):
            raise AlphabetMismatch("language alphabet differs from the plant's")
        prk = fl.prefix_closure(spec)
    rows: List[ReportRow] = []
    level: List[Tuple[EventString, tuple, Optional[tuple]]] = [
        ((), g.initial, spec.initial if spec_is_automaton else None)
    ]
    for _ in range(n + 1):
        next_level = []
        for s, vg, vh in level:
            prK_s = max_element(vh) if spec_is_automaton else prk(s)
            for sigma in g.alphabet:
                vg2 = fa.step(g, vg, sigma)
                vh2 = fa.step(spec, vh, sigma) if spec_is_automaton else None
                prK_s2 = max_element(vh2) if spec_is_automaton else prk(s + (sigma,))
                rows.append(
                    _make_row(s, sigma, prK_s, max_element(vg2), attrs.uc(sigma), prK_s2)
                )
                next_level.append((s + (sigma,), vg2, vh2))
            if progress is not None:
                progress(len(rows))
        level = next_level
    # the last level's strings were row subjects already; their successors are beyond n
    return _finish(rows, [], n)


def check_sufficient_condition(
    g: FuzzyAutomaton, k: FiniteSupportFuzzyLanguage, attrs: EventAttributes
) -> bool:
    """K̃(s·σ) ≥ min(Σ̃uc(σ), L_G̃(s·σ)) on pr(K̃)'s support — a stronger,
    cheaper condition that implies controllability."""
    attrs.require_alphabet(g.alphabet)
    prk = fl.prefix_closure(k)
    for s in prk.support():
        v = fa.run(g, s)
        for sigma in g.alphabet:
            bound = min(attrs.uc(sigma), max_element(fa.step(g, v, sigma)))
            if k(s + (sigma,)) < bound:
                return False
    return True


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
        if self.spec_language is not None:
            self._prk = fl.prefix_closure(self.spec_language)

    @property
    def alphabet(self) -> Tuple[str, ...]:
        return self.plant.alphabet

    def prk_degree(self, s: EventString) -> Fraction:
        if self.spec_automaton is not None:
            return fa.generated_degree(self.spec_automaton, s)
        return self._prk(s)

    def enablement_degree(self, s: EventString, sigma: str) -> Fraction:
        s_sigma = tuple(s) + (sigma,)
        return _enablement(
            self.attrs.uc(sigma), fa.generated_degree(self.plant, s_sigma), self.prk_degree(s_sigma)
        )

    def enablement(self, s: EventString) -> Dict[str, Fraction]:
        return {sigma: self.enablement_degree(s, sigma) for sigma in self.alphabet}

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
            return [(s, self.enablement(s)) for s in self._prk.support()]
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

    def enablement(self, s: EventString) -> Dict[str, Fraction]:
        return {sigma: self.enablement_degree(s, sigma) for sigma in self.alphabet}


Supervisor = Union[SynthesizedSupervisor, ExplicitSupervisor]


def synthesize_supervisor(
    g: FuzzyAutomaton,
    spec: Union[FuzzyAutomaton, FiniteSupportFuzzyLanguage],
    attrs: EventAttributes,
    check_depth: int = 8,
) -> SynthesizedSupervisor:
    """Build the constructive supervisor; runs the matching controllability
    check first and flags the result (synthesis itself is total)."""
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


def _state_walk(g: FuzzyAutomaton) -> Tuple[tuple, Callable, Callable, Callable]:
    """How a walk over strings carries g's fuzzy state: (start, step, top,
    vector), where step(v, σ) is the next state, top(v) its generated degree
    and vector(v) its Fraction vector.  Max-min automata are walked in rank
    space (`FuzzyAutomaton.ranks`), so no step encodes or decodes."""
    if g.semantics is Semantics.MAX_MIN:
        table = g.ranks()
        values = table.values
        return table.initial, table.step, lambda r: values[max(r)], table.decode
    return g.initial, lambda v, sigma: fa.step(g, v, sigma), max_element, lambda v: v


_Follow = Callable[[object, EventString, str, Fraction], Tuple[Fraction, object]]


def _follower(sup: Supervisor, g: FuzzyAutomaton) -> Tuple[object, _Follow]:
    """How a walk over g's strings reads S̃(s)(σ): (start, follow), where
    follow(state, s, σ, lg) gives S̃(s)(σ) and the next walk state, and lg is
    L_G̃(s·σ), which the walk has from g's fuzzy state.

    A synthesized supervisor of g uses that lg and carries its spec
    automaton's fuzzy state as the walk state; any other supervisor is asked
    directly, which for a synthesized one replays s·σ from q̃0.
    """
    if not _supervises(sup, g):
        return None, lambda state, s, sigma, lg: (sup.enablement_degree(s, sigma), None)
    uc = sup.attrs.uc
    if sup.spec_automaton is None:
        prk = sup._prk
        return None, lambda state, s, sigma, lg: (_enablement(uc(sigma), lg, prk(s + (sigma,))), None)
    start, step, top, _ = _state_walk(sup.spec_automaton)

    def follow(w, s, sigma, lg):
        w = step(w, sigma)
        return _enablement(uc(sigma), lg, top(w)), w

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
    attrs.require_alphabet(g.alphabet)
    exact = (
        n is None
        and _supervises(sup, g)
        and sup.spec_automaton is not None
        and g.semantics is Semantics.MAX_MIN
        and sup.spec_automaton.semantics is Semantics.MAX_MIN
    )
    if exact:
        domain = "exact (reachable pair classes)"
        pairs = sup.pair_graph()
        lg, prk = _node_degrees(pairs)
        for i, s, sigma, sup_uc, j in _pair_successors(pairs, sup.attrs):
            required = min(attrs.uc(sigma), lg[j])
            provided = _enablement(sup_uc, lg[j], prk[j])
            if required > provided:
                return AdmissibilityResult(False, (s, sigma, required, provided), domain)
        return AdmissibilityResult(True, None, domain)

    bound = 6 if n is None else n
    domain = f"strings of length ≤ {bound}"
    start, follow = _follower(sup, g)
    v0, step, top, _ = _state_walk(g)
    level: List[Tuple[EventString, tuple, object]] = [((), v0, start)]
    for length in range(bound + 1):
        next_level = []
        for s, v, state in level:
            for sigma in g.alphabet:
                v2 = step(v, sigma)
                lg = top(v2)
                provided, state2 = follow(state, s, sigma, lg)
                required = min(attrs.uc(sigma), lg)
                if required > provided:
                    return AdmissibilityResult(False, (s, sigma, required, provided), domain)
                if length < bound:
                    next_level.append((s + (sigma,), v2, state2))
        level = next_level
    return AdmissibilityResult(True, None, domain)


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
    attrs.require_alphabet(g.alphabet)
    prk = fl.prefix_closure(k)
    warnings: List[str] = []
    if k(()) != ONE:
        warnings.append(f"K(ε) = {format_degree(k(()))}, expected 1")
    for t in prk.support():
        lm = fa.marked_degree(g, t)
        if prk(t) > lm:
            warnings.append(
                f"pr(K) is not contained in L(G,m): at {string_to_text(t)} "
                f"pr(K)={format_degree(prk(t))} > L(G,m)={format_degree(lm)}"
            )
            break

    # (a)  K = pr(K) ∩ L(G,m), trivially 0 = 0 outside pr(K)'s support
    condition_a, a_witness = True, None
    for t in prk.support():
        if k(t) != min(prk(t), fa.marked_degree(g, t)):
            condition_a, a_witness = False, t
            break

    # (b)  the controllability condition for K against L(G)
    report_b = check_language_controllability(g, k, attrs)

    # direct bounded comparison for the supervisor actually given
    if depth is None:
        depth = max((len(t) for t in prk.support()), default=0) + 2
    gen: Dict[EventString, Fraction] = {}
    marked: Dict[EventString, Fraction] = {}
    start, follow = _follower(sup, g)
    v0, step, top, vector = _state_walk(g)
    plant_marked: Dict[tuple, Fraction] = {}  # L_G̃,m per plant state met
    level = [((), v0, ONE, start)]
    for _ in range(depth + 1):
        next_level = []
        for s, v, degree, state in level:
            gen[s] = degree
            if v not in plant_marked:
                q = vector(v)
                plant_marked[v] = max(inner_sup(q, m, g.semantics) for m in g.marked) if g.marked else ZERO
            marked[s] = min(degree, plant_marked[v])
            if len(s) < depth:
                for sigma in g.alphabet:
                    v2 = step(v, sigma)
                    lg = top(v2)
                    enabled, state2 = follow(state, s, sigma, lg)
                    next_level.append((s + (sigma,), v2, min(degree, lg, enabled), state2))
        level = next_level
    pr_marked: Dict[EventString, Fraction] = dict(marked)
    for s in sorted(gen, key=len, reverse=True):
        if s:
            parent = s[:-1]
            if pr_marked[s] > pr_marked[parent]:
                pr_marked[parent] = pr_marked[s]
    direct_ok, direct_witness = True, None
    for s in sorted(gen, key=lambda t: (len(t), t)):
        if pr_marked[s] != gen[s]:
            direct_ok, direct_witness = False, s
            break

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
