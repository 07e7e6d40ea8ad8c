"""Reference computations and random-instance generators for the test suite.

Everything here is deliberately naive: set-based crisp controllability,
exhaustive candidate search over a finite value lattice, plain nested loops.
The point is to have independently-written baselines to compare the library
against, so nothing below imports from fdes beyond the data containers,
the errors, the alphabet check `require_same_alphabet`, and the
controllability witness finder `_violation`, which the iterated closures
rescan with after every fix.  Fuzzy states are stepped by
the plain nested Fraction loops below (`fraction_step`); the library steps
them on its integer `StepTable` only, and is checked against these.
"""
from fractions import Fraction
from itertools import product

from fdes.algebra import ONE, ZERO, Semantics
from fdes.automaton import FuzzyAutomaton, require_same_alphabet
from fdes.errors import DimensionError, FdesError, NotCrisp
from fdes.language import (
    FiniteSupportFuzzyLanguage,
    _violation,
    infimal_prefix_closed_superlanguage,
    is_controllable_wrt,
    is_prefix_closed,
    is_sublanguage,
    prefix_closure,
    supremal_controllable_sublanguage,
)
from fdes.supervisory import EventAttributes, ExplicitSupervisor

HALF_STEPS = tuple(Fraction(n, 10) for n in range(11))
SMALL_LATTICE = (Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1))


# --- Fraction semiring kernels and the pointwise language lattice -----------

def _check_apply_dims(v, m):
    if len(v) != len(m):
        raise DimensionError(f"vector of dim {len(v)} times matrix with {len(m)} rows")


def maxmin_apply(v, m):
    """(v ⊙ m)[j] = max over l of min(v[l], m[l][j])."""
    _check_apply_dims(v, m)
    return tuple(max(min(v[l], m[l][j]) for l in range(len(v))) for j in range(len(m[0])))


def maxprod_apply(v, m):
    """(v ∘ m)[j] = max over l of v[l] × m[l][j], exactly."""
    _check_apply_dims(v, m)
    return tuple(max(v[l] * m[l][j] for l in range(len(v))) for j in range(len(m[0])))


def maxmin_matmul(a, b):
    """(max, min) semiring matrix product."""
    if len(a[0]) != len(b):
        raise DimensionError(f"inner dimensions {len(a[0])} and {len(b)} disagree")
    return tuple(
        tuple(max(min(a[i][l], b[l][j]) for l in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def maxprod_matmul(a, b):
    """(max, ×) semiring matrix product."""
    if len(a[0]) != len(b):
        raise DimensionError(f"inner dimensions {len(a[0])} and {len(b)} disagree")
    return tuple(
        tuple(max(a[i][l] * b[l][j] for l in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def zero_language(alphabet):
    return FiniteSupportFuzzyLanguage(tuple(alphabet), {})


def fuzzy_and(a, b):
    """Pointwise Zadeh AND (min)."""
    require_same_alphabet(a, b)
    return a.with_degrees({s: min(d, b(s)) for s, d in a.degrees.items()})


def fuzzy_or(a, b):
    """Pointwise Zadeh OR (max)."""
    require_same_alphabet(a, b)
    merged = dict(a.degrees)
    for s, d in b.degrees.items():
        if d > merged.get(s, ZERO):
            merged[s] = d
    return a.with_degrees(merged)


# --- crisp set-based controllability ---------------------------------------

def prefixes(strings):
    out = set()
    for s in strings:
        for i in range(len(s) + 1):
            out.add(tuple(s[:i]))
    return out


def crisp_controllable(k_strings, m_strings, uc_events):
    """Classic DES controllability: pr(K) Sigma_uc intersect M subseteq pr(K).

    `m_strings` must already be prefix-closed.  Returns (ok, witness) where the
    witness is the lexicographically first violating (s, event) pair.
    """
    prk = prefixes(k_strings)
    m = set(map(tuple, m_strings))
    for s in sorted(prk, key=lambda t: (len(t), t)):
        for e in sorted(uc_events):
            ext = s + (e,)
            if ext in m and ext not in prk:
                return False, (s, e)
    return True, None


# --- brute-force lattice search ---------------------------------------------

def _candidates(domain, low, high, values):
    """All degree maps f over `domain` with low[t] <= f(t) <= high[t], values in `values`."""
    dom = sorted(domain, key=lambda t: (len(t), t))
    per_string = [[v for v in values if low[t] <= v <= high[t]] for t in dom]
    for combo in product(*per_string):
        yield {t: v for t, v in zip(dom, combo) if v > ZERO}


def brute_supremal(k, m, attrs, values=SMALL_LATTICE):
    """Pointwise max over every controllable sublanguage of k with lattice values.

    Sound because any sublanguage of k has support inside support(k), and the
    true supremum is both controllable and valued in the min-closure of the
    input values (so it appears among the candidates when `values` is
    min-closed and covers the inputs).
    """
    dom = set(k.support())
    best = {t: ZERO for t in dom}
    for degs in _candidates(dom, {t: ZERO for t in dom}, {t: k(t) for t in dom}, values):
        f = FiniteSupportFuzzyLanguage(k.alphabet, degs)
        ok, _ = is_controllable_wrt(f, m, attrs)
        if ok:
            for t in dom:
                best[t] = max(best[t], f(t))
    return FiniteSupportFuzzyLanguage(k.alphabet, best)


def brute_infimal(k, m, attrs, values=SMALL_LATTICE):
    """Pointwise min over prefix-closed controllable superlanguages of k.

    Candidates range over support(pr(k)) union support(m); the family is
    closed under pointwise min and contains its own minimum, so restricting
    the support this way is exact (the infimum's support lies inside it).
    """
    dom = set(prefix_closure(k).support()) | set(m.support())
    low = {t: k(t) for t in dom}
    high = {t: ONE for t in dom}
    best = None
    for degs in _candidates(dom, low, high, values):
        f = FiniteSupportFuzzyLanguage(k.alphabet, degs)
        if not is_prefix_closed(f):
            continue
        ok, _ = is_controllable_wrt(f, m, attrs)
        if not ok:
            continue
        if best is None:
            best = dict(degs)
            for t in dom:
                best.setdefault(t, ZERO)
        else:
            for t in dom:
                best[t] = min(best[t], degs.get(t, ZERO))
    if best is None:
        return None
    return FiniteSupportFuzzyLanguage(k.alphabet, best)


# --- iterated closures: rescan from the empty string after every fix ---------

def iterated_supremal(k, m, attrs):
    """K̃^< by iterated repair: while some (s, σ) violates the
    controllability inequality, cap every member of the support extending
    s at pr(f)(s·σ).  m must be prefix-closed."""
    uc = getattr(attrs, "uncontrollability", attrs)
    f = dict(k.degrees)
    while True:
        pr_f = prefix_closure(k.with_degrees(f))
        witness = _violation(pr_f, uc, m)
        if witness is None:
            break
        cap = witness.rhs  # pr(f)(s·σ)
        s = witness.s
        for t in list(f):
            if t[: len(s)] == s and f[t] > cap:
                f[t] = cap
        f = {t: d for t, d in f.items() if d != ZERO}
    return k.with_degrees(f)


def iterated_infimal(k, m, attrs):
    """K̃^> by iterated raise from pr(k): lift g(s·σ) to
    min(g(s), Σ̃uc(σ), M̃(s·σ)) at the first violation until none is left.
    m must be prefix-closed and contain k."""
    uc = getattr(attrs, "uncontrollability", attrs)
    g = dict(prefix_closure(k).degrees)
    while True:
        lang = k.with_degrees(g)
        witness = _violation(lang, uc, m)
        if witness is None:
            break
        g[witness.s + (witness.sigma,)] = witness.lhs
    return k.with_degrees(g)


def value_lattice(k, m, attrs):
    """Every value the closures can produce: the degrees of k, m and the
    attributes, plus the bounds 0 and 1, sorted."""
    uc = getattr(attrs, "uncontrollability", attrs)
    return tuple(sorted({ZERO, ONE, *k.degrees.values(), *m.degrees.values(), *uc.values()}))


# --- random instance generators ---------------------------------------------

def random_automaton(rng, max_states=3, max_events=3, semantics=Semantics.MAX_MIN,
                     palette=HALF_STEPS, force_one_initial=False, marked=False):
    n = rng.randint(1, max_states)
    k = rng.randint(1, max_events)
    labels = tuple(f"s{i}" for i in range(n))
    events = {
        f"e{j}": tuple(tuple(rng.choice(palette) for _ in range(n)) for _ in range(n))
        for j in range(k)
    }
    initial = [rng.choice(palette) for _ in range(n)]
    if force_one_initial:
        initial[rng.randrange(n)] = ONE
    marked_vecs = ()
    if marked:
        marked_vecs = (tuple(rng.choice(palette) for _ in range(n)),)
    return FuzzyAutomaton(labels, events, tuple(initial), marked_vecs, semantics)


def dominated_pair(rng, max_states=3, max_events=3, palette=HALF_STEPS, semantics=Semantics.MAX_MIN):
    """A plant and a spec automaton over the same alphabet with every spec
    entry bounded by the matching plant entry, and both initial vectors
    peaking at 1 on a shared index."""
    g = random_automaton(rng, max_states, max_events, semantics, palette)
    n = g.dim
    below = {v: [w for w in palette if w <= v] for v in set(palette)}

    def under(x):
        return rng.choice(below[x])

    events = {
        e: tuple(tuple(under(g.matrix(e)[i][j]) for j in range(n)) for i in range(n))
        for e in g.alphabet
    }
    peak = rng.randrange(n)
    g_init = list(g.initial)
    g_init[peak] = ONE
    h_init = [under(x) for x in g_init]
    h_init[peak] = ONE
    g = FuzzyAutomaton(g.state_labels, dict(g.events), tuple(g_init), (), g.semantics)
    h = FuzzyAutomaton(g.state_labels, events, tuple(h_init), (), g.semantics)
    return g, h


def random_attrs(rng, alphabet, palette=HALF_STEPS):
    return EventAttributes({e: rng.choice(palette) for e in alphabet})


def random_language(rng, alphabet, max_len=2, palette=SMALL_LATTICE, max_support=None):
    domain = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [s + (e,) for s in frontier for e in alphabet]
        domain.extend(frontier)
    degrees = {s: rng.choice(palette) for s in domain}
    support = [s for s in domain if degrees[s] > ZERO]
    if max_support is not None and len(support) > max_support:
        for s in rng.sample(support, len(support) - max_support):
            degrees[s] = ZERO
    return FiniteSupportFuzzyLanguage(tuple(alphabet), degrees)


# --- operator-law assertions (shared by the unit and acceptance suites) -------

def controllable(k, m, attrs):
    return is_controllable_wrt(k, m, attrs)[0]


def assert_closure_laws(k1, k2, m, attrs):
    """Assert every documented law of the two closure operators on one
    instance.  Preconditions: m prefix-closed, k1 and k2 sublanguages of m."""
    sup = supremal_controllable_sublanguage
    inf = infimal_prefix_closed_superlanguage

    c1, c2 = sup(k1, m, attrs), sup(k2, m, attrs)
    u1, u2 = inf(k1, m, attrs), inf(k2, m, attrs)
    inter = fuzzy_and(k1, k2)
    union = fuzzy_or(k1, k2)

    # membership in the defining families
    assert is_sublanguage(c1, k1) and controllable(c1, m, attrs)
    assert is_prefix_closed(u1) and controllable(u1, m, attrs)
    assert is_sublanguage(k1, u1) and is_sublanguage(u1, m)

    # unions of controllable languages stay controllable
    assert controllable(fuzzy_or(c1, c2), m, attrs)

    # intersections: controllable when the closures distribute, and always
    # for prefix-closed controllable operands
    cc = fuzzy_and(c1, c2)
    if prefix_closure(cc) == fuzzy_and(prefix_closure(c1), prefix_closure(c2)):
        assert controllable(cc, m, attrs)
    uu = fuzzy_and(u1, u2)
    assert is_prefix_closed(uu) and controllable(uu, m, attrs)

    # supremal-closure laws
    assert is_prefix_closed(sup(prefix_closure(k1), m, attrs))
    sup_inter = sup(inter, m, attrs)
    assert is_sublanguage(sup_inter, c1) and is_sublanguage(sup_inter, c2)
    assert is_sublanguage(sup_inter, cc)
    assert sup_inter == sup(cc, m, attrs)
    assert is_sublanguage(fuzzy_or(c1, c2), sup(union, m, attrs))

    # infimal-closure laws
    inf_inter = inf(inter, m, attrs)
    assert is_sublanguage(inf_inter, u1) and is_sublanguage(inf_inter, u2)
    assert is_sublanguage(inf_inter, inf(uu, m, attrs))
    assert inf(union, m, attrs) == fuzzy_or(u1, u2)

    # prefix closure is inflationary, idempotent, and monotone
    p1 = prefix_closure(k1)
    assert is_sublanguage(k1, p1)
    assert prefix_closure(p1) == p1
    assert is_sublanguage(prefix_closure(inter), p1)


def assert_closures_match_brute_force(k, m, attrs, values):
    sup = supremal_controllable_sublanguage(k, m, attrs)
    inf = infimal_prefix_closed_superlanguage(k, m, attrs)
    assert sup == brute_supremal(k, m, attrs, values)
    assert inf == brute_infimal(k, m, attrs, values)


# --- reachable states by plain Fraction stepping -----------------------------

def bfs_oracle(root, events, step, max_depth=None):
    """Breadth-first enumeration with a list for a visited set.

    Returns (nodes, edges, witness, overflow): labels in discovery order,
    the (node, event) -> node map, the first witness of each node, and the
    new labels met beyond `max_depth`, in the order they were met.
    """
    nodes, depth, witness, edges, overflow = [root], [0], {0: ()}, {}, []
    i = 0
    while i < len(nodes):
        for e in events:
            label = step(nodes[i], e)
            if label in nodes:
                j = nodes.index(label)
            elif max_depth is not None and depth[i] + 1 > max_depth:
                overflow.append(label)
                continue
            else:
                j = len(nodes)
                nodes.append(label)
                depth.append(depth[i] + 1)
                witness[j] = witness[i] + (e,)
            edges[(i, e)] = j
        i += 1
    return nodes, edges, witness, overflow


def states_oracle(g, max_depth=None):
    return bfs_oracle(g.initial, g.alphabet, lambda q, e: fraction_step(g, q, e), max_depth)


def pair_step(g, h):
    """One Fraction step of a (plant, spec) pair of state vectors."""
    return lambda label, e: (fraction_step(g, label[0], e), fraction_step(h, label[1], e))


def pairs_oracle(g, h, max_depth=None):
    return bfs_oracle((g.initial, h.initial), g.alphabet, pair_step(g, h), max_depth)


class TargetNotReachable(FdesError):
    """The requested state is not a node of the reachable-state graph."""


def index_of(graph, label):
    """The node of a reachable-state graph whose label is `label`."""
    try:
        return graph.nodes.index(label)
    except ValueError:
        raise TargetNotReachable(f"{label} is not a reachable state") from None


def replay(graph, s):
    """The node of a reachable-state graph that s leads to: the edges
    followed from node 0; the edge map is total."""
    node = 0
    for e in s:
        node = graph.edges[(node, e)]
    return node


def tree_oracle(root, events, step, max_depth=None):
    """The computing tree by plain recursion.

    Returns (nodes, overflow): (label, incoming event, is leaf) for each node
    in depth-first order, and the labels met beyond `max_depth` in the order
    they were met.  A child is a leaf when its label repeats a label on its
    root path; a child beyond `max_depth` is a node but is not expanded.
    """
    nodes, overflow = [(root, None, False)], []

    def expand(label, path, depth):
        for e in events:
            child = step(label, e)
            leaf = child in path
            nodes.append((child, e, leaf))
            if leaf:
                continue
            if max_depth is not None and depth + 1 > max_depth:
                overflow.append(child)
            else:
                expand(child, path + (child,), depth + 1)

    expand(root, (root,), 0)
    return nodes, overflow


# --- supervised languages by string replay ------------------------------------

def strings_up_to(alphabet, depth):
    """Every string of length <= depth, in (length, declaration order)."""
    level, out = [()], [()]
    for _ in range(depth):
        level = [s + (e,) for s in level for e in alphabet]
        out.extend(level)
    return out


def prk_by_replay(sup, s):
    """pr(K)(s) of a synthesized supervisor's spec, replayed from p0 or read
    off K's support."""
    if sup.spec_automaton is not None:
        return replay_generated(sup.spec_automaton, s)
    return prefix_degree(sup.spec_language, s)


def enablement_by_replay(sup, s, e):
    """S(s)(σ): an explicit supervisor's table entry, or the constructive
    rule with L_G(s·σ) and pr(K)(s·σ) replayed for the supervisor's own plant."""
    if isinstance(sup, ExplicitSupervisor):
        return sup.enablement_degree(s, e)
    uc, prk = sup.attrs.uc(e), prk_by_replay(sup, s + (e,))
    return min(uc, replay_generated(sup.plant, s + (e,))) if uc >= prk else prk


def controlled_degree_by_replay(sup, g, s):
    """L_{S/G}(s) from its definition: every factor replayed from q0."""
    degree = ONE
    for i, e in enumerate(s):
        degree = min(degree, replay_generated(g, s[: i + 1]), enablement_by_replay(sup, s[:i], e))
    return degree


def direct_nonblocking_by_replay(sup, g, depth):
    """The direct comparison pr(L_{S/G,m}) = L_{S/G} on strings of length
    <= depth, by replay: returns (ok, first diverging string or None)."""
    strings = strings_up_to(g.alphabet, depth)
    gen = {s: controlled_degree_by_replay(sup, g, s) for s in strings}
    pr_marked = {s: min(gen[s], replay_marked(g, s)) for s in strings}
    for s in reversed(strings):
        if s and pr_marked[s] > pr_marked[s[:-1]]:
            pr_marked[s[:-1]] = pr_marked[s]
    for s in sorted(strings, key=lambda t: (len(t), t)):
        if pr_marked[s] != gen[s]:
            return False, s
    return True, None


def admissibility_by_replay(sup, g, attrs, n):
    """The first (s, σ, required, provided) with min(uc(σ), L_G(s·σ)) above
    S(s)(σ) over strings of length <= n, by replay: returns (ok, violation)."""
    for s in strings_up_to(g.alphabet, n):
        for e in g.alphabet:
            required = min(attrs.uc(e), replay_generated(g, s + (e,)))
            provided = enablement_by_replay(sup, s, e)
            if required > provided:
                return False, (s, e, required, provided)
    return True, None


# --- supervisory conditions by plain Fraction replay ----------------------------

def fraction_step(g, q, e):
    """q * e by the Fraction kernel of g's semantics."""
    apply = maxmin_apply if g.semantics is Semantics.MAX_MIN else maxprod_apply
    return apply(q, g.matrix(e))


def fraction_run(g, s):
    """q0 * s, folded from the initial vector by `fraction_step`."""
    q = g.initial
    for e in s:
        q = fraction_step(g, q, e)
    return q


def replay_generated(g, s):
    return max(fraction_run(g, s))


def replay_marked(g, s):
    q = fraction_run(g, s)
    meet = min if g.semantics is Semantics.MAX_MIN else (lambda a, b: a * b)
    return max((max(meet(a, b) for a, b in zip(q, m)) for m in g.marked), default=ZERO)


def prefix_degree(k, s):
    """pr(K)(s): the largest degree of a member of K that extends s."""
    s = tuple(s)
    return max((d for t, d in k.degrees.items() if t[: len(s)] == s), default=ZERO)


def prefix_support(k):
    """The strings with pr(K)(s) > 0, in (length, lex) order."""
    return sorted(prefixes(k.degrees), key=lambda t: (len(t), t))


def check_rows_by_replay(g, spec, attrs, strings):
    """(s, σ, pr(K)(s), L_G(s·σ), uc(σ), pr(K)(s·σ)) for each s of `strings`
    and each σ in alphabet order; spec is an automaton generating pr(K) or a
    language K."""
    def prk(s):
        return replay_generated(spec, s) if isinstance(spec, FuzzyAutomaton) else prefix_degree(spec, s)

    return [
        (s, e, prk(s), replay_generated(g, s + (e,)), attrs.uc(e), prk(s + (e,)))
        for s in strings
        for e in g.alphabet
    ]


def sufficient_by_replay(g, k, attrs):
    """K(s·σ) >= min(uc(σ), L_G(s·σ)) for every s with pr(K)(s) > 0."""
    return all(
        k(s + (e,)) >= min(attrs.uc(e), replay_generated(g, s + (e,)))
        for s in prefix_support(k)
        for e in g.alphabet
    )


def language_rows_by_replay(g, k, attrs):
    """The constructive supervisor's rows for a language spec: for each s with
    pr(K)(s) > 0, S(s)(σ) = min(uc, L_G(s·σ)) if uc >= pr(K)(s·σ), else pr(K)(s·σ)."""
    def enable(s, e):
        uc, prk = attrs.uc(e), prefix_degree(k, s + (e,))
        return min(uc, replay_generated(g, s + (e,))) if uc >= prk else prk

    return [(s, {e: enable(s, e) for e in g.alphabet}) for s in prefix_support(k)]


def nonblocking_conditions_by_replay(g, k):
    """(first s with pr(K)(s) > L_G,m(s) or None, first s with
    K(s) != min(pr(K)(s), L_G,m(s)) or None), over pr(K)'s support."""
    support = prefix_support(k)
    over = next((s for s in support if prefix_degree(k, s) > replay_marked(g, s)), None)
    a_fail = next((s for s in support if k(s) != min(prefix_degree(k, s), replay_marked(g, s))), None)
    return over, a_fail


# --- crisp synchronous product (pair transitions, no tensor algebra) -----------

def crisp_parallel_reference(g1: FuzzyAutomaton, g2: FuzzyAutomaton) -> FuzzyAutomaton:
    """Textbook synchronous product of two crisp automata, built from pair
    transitions rather than tensor algebra; used as an oracle."""
    for g in (g1, g2):
        if not g.is_crisp():
            raise NotCrisp("crisp_parallel_reference needs {0,1} degrees")
    n1, n2 = g1.dim, g2.dim

    def pair(i, j):
        return i * n2 + j

    events: Dict[str, tuple] = {}
    for name in list(g1.events) + [e for e in g2.events if e not in g1.events]:
        grid = [[ZERO] * (n1 * n2) for _ in range(n1 * n2)]
        for i in range(n1):
            for j in range(n2):
                for ii in range(n1):
                    for jj in range(n2):
                        if name in g1.events and name in g2.events:
                            ok = g1.events[name][i][ii] == ONE and g2.events[name][j][jj] == ONE
                        elif name in g1.events:
                            ok = g1.events[name][i][ii] == ONE and j == jj
                        else:
                            ok = i == ii and g2.events[name][j][jj] == ONE
                        if ok:
                            grid[pair(i, j)][pair(ii, jj)] = ONE
        events[name] = tuple(tuple(row) for row in grid)

    initial = tuple(
        ONE if g1.initial[i] == ONE and g2.initial[j] == ONE else ZERO
        for i in range(n1)
        for j in range(n2)
    )
    marked = tuple(
        tuple(
            ONE if m1[i] == ONE and m2[j] == ONE else ZERO
            for i in range(n1)
            for j in range(n2)
        )
        for m1 in g1.marked
        for m2 in g2.marked
    )
    return FuzzyAutomaton(
        state_labels=tuple(f"{a},{b}" for a in g1.state_labels for b in g2.state_labels),
        events=events,
        initial=initial,
        marked=marked,
        semantics=g1.semantics,
    )


# --- crisp pair-subset controllability (independent of the fuzzy code path) ---

def _crisp_images(g):
    """Per event, the successor-set map state -> set(states) read off the 0/1 matrix."""
    images = {}
    for e in g.alphabet:
        m = g.matrix(e)
        images[e] = {i: {j for j in range(g.dim) if m[i][j] == ONE} for i in range(g.dim)}
    return images


def crisp_pair_controllable(g, h, uc_events):
    """Subset-propagation controllability check for crisp automata.

    Tracks (states reachable in h, states reachable in g) with plain set
    arithmetic; a violation is an uncontrollable event possible in the plant
    but not in the spec while the spec set is still alive.
    """
    img_g = _crisp_images(g)
    img_h = _crisp_images(h)
    start = (
        frozenset(i for i, x in enumerate(h.initial) if x == ONE),
        frozenset(i for i, x in enumerate(g.initial) if x == ONE),
    )
    seen = {start}
    queue = [start]
    while queue:
        sub_h, sub_g = queue.pop(0)
        for e in g.alphabet:
            nxt_h = frozenset().union(*(img_h[e][i] for i in sub_h)) if sub_h else frozenset()
            nxt_g = frozenset().union(*(img_g[e][i] for i in sub_g)) if sub_g else frozenset()
            if sub_h and e in uc_events and nxt_g and not nxt_h:
                return False
            pair = (nxt_h, nxt_g)
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True


def crisp_active_events_reference(h, s):
    """Γ_H after s by subset propagation over H's crisp states; None when H
    cannot execute s."""
    images = _crisp_images(h)
    current = {i for i, x in enumerate(h.initial) if x == ONE}
    for e in s:
        current = set().union(*(images[e][i] for i in current))
        if not current:
            return None
    return {e for e in h.alphabet if any(images[e][i] for i in current)}


# --- synthesis round trip ------------------------------------------------------

def assert_round_trip(g, h, attrs, depth=6, rng=None):
    """When the controllability check passes, the synthesized supervisor's
    controlled language must equal pr(K) on every string up to `depth`;
    when it fails, the reported counterexample row must be reproducible from
    the raw definitions.  Returns the check verdict."""
    from fdes.algebra import max_element
    from fdes.supervisory import (
        check_admissibility,
        check_controllability,
        controlled_generated_degree,
        synthesize_supervisor,
    )

    assert max_element(h.initial) == ONE  # the spec must fully admit the empty string
    rep = check_controllability(g, h, attrs)
    if rep.overall:
        sup = synthesize_supervisor(g, h, attrs)
        assert sup.check_passed
        assert check_admissibility(sup, g, attrs).ok
        level = [((), g.initial, h.initial, ONE)]
        sampled = []
        for d in range(depth + 1):
            nxt = []
            for s, vg, vh, ldeg in level:
                assert ldeg == max_element(vh), (s, ldeg, max_element(vh))
                sampled.append((s, ldeg))
                if d == depth:
                    continue
                for e in g.alphabet:
                    vg2 = fraction_step(g, vg, e)
                    vh2 = fraction_step(h, vh, e)
                    lg2 = max_element(vg2)
                    prk2 = max_element(vh2)
                    ucv = attrs.uc(e)
                    s_val = min(ucv, lg2) if ucv >= prk2 else prk2
                    nxt.append((s + (e,), vg2, vh2, min(ldeg, lg2, s_val)))
            level = nxt
        if rng is not None:
            for s, ldeg in rng.sample(sampled, min(3, len(sampled))):
                assert controlled_generated_degree(sup, g, s) == ldeg
    else:
        row = rep.counterexample
        s, e = row.representative, row.event
        vh = fraction_run(h, s)
        assert row.prK_s == max_element(vh)
        assert row.LG_s_sigma == max_element(fraction_run(g, s + (e,)))
        assert row.sigma_uc == attrs.uc(e)
        assert row.lhs == min(row.prK_s, row.sigma_uc, row.LG_s_sigma)
        assert row.prK_s_sigma == max_element(fraction_step(h, vh, e))
        assert row.lhs > row.prK_s_sigma
        assert not row.verdict
    return rep.overall
