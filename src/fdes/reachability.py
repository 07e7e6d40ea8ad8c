"""Enumeration of reachable fuzzy states.

Two views of the same set:

* a *computing tree* — depth-first expansion where a branch closes as soon
  as its label repeats some strict ancestor on the root path (the rule is
  applied uniformly, so redundant sibling subtrees may re-derive a state);
* a *reachable-state graph* — breadth-first enumeration with a global
  visited set, giving each distinct state one node, a total edge map, and
  the first (shortest) witness string.

Max-min systems always close (every computed entry is drawn from the finite
set of input values).  Max-product systems may not; they get a depth cap
that turns possible divergence into a DepthExceeded diagnostic.

The graph enumerations of max-min systems run on the automata's rank tables
(`FuzzyAutomaton.ranks`): the BFS steps, hashes and compares tuples of int
ranks, and the labels are decoded to Fraction vectors once, at the graph
boundary — the finished nodes, or the open frontier of a DepthExceeded.
Max-product systems step Fractions throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import automaton as fa
from .algebra import Semantics, format_vector
from .errors import DepthExceeded, SemanticsMismatch, TargetNotReachable

DEFAULT_MAX_PRODUCT_DEPTH = 32


def _resolve_depth(semantics: Semantics, max_depth: Optional[int]) -> Optional[int]:
    if max_depth is not None:
        return max_depth
    return None if semantics is Semantics.MAX_MIN else DEFAULT_MAX_PRODUCT_DEPTH


def format_label(label) -> str:
    """Render a state vector, or a (plant, spec) pair of them."""
    if label and isinstance(label[0], tuple):
        return "(" + ",".join(format_vector(v) for v in label) + ")"
    return format_vector(label)


# ---------------------------------------------------------------------------
# computing trees


@dataclass
class ComputingTreeNode:
    label: tuple
    incoming_event: Optional[str] = None
    children: List["ComputingTreeNode"] = field(default_factory=list)
    is_leaf: bool = False

    def walk(self):
        """Yield nodes in depth-first order."""
        yield self
        for child in self.children:
            yield from child.walk()


def _build_tree(root_label, events: Sequence[str], step_fn, max_depth: Optional[int]):
    root = ComputingTreeNode(root_label)
    overflow: List[tuple] = []

    def expand(node: ComputingTreeNode, ancestors: tuple, depth: int):
        for e in events:
            label = step_fn(node.label, e)
            child = ComputingTreeNode(label, incoming_event=e)
            node.children.append(child)
            if label in ancestors or label == node.label:
                child.is_leaf = True
            elif max_depth is not None and depth + 1 > max_depth:
                overflow.append(label)
            else:
                expand(child, ancestors + (node.label,), depth + 1)

    expand(root, (), 0)
    if overflow:
        raise DepthExceeded(max_depth, overflow)
    return root


def build_computing_tree(g: fa.FuzzyAutomaton, max_depth: Optional[int] = None) -> ComputingTreeNode:
    """Expand the tree of fuzzy states q̃0 * s, closing on ancestor repeats."""
    depth = _resolve_depth(g.semantics, max_depth)
    return _build_tree(g.initial, g.alphabet, lambda q, e: fa.step(g, q, e), depth)


def build_pair_computing_tree(
    g: fa.FuzzyAutomaton, h: fa.FuzzyAutomaton, max_depth: Optional[int] = None
) -> ComputingTreeNode:
    """Tree over synchronized pairs (q̃0 * s, p̃0 * s) of plant and spec."""
    _require_pairable(g, h)
    depth = _resolve_depth(g.semantics, max_depth)
    return _build_tree(
        (g.initial, h.initial),
        g.alphabet,
        lambda lab, e: (fa.step(g, lab[0], e), fa.step(h, lab[1], e)),
        depth,
    )


# ---------------------------------------------------------------------------
# reachable-state graphs


@dataclass
class ReachableStateGraph:
    nodes: Tuple[tuple, ...]
    edges: Dict[Tuple[int, str], int]
    witness: Dict[int, Tuple[str, ...]]
    events: Tuple[str, ...]

    def index_of(self, label) -> int:
        try:
            return self.nodes.index(label)
        except ValueError:
            raise TargetNotReachable(f"{format_label(label)} is not a reachable state") from None

    def replay(self, s: Sequence[str]) -> int:
        """Follow edges from node 0; the edge map is total."""
        node = 0
        for e in s:
            node = self.edges[(node, e)]
        return node


def _bfs(
    root_label,
    events: Sequence[str],
    step_fn,
    max_depth: Optional[int],
    decode: Optional[Callable] = None,
) -> ReachableStateGraph:
    """Breadth-first enumeration; `decode` maps the labels step_fn works on
    to the labels the graph (or a DepthExceeded frontier) reports."""
    nodes: List[tuple] = [root_label]
    index: Dict[tuple, int] = {root_label: 0}
    witness: Dict[int, Tuple[str, ...]] = {0: ()}
    edges: Dict[Tuple[int, str], int] = {}
    overflow: List[tuple] = []
    queue: List[Tuple[int, int]] = [(0, 0)]  # (node index, depth)
    head = 0
    while head < len(queue):
        i, depth = queue[head]
        head += 1
        for e in events:
            label = step_fn(nodes[i], e)
            j = index.get(label)
            if j is None:
                if max_depth is not None and depth + 1 > max_depth:
                    overflow.append(label)
                    continue
                j = len(nodes)
                nodes.append(label)
                index[label] = j
                witness[j] = witness[i] + (e,)
                queue.append((j, depth + 1))
            edges[(i, e)] = j
    if decode is not None:
        nodes = map(decode, nodes)
        overflow = [decode(label) for label in overflow]
    if overflow:
        raise DepthExceeded(max_depth, overflow)
    return ReachableStateGraph(tuple(nodes), edges, witness, tuple(events))


def enumerate_states(g: fa.FuzzyAutomaton, max_depth: Optional[int] = None) -> ReachableStateGraph:
    """All distinct fuzzy states q̃0 * s, in BFS order with shortest witnesses."""
    depth = _resolve_depth(g.semantics, max_depth)
    if g.semantics is Semantics.MAX_MIN:
        table = g.ranks()
        return _bfs(table.initial, g.alphabet, table.step, depth, table.decode)
    return _bfs(g.initial, g.alphabet, lambda q, e: fa.step(g, q, e), depth)


def enumerate_pairs(
    g: fa.FuzzyAutomaton, h: fa.FuzzyAutomaton, max_depth: Optional[int] = None
) -> ReachableStateGraph:
    """All distinct synchronized pairs (q̃0 * s, p̃0 * s)."""
    _require_pairable(g, h)
    depth = _resolve_depth(g.semantics, max_depth)
    if g.semantics is Semantics.MAX_MIN:
        tg, th = g.ranks(), h.ranks()
        return _bfs(
            (tg.initial, th.initial),
            g.alphabet,
            lambda lab, e: (tg.step(lab[0], e), th.step(lab[1], e)),
            depth,
            lambda lab: (tg.decode(lab[0]), th.decode(lab[1])),
        )
    return _bfs(
        (g.initial, h.initial),
        g.alphabet,
        lambda lab, e: (fa.step(g, lab[0], e), fa.step(h, lab[1], e)),
        depth,
    )


def _require_pairable(g: fa.FuzzyAutomaton, h: fa.FuzzyAutomaton) -> None:
    fa.require_same_alphabet(g, h)
    if g.semantics is not h.semantics:
        raise SemanticsMismatch(
            f"cannot pair {g.semantics.value} with {h.semantics.value}"
        )


# ---------------------------------------------------------------------------
# string-class automata  C(q̃) = { s : q̃0 * s = q̃ }


@dataclass
class StateClassAutomaton:
    graph: ReachableStateGraph
    accepting: int

    def accepts(self, s: Sequence[str]) -> bool:
        return self.graph.replay(s) == self.accepting


def class_automaton(graph: ReachableStateGraph, target) -> StateClassAutomaton:
    if isinstance(target, list):
        target = tuple(target)
    return StateClassAutomaton(graph, graph.index_of(target))


# ---------------------------------------------------------------------------
# DOT emission


def tree_to_dot(root: ComputingTreeNode, title: str = "computing_tree") -> str:
    lines = [f"digraph {title} {{", "  node [shape=box];"]
    ids: Dict[int, str] = {}
    for n, node in enumerate(root.walk()):
        ids[id(node)] = f"n{n}"
        attrs = f'label="{format_label(node.label)}"'
        if node.is_leaf:
            attrs += ", peripheries=2"
        lines.append(f"  n{n} [{attrs}];")
    for node in root.walk():
        for child in node.children:
            lines.append(
                f'  {ids[id(node)]} -> {ids[id(child)]} [label="{child.incoming_event}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_dot(graph: ReachableStateGraph, title: str = "reachable_states") -> str:
    lines = [f"digraph {title} {{", "  node [shape=box];"]
    for i, label in enumerate(graph.nodes):
        lines.append(f'  s{i} [label="{format_label(label)}"];')
    for (i, e), j in sorted(graph.edges.items(), key=lambda kv: (kv[0][0], graph.events.index(kv[0][1]))):
        lines.append(f'  s{i} -> s{j} [label="{e}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
