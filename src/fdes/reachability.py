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

Both views run on the automata's step tables (`FuzzyAutomaton.table`):
a state is a number, one per fuzzy state, standing for a vector of integer
numerators over a denominator, and each step is computed once per
automaton.  The BFS and the tree builder step, hash and compare those
numbers, and the labels are decoded to Fraction vectors once, at the
boundary: the graph's nodes, the tree's nodes, or the open frontier of a
DepthExceeded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import automaton as fa
from .algebra import Semantics, format_vector
from .errors import DepthExceeded, ParseError

DEFAULT_MAX_PRODUCT_DEPTH = 32


def _require_bound(name: str, bound: Optional[int]) -> None:
    """A depth or string-length bound from the caller must not be negative."""
    if bound is not None and bound < 0:
        raise ParseError(f"{name} must be ≥ 0")


def _depth_cap(semantics: Semantics, max_depth: Optional[int]) -> Optional[int]:
    """The depth an enumeration stops at: max_depth, else none under max-min
    and DEFAULT_MAX_PRODUCT_DEPTH under max-product."""
    _require_bound("depth", max_depth)
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
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def _build_tree(root_label, events: Sequence[str], step_fn, decode: Callable, max_depth: Optional[int]):
    """Depth-first expansion, one explicit stack frame per open node; labels
    are step_fn's keys until the finished tree (or the DepthExceeded
    frontier) is decoded."""
    root = ComputingTreeNode(root_label)
    overflow: List[tuple] = []
    on_path = {root_label}  # a branch closes on a repeat, so path labels are distinct
    stack = [(root, iter(events))]
    while stack:
        node, todo = stack[-1]
        e = next(todo, None)
        if e is None:
            stack.pop()
            on_path.discard(node.label)
            continue
        label = step_fn(node.label, e)
        child = ComputingTreeNode(label, incoming_event=e)
        node.children.append(child)
        if label in on_path:
            child.is_leaf = True
        elif max_depth is not None and len(stack) > max_depth:
            overflow.append(label)
        else:
            on_path.add(label)
            stack.append((child, iter(events)))
    if overflow:
        raise DepthExceeded(max_depth, [decode(label) for label in overflow])
    decoded: Dict[tuple, tuple] = {}
    for node in root.walk():
        label = decoded.get(node.label)
        if label is None:
            label = decoded[node.label] = decode(node.label)
        node.label = label
    return root


def build_computing_tree(g: fa.FuzzyAutomaton, max_depth: Optional[int] = None) -> ComputingTreeNode:
    """Expand the tree of fuzzy states q̃0 * s, closing on ancestor repeats."""
    depth = _depth_cap(g.semantics, max_depth)
    table = g.table()
    return _build_tree(table.initial, g.alphabet, table.step, table.decode, depth)


def build_pair_computing_tree(
    g: fa.FuzzyAutomaton, h: fa.FuzzyAutomaton, max_depth: Optional[int] = None
) -> ComputingTreeNode:
    """Tree over synchronized pairs (q̃0 * s, p̃0 * s) of plant and spec."""
    depth = _depth_cap(g.semantics, max_depth)
    fa.require_pairable(g, h)
    return _build_tree(*_pair_table(g, h), depth)


# ---------------------------------------------------------------------------
# reachable-state graphs


@dataclass
class ReachableStateGraph:
    nodes: Tuple[tuple, ...]
    edges: Dict[Tuple[int, str], int]  # in (node, event) order, as the BFS met them
    witness: Dict[int, Tuple[str, ...]]


def _bfs(root_label, events: Sequence[str], step_fn, decode: Callable, max_depth: Optional[int]) -> ReachableStateGraph:
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
    if overflow:
        raise DepthExceeded(max_depth, [decode(label) for label in overflow])
    return ReachableStateGraph(tuple(map(decode, nodes)), edges, witness)


def enumerate_states(g: fa.FuzzyAutomaton, max_depth: Optional[int] = None) -> ReachableStateGraph:
    """All distinct fuzzy states q̃0 * s, in BFS order with shortest witnesses."""
    table = g.table()
    return _bfs(table.initial, g.alphabet, table.step, table.decode, _depth_cap(g.semantics, max_depth))


def enumerate_pairs(
    g: fa.FuzzyAutomaton, h: fa.FuzzyAutomaton, max_depth: Optional[int] = None
) -> ReachableStateGraph:
    """All distinct synchronized pairs (q̃0 * s, p̃0 * s)."""
    depth = _depth_cap(g.semantics, max_depth)
    fa.require_pairable(g, h)
    return _bfs(*_pair_table(g, h), depth)


def _pair_table(g: fa.FuzzyAutomaton, h: fa.FuzzyAutomaton) -> Tuple[tuple, Tuple[str, ...], Callable, Callable]:
    """(root, events, step, decode) for walking (plant, spec) pairs of keys."""
    tg, th = g.table(), h.table()
    return (
        (tg.initial, th.initial),
        g.alphabet,
        lambda lab, e: (tg.step(lab[0], e), th.step(lab[1], e)),
        lambda lab: (tg.decode(lab[0]), th.decode(lab[1])),
    )


# ---------------------------------------------------------------------------
# DOT emission


def _dot_label(text: str) -> str:
    """A DOT label attribute quoting text, its " and \\ escaped."""
    return 'label="' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def tree_to_dot(root: ComputingTreeNode, title: str = "computing_tree") -> str:
    """The tree as DOT.  Each distinct label is formatted once: a built
    tree's nodes share one decoded label per state, so the memo is keyed by
    the label object, which the tree keeps alive while it renders."""
    lines = [f"digraph {title} {{", "  node [shape=box];"]
    ids: Dict[int, str] = {}
    labels: Dict[int, str] = {}
    for n, node in enumerate(root.walk()):
        ids[id(node)] = f"n{n}"
        attrs = labels.get(id(node.label))
        if attrs is None:
            attrs = labels[id(node.label)] = _dot_label(format_label(node.label))
        if node.is_leaf:
            attrs += ", peripheries=2"
        lines.append(f"  n{n} [{attrs}];")
    edges: Dict[str, str] = {}
    for node in root.walk():
        for child in node.children:
            e = child.incoming_event
            edge = edges.get(e) or edges.setdefault(e, _dot_label(e))
            lines.append(f"  {ids[id(node)]} -> {ids[id(child)]} [{edge}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_dot(graph: ReachableStateGraph, title: str = "reachable_states") -> str:
    lines = [f"digraph {title} {{", "  node [shape=box];"]
    for i, label in enumerate(graph.nodes):
        lines.append(f"  s{i} [{_dot_label(format_label(label))}];")
    for (i, e), j in graph.edges.items():
        lines.append(f"  s{i} -> s{j} [{_dot_label(e)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
