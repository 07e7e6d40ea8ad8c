"""The `fdes` command-line workbench.

Verification subcommands exit 0 on pass, 1 on fail (a DepthExceeded also
exits 1); usage, parse, and precondition errors exit 2.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from typing import Optional

import click

from . import model_io, reachability, supervisory
from . import language as fl
from .algebra import Semantics, format_degree, format_table
from .automaton import FuzzyAutomaton, parallel_compose, require_pairable, string_from_text, string_to_text
from .errors import DepthExceeded, FdesError, ParseError, SemanticsMismatch
from .supervisory import EventAttributes


def _resolve_depth(depth: Optional[int]) -> Optional[int]:
    """--depth, else FDES_DEPTH_DEFAULT, else None (the per-semantics default)."""
    if depth is None:
        env = os.environ.get("FDES_DEPTH_DEFAULT")
        if env:
            try:
                depth = int(env)
            except ValueError:
                raise ParseError(f"FDES_DEPTH_DEFAULT={env!r} is not an integer") from None
    return depth


def guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DepthExceeded as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        except FdesError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise FdesError(f"{out}: cannot write: {exc.strerror or exc}") from None
    else:
        click.echo(text, nl=False)


def emit_json(doc: dict, out: Optional[str]) -> None:
    emit(json.dumps(doc, indent=2) + "\n", out)


depth_option = click.option("--depth", type=int, default=None, help="Depth bound (default: unlimited for max-min, 32 for max-product).")
out_option = click.option("--out", type=click.Path(), default=None, help="Write output to a file instead of stdout.")
verbose_option = click.option("-v", "--verbose", is_flag=True, help="Extra notes on stderr.")


@click.group()
def main():
    """Verification and synthesis workbench for fuzzy discrete-event systems."""


# ---------------------------------------------------------------------------
# reachability


def _graph_json(graph) -> dict:
    def state_json(label):
        if label and isinstance(label[0], tuple):
            return [[format_degree(d) for d in v] for v in label]
        return [format_degree(d) for d in label]

    return {
        "schema_version": "1",
        "kind": "reach-listing",
        "nodes": [
            {"index": i, "s": " ".join(graph.witness[i]), "state": state_json(label)}
            for i, label in enumerate(graph.nodes)
        ],
        "edges": [{"from": i, "event": e, "to": j} for (i, e), j in graph.edges.items()],
    }


def _graph_out(graph, fmt, out, verbose, noun) -> None:
    """Emit a reachable-state or pair listing as JSON, DOT or a text table,
    with its count of nodes on stderr if verbose; noun is "state" or "pair"."""
    if verbose:
        click.echo(f"{len(graph.nodes)} distinct {noun}(s)", err=True)
    if fmt == "json":
        emit_json(_graph_json(graph), out)
    elif fmt == "dot":
        emit(reachability.graph_to_dot(graph, title=f"reachable_{noun}s"), out)
    else:
        rows = [("s", "state")] + [
            (string_to_text(graph.witness[i]), reachability.format_label(label))
            for i, label in enumerate(graph.nodes)
        ]
        emit("\n".join(format_table(rows)) + "\n", out)


@main.command()
@click.argument("model", type=click.Path())
@depth_option
@click.option("--format", "fmt", type=click.Choice(["text", "json", "dot"]), default="text")
@out_option
@verbose_option
@guarded
def reach(model, depth, fmt, out, verbose):
    """List all distinct reachable fuzzy states with shortest witnesses."""
    depth = _resolve_depth(depth)
    g, _ = model_io.parse_model(model)
    graph = reachability.enumerate_states(g, depth)
    _graph_out(graph, fmt, out, verbose, "state")


@main.command()
@click.argument("model_g", type=click.Path())
@click.argument("model_h", type=click.Path())
@depth_option
@click.option("--format", "fmt", type=click.Choice(["text", "json", "dot"]), default="text")
@out_option
@verbose_option
@guarded
def pairs(model_g, model_h, depth, fmt, out, verbose):
    """List all distinct reachable (plant, spec) fuzzy state pairs."""
    depth = _resolve_depth(depth)
    g, _ = model_io.parse_model(model_g)
    h, _ = model_io.parse_model(model_h)
    graph = reachability.enumerate_pairs(g, h, depth)
    _graph_out(graph, fmt, out, verbose, "pair")


def _tree_text(root) -> list:
    lines, stack = [], [(root, 0)]
    while stack:
        node, indent = stack.pop()
        via = f"{node.incoming_event} -> " if node.incoming_event else ""
        mark = "  (leaf)" if node.is_leaf else ""
        lines.append(f"{'  ' * indent}{via}{reachability.format_label(node.label)}{mark}")
        stack.extend((child, indent + 1) for child in reversed(node.children))
    return lines


def _tree_json(root) -> str:
    """The computing-tree document as `json.dumps(doc, indent=2)` prints it,
    where each node is {"label", "leaf", "children": {event: node}}.  Built
    from an explicit stack of text pieces and (node, depth) entries, so a
    tree deeper than the interpreter's recursion limit renders too."""
    parts = ['{\n  "schema_version": "1",\n  "kind": "computing-tree",\n  "root": ']
    stack = ["\n}\n", (root, 1)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        node, depth = item
        pad, inner = "  " * depth, "  " * (depth + 1)
        parts.append(
            f'{{\n{inner}"label": {json.dumps(reachability.format_label(node.label))},'
            f'\n{inner}"leaf": {json.dumps(node.is_leaf)},\n{inner}"children": '
        )
        if not node.children:
            parts.append(f"{{}}\n{pad}}}")
            continue
        parts.append("{\n")
        stack.append(f"\n{inner}}}\n{pad}}}")
        for k, child in reversed(list(enumerate(node.children))):
            stack.append((child, depth + 2))
            stack.append((",\n" if k else "") + f"{inner}  {json.dumps(child.incoming_event)}: ")
    return "".join(parts)


@main.command()
@click.argument("models", nargs=-1, required=True, type=click.Path())
@depth_option
@click.option("--format", "fmt", type=click.Choice(["text", "json", "dot"]), default="text")
@out_option
@guarded
def tree(models, depth, fmt, out):
    """Expand the computing tree (one model: states; two models: pairs)."""
    depth = _resolve_depth(depth)
    if len(models) == 1:
        g, _ = model_io.parse_model(models[0])
        root = reachability.build_computing_tree(g, depth)
    elif len(models) == 2:
        g, _ = model_io.parse_model(models[0])
        h, _ = model_io.parse_model(models[1])
        root = reachability.build_pair_computing_tree(g, h, depth)
    else:
        raise click.UsageError("tree takes one or two model files")
    if fmt == "dot":
        emit(reachability.tree_to_dot(root), out)
    elif fmt == "json":
        emit(_tree_json(root), out)
    else:
        emit("\n".join(_tree_text(root)) + "\n", out)


# ---------------------------------------------------------------------------
# controllability


def _load_spec(path: str):
    doc = model_io.load_document(path)
    kind = model_io.detect_kind(doc)
    if kind == "model":
        return model_io.parse_model_doc(doc, where=path)[0]
    if kind == "language":
        return model_io.parse_language_doc(doc, where=path)
    raise ParseError(f"{path}: expected a model or language document, got {kind!r}")


def _load_attrs(attrs_path: Optional[str], inline: Optional[EventAttributes], alphabet) -> EventAttributes:
    if attrs_path:
        attrs = model_io.parse_attributes(attrs_path)
    elif inline is not None:
        attrs = inline
    else:
        raise ParseError(
            "no event attributes: pass --attrs or embed 'uncontrollability' in the plant model"
        )
    attrs.require_alphabet(alphabet)
    return attrs


def _load_check(model_g: str, spec: str, attrs_path: Optional[str]):
    """(plant, spec model or language, attributes) of a check or synthesis."""
    g, inline = model_io.parse_model(model_g)
    spec_obj = _load_spec(spec)
    return g, spec_obj, _load_attrs(attrs_path, inline, g.alphabet)


def _verdict_out(report, ok: bool, fmt, out) -> None:
    """Echo the report's warnings to stderr, emit it as JSON or text, and
    exit 0 if the verdict holds, 1 if not."""
    for w in report.warnings:
        click.echo(f"warning: {w}", err=True)
    if fmt == "json":
        emit_json(report.to_dict(), out)
    else:
        emit(report.render_text(), out)
    sys.exit(0 if ok else 1)


@main.command()
@click.argument("model_g", type=click.Path())
@click.argument("spec", type=click.Path())
@click.option("--attrs", "attrs_path", type=click.Path(), default=None, help="Attributes document (overrides the plant's inline ones).")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--first-failure", is_flag=True, help="Stop the listing at the first F row.")
@out_option
@guarded
def check(model_g, spec, attrs_path, fmt, first_failure, out):
    """Check the controllability condition (exact; spec = model or language)."""
    g, spec_obj, attrs = _load_check(model_g, spec, attrs_path)
    if isinstance(spec_obj, fl.FiniteSupportFuzzyLanguage):
        report = supervisory.check_language_controllability(g, spec_obj, attrs)
    else:
        report = supervisory.check_controllability(g, spec_obj, attrs)
    _verdict_out(report.through_first_failure() if first_failure else report, report.overall, fmt, out)


@main.command("check-n")
@click.argument("model_g", type=click.Path())
@click.argument("spec", type=click.Path())
@click.argument("n", type=int)
@click.option("--attrs", "attrs_path", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--first-failure", is_flag=True)
@out_option
@verbose_option
@guarded
def check_n(model_g, spec, n, attrs_path, fmt, first_failure, out, verbose):
    """Check the n-bounded controllability condition (works for max-product)."""
    g, spec_obj, attrs = _load_check(model_g, spec, attrs_path)
    progress = (lambda count: click.echo(f"\r{count} rows", err=True, nl=False)) if verbose else None
    report = supervisory.check_n_controllability(g, spec_obj, attrs, n, progress=progress)
    if verbose:
        click.echo("", err=True)
    _verdict_out(report.through_first_failure() if first_failure else report, report.overall, fmt, out)


# ---------------------------------------------------------------------------
# synthesis and evaluation


@main.command()
@click.argument("model_g", type=click.Path())
@click.argument("spec", type=click.Path())
@click.option("--attrs", "attrs_path", type=click.Path(), default=None)
@out_option
@guarded
def synthesize(model_g, spec, attrs_path, out):
    """Synthesize the constructive supervisor and emit it as JSON."""
    g, spec_obj, attrs = _load_check(model_g, spec, attrs_path)
    if isinstance(spec_obj, FuzzyAutomaton) and g.semantics is spec_obj.semantics is Semantics.MAX_PRODUCT:
        # a max-product pair has no finite enablement table to emit; fail before the bounded check
        require_pairable(g, spec_obj)
        raise SemanticsMismatch("no finite representative table for a max-product pair")
    sup = supervisory.synthesize_supervisor(g, spec_obj, attrs)
    if not sup.check_passed:
        click.echo("warning: the controllability check failed; the constructive rule was applied anyway", err=True)
    emit_json(model_io.supervisor_to_doc(sup), out)


@main.command("eval")
@click.argument("supervisor", type=click.Path())
@click.argument("model_g", type=click.Path())
@click.argument("string", type=str)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@out_option
@guarded
def eval_cmd(supervisor, model_g, string, fmt, out):
    """Evaluate the controlled languages L(S/G) and L(S/G,m) on one string."""
    sup = model_io.parse_supervisor(supervisor)
    g, _ = model_io.parse_model(model_g)
    s = string_from_text(string)
    gen = supervisory.controlled_generated_degree(sup, g, s)
    mrk = supervisory.controlled_marked_degree(sup, g, s)
    if fmt == "json":
        emit_json(
            {
                "schema_version": "1",
                "kind": "eval",
                "s": " ".join(s),
                "generated": format_degree(gen),
                "marked": format_degree(mrk),
            },
            out,
        )
    else:
        emit(
            f"L(S/G)({string_to_text(s)}) = {format_degree(gen)}\n"
            f"L(S/G,m)({string_to_text(s)}) = {format_degree(mrk)}\n",
            out,
        )


@main.command()
@click.argument("supervisor", type=click.Path())
@click.argument("model_g", type=click.Path())
@click.argument("lang_k", type=click.Path())
@click.option("--attrs", "attrs_path", type=click.Path(), default=None)
@click.option("--depth", type=int, default=None, help="Longest string compared directly (default: longest in pr(K) plus 2).")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@out_option
@guarded
def nonblock(supervisor, model_g, lang_k, attrs_path, depth, fmt, out):
    """Run the nonblocking checks for a supervisor, plant, and spec language."""
    sup = model_io.parse_supervisor(supervisor)
    g, inline = model_io.parse_model(model_g)
    k = model_io.parse_language(lang_k)
    attrs = _load_attrs(attrs_path, inline, g.alphabet)
    report = supervisory.check_nonblocking(sup, g, k, attrs, depth=depth)
    _verdict_out(report, report.nonblocking, fmt, out)


# ---------------------------------------------------------------------------
# language lattice


def _lattice_out(op, lang_k, lang_m, attrs_path, fmt, out) -> None:
    """Apply a closure op(K, M, attrs) and emit the language as text rows or JSON."""
    k = model_io.parse_language(lang_k)
    m = model_io.parse_language(lang_m)
    attrs = model_io.parse_attributes(attrs_path)
    attrs.require_alphabet(k.alphabet)
    result = op(k, m, attrs)
    if fmt == "text":
        lines = [f"{string_to_text(s)} -> {format_degree(result(s))}" for s in result.support()]
        emit("\n".join(lines) + "\n" if lines else "(the zero language)\n", out)
    else:
        emit_json(model_io.language_to_doc(result), out)


@main.command()
@click.argument("lang_k", type=click.Path())
@click.argument("lang_m", type=click.Path())
@click.option("--attrs", "attrs_path", type=click.Path(), required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="json")
@out_option
@guarded
def suplang(lang_k, lang_m, attrs_path, fmt, out):
    """Compute the supremal controllable sublanguage of K within M."""
    _lattice_out(fl.supremal_controllable_sublanguage, lang_k, lang_m, attrs_path, fmt, out)


@main.command()
@click.argument("lang_k", type=click.Path())
@click.argument("lang_m", type=click.Path())
@click.option("--attrs", "attrs_path", type=click.Path(), required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="json")
@out_option
@guarded
def inflang(lang_k, lang_m, attrs_path, fmt, out):
    """Compute the infimal prefix-closed controllable superlanguage of K."""
    _lattice_out(fl.infimal_prefix_closed_superlanguage, lang_k, lang_m, attrs_path, fmt, out)


# ---------------------------------------------------------------------------
# composition


@main.command()
@click.argument("model_g1", type=click.Path())
@click.argument("model_g2", type=click.Path())
@out_option
@guarded
def compose(model_g1, model_g2, out):
    """Parallel-compose two models (tensor construction) and emit the result."""
    g1, _ = model_io.parse_model(model_g1)
    g2, _ = model_io.parse_model(model_g2)
    emit_json(model_io.model_to_doc(parallel_compose(g1, g2)), out)


if __name__ == "__main__":
    main()
