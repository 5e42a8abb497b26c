"""Text that no check reads: canonical protocol source, which
`dsl.parse_protocol` reads back, and Graphviz source for a transition system
and its condensation. Only `export-dot` and API callers load this module.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from .kernel import BOOL, State
from .program import (OFFSET_NAMES, And, Assign, BoolLit, Cmp, Not, NotRef, Or,
                      Program, VarRef)

if TYPE_CHECKING:  # drawn, never built here
    from .explorer import Condensation, TransitionSystem


def _expr_text(expr, prec: int = 0) -> str:
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, Cmp):
        return "%s %s %s" % (_operand_text(expr.left), expr.op,
                             _operand_text(expr.right))
    if isinstance(expr, Not):
        return "!(%s)" % _expr_text(expr.expr)
    if isinstance(expr, And):
        text = " && ".join(_expr_text(e, 2) for e in expr.items)
        return "(%s)" % text if prec > 2 else text
    if isinstance(expr, Or):
        text = " || ".join(_expr_text(e, 1) for e in expr.items)
        return "(%s)" % text if prec > 1 else text
    raise TypeError(repr(expr))


def _operand_text(op) -> str:
    if isinstance(op, VarRef):
        return "%s.%s" % (OFFSET_NAMES[op.offset], op.name)
    return op.value


def _rhs_text(value) -> str:
    if isinstance(value, NotRef):
        return "!" + _operand_text(value.ref)
    return _operand_text(value)


def _stmt_lines(stmt, indent: int) -> list:
    pad = " " * indent
    if isinstance(stmt, Assign):
        return ["%s%s := %s;" % (pad, _operand_text(stmt.target),
                                 _rhs_text(stmt.value))]
    lines = ["%sif %s then {" % (pad, _expr_text(stmt.cond))]
    for s in stmt.then:
        lines.extend(_stmt_lines(s, indent + 2))
    if stmt.orelse:
        lines.append("%s} else {" % pad)
        for s in stmt.orelse:
            lines.extend(_stmt_lines(s, indent + 2))
    lines.append("%s}" % pad)
    return lines


def _bound_text(value: int, n: int) -> str:
    named = {n: "N", n - 1: "N-1"} if n >= 3 else {}
    return named.get(value, str(value))


def _group_name(lo: int, hi: int, n: int, index: int, total: int) -> str:
    if total == 1:
        return "p"
    if lo == hi == 1:
        return "root"
    if lo == hi == n:
        return "leaf"
    if (lo, hi) == (2, n - 1):
        return "middle"
    return "g%d" % index


def render(program: Program) -> str:
    """Canonical source text for a program: structurally identical groups
    are merged into maximal runs, bounds are written N-relative for chains
    of 3 or more, and the identifier list appears only when it differs from
    the positions. parse_protocol(render(p), n) rebuilds an equal program."""
    n = program.n
    runs = []
    for proc in program.processes:
        key = (proc.vars, proc.actions)
        if runs and runs[-1][0] == key:
            runs[-1][2] = proc.index
        else:
            runs.append([key, proc.index, proc.index])
    lines = ["protocol %s(%s) {" % (program.name, "N" if n >= 3 else "")]

    for dom in dict.fromkeys(v.domain for proc in program.processes
                             for v in proc.vars
                             if v.domain.values != BOOL.values):
        lines.append("  domain %s = { %s };" % (dom.name, ", ".join(dom.values)))

    pids = [p.pid for p in program.processes]
    if pids != list(range(1, n + 1)):
        lines.append("  ids = [%s];" % ", ".join(str(i) for i in pids))

    kind_word = {"internal": "var", "input": "input", "output": "output"}
    for gi, (key, lo, hi) in enumerate(runs, start=1):
        name = _group_name(lo, hi, n, gi, len(runs))
        lines.append("  process %s in %s..%s {" % (
            name, _bound_text(lo, n), _bound_text(hi, n)))
        decls, actions = key
        for v in decls:
            dom = "bool" if v.domain.values == BOOL.values else v.domain.name
            lines.append("    %s %s: %s;" % (kind_word[v.kind], v.name, dom))
        for action in actions:
            guard = _expr_text(action.guard)
            if len(action.command) == 1 and isinstance(action.command[0], Assign):
                stmt = action.command[0]
                lines.append("    %s: %s -> %s := %s;" % (
                    action.name, guard, _operand_text(stmt.target),
                    _rhs_text(stmt.value)))
            else:
                lines.append("    %s: %s ->" % (action.name, guard))
                for s in action.command:
                    lines.extend(_stmt_lines(s, 6))
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _digraph(name: str) -> list:
    return ["digraph %s {" % name, "  rankdir=LR;",
            '  node [shape=box, fontname="monospace"];']


def to_dot(ts: TransitionSystem,
           color_pred: Optional[Callable[[State], bool]] = None,
           name: str = "ts") -> str:
    """Graphviz source for the transition system. Nodes are labeled with
    canonical state text; edges with `position:action`. States satisfying
    color_pred are filled."""
    out = _digraph(name)
    for i, s in enumerate(ts.states):
        attrs = ['label="%s"' % _dot_escape(s.text())]
        if color_pred is not None and color_pred(s):
            attrs.append('style=filled, fillcolor=lightblue')
        out.append("  s%d [%s];" % (i, ", ".join(attrs)))
    for i in range(ts.size):
        for pos, action, t in ts.edges(i):
            out.append('  s%d -> s%d [label="%d:%s"];' % (i, t, pos, action))
    return "\n".join(out) + "\n}\n"


def condensation_to_dot(ts: TransitionSystem, cond: Condensation,
                        name: str = "condensation") -> str:
    """Graphviz source for the SCC DAG, one node per component in
    `components` order. Bottom components get a double border; labels show
    the component size and one sample state."""
    out = _digraph(name)
    comp_of = [0] * ts.size
    for c, comp in enumerate(cond.components):
        out.append('  c%d [label="%d state%s\\n%s"%s];' % (
            c, len(comp), "" if len(comp) == 1 else "s",
            _dot_escape(ts.state(comp[0]).text()),
            ", peripheries=2" if c < len(cond.bottoms) else ""))
        for v in comp:
            comp_of[v] = c
    for c, comp in enumerate(cond.components):
        targets = {comp_of[t] for v in comp for _, _, t in ts.edges(v)}
        out += ["  c%d -> c%d;" % (c, t) for t in sorted(targets - {c})]
    return "\n".join(out) + "\n}\n"
