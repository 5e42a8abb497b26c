"""A small textual language for guarded-command chain protocols.

The shape of a source file:

    protocol alternator(N) {
      process first in 1..1 {
        var x: bool;
        step: self.x = right.x -> self.x := !self.x;
      }
      process middle in 2..N-1 { ... }
      process last in N..N { ... }
    }

Processes are declared in positional groups whose bounds are integers or
N-relative (N, N-1); the groups together must cover chain positions 1..N
exactly once. Before the groups a file may declare value domains
(`domain midst = { i, rq, rp };`) and an explicit identifier list
(`ids = [2, 1, 3, 4];`, defaulting to the positions). Variables are declared
`var`/`input`/`output name: bool-or-domain;`. Action commands are assignment
and two-way-branch sequences; every variable reference is qualified with
self, left, or right, which keeps the neighbor-only communication model a
syntactic fact.

parse_protocol returns a ParseResult carrying the validated Program
or error diagnostics with stable codes, each placed at a source token. The
parser builds program nodes, and program.Program checks the rules on guards
and commands; each problem it reports is placed at the source token of its
node. `text.render` writes the canonical text that parses back to a
structurally equal program.
"""
from __future__ import annotations

from typing import NoReturn, Optional

from .kernel import (BOOL, Domain, DslError, ModelError, factory, record,
                     state_cap)
from .program import (OFFSET_NAMES, Action, And, Assign, BoolLit, Cmp, If, Lit,
                      Not, NotRef, Or, Process, Program, ProgramError, VarRef,
                      VariableDecl)

OFFSETS = {word: offset for offset, word in OFFSET_NAMES.items()}
RESERVED = frozenset(
    "protocol domain process in var input output ids if then else "
    "self left right true false bool".split())


@record
class Diagnostic:
    line: int
    col: int
    code: str
    message: str

    def __str__(self):
        return "%d:%d: error: %s [%s]" % (
            self.line, self.col, self.message, self.code)


@record(frozen=False)
class ParseResult:
    program: Optional[Program]
    diagnostics: list

    @property
    def ok(self) -> bool:
        return self.program is not None

    def unwrap(self) -> Program:
        if not self.ok:
            raise DslError(self.diagnostics)
        return self.program


# --------------------------------------------------------------------------
# Tokens.

@record
class _Token:
    kind: str  # ident | int | punct | eof
    text: str
    line: int
    col: int


def _fail(at, code: str, message: str) -> NoReturn:
    """Raise one diagnostic, placed at a token or a (line, col) pair."""
    line, col = at if isinstance(at, tuple) else (at.line, at.col)
    raise DslError([Diagnostic(line, col, code, message)])


def _expected(tok: _Token, what: str) -> NoReturn:
    _fail(tok, "SYNTAX", "expected %s, found %s" % (
        what, "end of input" if tok.kind == "eof" else repr(tok.text)))


_PUNCT2 = (":=", "!=", "->", "&&", "||", "..")
_PUNCT1 = "{}()[],;:.=!-"


def _tokenize(src: str) -> list:
    toks = []
    line, col, i = 1, 1, 0
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == "#":
            while i < n and src[i] != "\n":
                i += 1
        elif src[i:i + 2] in _PUNCT2:
            toks.append(_Token("punct", src[i:i + 2], line, col))
            i += 2
            col += 2
        elif c in _PUNCT1:
            toks.append(_Token("punct", c, line, col))
            i += 1
            col += 1
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Token("ident", src[i:j], line, col))
            col += j - i
            i = j
        elif c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(_Token("int", src[i:j], line, col))
            col += j - i
            i = j
        else:
            _fail((line, col), "SYNTAX", "unexpected character %r" % c)
    toks.append(_Token("eof", "", line, col))
    return toks


# --------------------------------------------------------------------------
# Parser.

@record(frozen=False)
class _Group:
    name: str
    tok: _Token
    lo: tuple
    hi: tuple
    vars: list = factory(list)
    actions: list = factory(list)


class _Parser:
    """Builds kernel nodes directly. `spans` maps the id of each node a
    diagnostic can point at (a VarRef, Lit or Assign) to its token: the
    variable name, the value, or the `:=`."""

    def __init__(self, toks):
        self.toks = toks
        self.i = 0
        self.spans: dict = {}

    def mark(self, node, tok: _Token):
        self.spans[id(node)] = tok
        return node

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "eof"

    def expect(self, text: str, what: str = "") -> _Token:
        if not self.at(text):
            _expected(self.peek(), "%r%s" % (text, " " + what if what else ""))
        return self.take()

    def token(self, what: str, *kinds: str) -> _Token:
        if self.peek().kind not in kinds:
            _expected(self.peek(), what)
        return self.take()

    def integer(self) -> int:
        tok = self.token("an integer", "int")
        try:
            return int(tok.text)
        except ValueError as exc:  # a digit int() refuses, or too many digits
            _fail(tok, "SYNTAX", "cannot read an integer: %s" % exc)

    def new_name(self, what: str, taken) -> _Token:
        name = self.token(what + " name", "ident")
        if name.text in RESERVED:
            _fail(name, "SYNTAX", "%r is a reserved word" % name.text)
        if name.text in taken:
            _fail(name, "DUPLICATE_NAME", "%s %r is already declared in this "
                  "group" % (what, name.text))
        return name

    # -- top level ----------------------------------------------------------

    def protocol(self):
        self.expect("protocol")
        name = self.token("protocol name", "ident")
        self.expect("(")
        param = None
        if not self.at(")"):
            param = self.token("parameter name", "ident").text
        self.expect(")")
        self.expect("{")
        domains = {"bool": BOOL}
        while self.at("domain"):
            self.domain(domains)
        ids = ids_tok = None
        if self.at("ids"):
            ids_tok = self.take()
            self.expect("=")
            self.expect("[")
            ids = [self.integer()]
            while self.at(","):
                self.take()
                ids.append(self.integer())
            self.expect("]")
            self.expect(";")
        groups = []
        while self.at("process"):
            groups.append(self.group(param, domains))
        if not groups:
            _fail(self.peek(), "SYNTAX",
                  "a protocol needs at least one process group")
        self.expect("}")
        tok = self.peek()
        if tok.kind != "eof":
            _fail(tok, "SYNTAX", "unexpected %r after protocol body" % tok.text)
        return name.text, param, ids, ids_tok, groups

    def domain(self, domains: dict):
        self.expect("domain")
        name = self.token("domain name", "ident")
        if name.text in domains:
            _fail(name, "DUPLICATE_NAME",
                  "domain %r is already defined" % name.text)
        self.expect("=")
        self.expect("{")
        values = [self.token("a value", "ident", "int").text]
        while self.at(","):
            self.take()
            v = self.token("a value", "ident", "int")
            if v.text in values:
                _fail(v, "DUPLICATE_NAME", "value %r repeats in domain %r"
                      % (v.text, name.text))
            values.append(v.text)
        self.expect("}")
        self.expect(";")
        domains[name.text] = Domain(name.text, tuple(values))

    # -- process groups -------------------------------------------------------

    def bound(self, param) -> tuple:
        tok = self.peek()
        if tok.kind == "int":
            return ("int", self.integer())
        if tok.kind != "ident":
            _expected(tok, "a position bound")
        if tok.text != param:
            _fail(tok, "SYNTAX", "%r is not a protocol parameter" % tok.text)
        self.take()
        offset = 0
        if self.at("-"):
            self.take()
            offset = self.integer()
        return ("n", offset)

    def group(self, param, domains) -> _Group:
        self.expect("process")
        name = self.token("group name", "ident")
        self.expect("in")
        lo = self.bound(param)
        self.expect("..")
        hi = self.bound(param)
        self.expect("{")
        grp = _Group(name.text, name, lo, hi)
        while self.peek().text in ("var", "input", "output"):
            self.vardecl(grp, domains)
        while self.peek().kind == "ident" and not self.at("}"):
            self.action(grp)
        self.expect("}")
        return grp

    def vardecl(self, grp: _Group, domains: dict):
        kind = {"var": "internal", "input": "input",
                "output": "output"}[self.take().text]
        name = self.new_name("variable", {v.name for v in grp.vars})
        self.expect(":")
        dom_tok = self.token("domain name", "ident")
        if dom_tok.text not in domains:
            _fail(dom_tok, "UNKNOWN_DOMAIN",
                  "domain %r is not declared" % dom_tok.text)
        self.expect(";")
        grp.vars.append(VariableDecl(name.text, domains[dom_tok.text], kind))

    # -- actions ---------------------------------------------------------------

    def action(self, grp: _Group):
        name = self.new_name("action", {a.name for a in grp.actions})
        self.expect(":")
        guard = self.guard()
        self.expect("->", "between guard and command")
        stmts = self.stmts(require_one=True)
        grp.actions.append(Action(name.text, guard, tuple(stmts)))

    def stmts(self, require_one: bool = False) -> list:
        out = []
        while True:
            tok = self.peek()
            if tok.text in OFFSETS:
                out.append(self.assign())
            elif tok.text == "if":
                out.append(self.ifstmt())
            else:
                break
        if require_one and not out:
            _fail(self.peek(), "SYNTAX", "an action needs at least one statement")
        return out

    def assign(self) -> Assign:
        target = self.varref()
        tok = self.expect(":=", "in assignment")
        if self.at("!"):
            self.take()
            value = NotRef(self.varref())
        elif self.peek().text in OFFSETS:
            value = self.varref()
        else:
            v = self.token("a value", "ident", "int")
            value = self.mark(Lit(v.text), v)
        self.expect(";")
        return self.mark(Assign(target, value), tok)

    def ifstmt(self) -> If:
        self.expect("if")
        cond = self.guard()
        self.expect("then")
        then = self.block()
        orelse = ()
        if self.at("else"):
            self.take()
            orelse = tuple(self.block())
        return If(cond, tuple(then), orelse)

    def block(self) -> list:
        self.expect("{")
        out = self.stmts()
        self.expect("}")
        return out

    def varref(self) -> VarRef:
        word = self.peek()
        if word.text not in OFFSETS:
            _expected(word, "self, left, or right")
        self.take()
        self.expect(".")
        name = self.token("variable name", "ident")
        if name.text in OFFSETS:
            _fail(name, "NON_NEIGHBOR_REF",
                  "a process can only read its immediate neighbors; "
                  "%s.%s reaches further" % (word.text, name.text))
        return self.mark(VarRef(OFFSETS[word.text], name.text), name)

    # -- guards ------------------------------------------------------------------

    def guard(self):
        items = [self.and_expr()]
        while self.at("||"):
            self.take()
            items.append(self.and_expr())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def and_expr(self):
        items = [self.atom()]
        while self.at("&&"):
            self.take()
            items.append(self.atom())
        return items[0] if len(items) == 1 else And(tuple(items))

    def atom(self):
        tok = self.peek()
        if tok.text == "!":
            self.take()
            self.expect("(", "after '!'")
            inner = self.guard()
            self.expect(")")
            return Not(inner)
        if tok.text == "(":
            self.take()
            inner = self.guard()
            self.expect(")")
            return inner
        if tok.text == "true":
            self.take()
            return BoolLit(True)
        if tok.text == "false":
            self.take()
            return BoolLit(False)
        left = self.operand()
        op = self.peek()
        if op.text not in ("=", "!="):
            _expected(op, "'=' or '!=' in comparison")
        self.take()
        right = self.operand()
        if isinstance(left, Lit) and isinstance(right, Lit):
            _fail(op, "SYNTAX", "a comparison needs at least one variable")
        return Cmp(left, op.text, right)

    def operand(self):
        if self.peek().text in OFFSETS:
            return self.varref()
        tok = self.token("a variable or value", "ident", "int")
        return self.mark(Lit(tok.text), tok)


# --------------------------------------------------------------------------
# Building the program.

def _diagnostics(problems, spans: dict, group_of: dict) -> list:
    """One Diagnostic per (code, line, col): a node shared by the positions
    of a group is reported once, for the first position that breaks the
    rule. Groups come in the order they are declared."""
    diags: dict = {}
    for problem in sorted(problems,
                          key=lambda p: (group_of[p.pos].tok.line,
                                         group_of[p.pos].tok.col)):
        tok = spans[id(problem.node)]
        diags.setdefault((problem.code, tok.line, tok.col), Diagnostic(
            tok.line, tok.col, problem.code, problem.message))
    return list(diags.values())


def _build(source: str, n: Optional[int]) -> Program:
    parser = _Parser(_tokenize(source))
    name, param, ids, ids_tok, groups = parser.protocol()
    if param is not None and n is None:
        _fail((1, 1), "MISSING_PARAM", "protocol %r takes a parameter %s; "
              "supply its value" % (name, param))
    if param is None:
        # Bounds of a parameterless protocol are all literal; infer the
        # chain length from them.
        n = max(g.hi[1] for g in groups)
    if n < 1:
        _fail((1, 1), "GROUP_RANGE",
              "chain length must be at least 1; got %d" % n)
    cap = state_cap()
    if max(n, *(b[1] for grp in groups for b in (grp.lo, grp.hi))) > cap:
        _fail((1, 1), "GROUP_RANGE", "the chain length and every position "
              "bound must be at most the state cap, %d: one process is "
              "built per position" % cap)

    def at(bound):  # ("int", k) is k, and ("n", k) is n - k
        return bound[1] if bound[0] == "int" else n - bound[1]

    # One diagnostic per group, read off its bounds, for a group past the
    # chain or one that starts inside a group that starts first. The same
    # sweep finds the gaps; reach is the furthest end so far, and its group.
    spans = [range(at(grp.lo), at(grp.hi) + 1) for grp in groups]
    problems, gaps, reach = {}, [], (0, None)
    for k in sorted((k for k, r in enumerate(spans) if r),
                    key=lambda k: spans[k][0]):
        r, grp = spans[k], groups[k]
        if not 1 <= r[0] <= r[-1] <= n:
            problems[k] = "group %r covers positions %d..%d, outside 1..%d" \
                % (grp.name, r[0], r[-1], n)
        elif r[0] <= reach[0]:
            problems[k] = "groups %r and %r both cover position %d" % (
                reach[1], grp.name, r[0])
        elif r[0] > reach[0] + 1:
            gaps.append(range(reach[0] + 1, r[0]))
        if r[-1] > reach[0]:
            reach = (r[-1], grp.name)
    if problems:
        raise DslError([Diagnostic(groups[k].tok.line, groups[k].tok.col,
                                   "GROUP_RANGE", text)
                        for k, text in sorted(problems.items())])
    if reach[0] < n:
        gaps.append(range(reach[0] + 1, n + 1))
    if gaps:
        _fail((1, 1), "GROUP_RANGE", "no group covers position%s %s" % (
            "s" * (len(gaps) > 1 or len(gaps[0]) > 1), ", ".join(
                "%d..%d" % (g[0], g[-1]) if len(g) > 1 else str(g[0])
                for g in gaps)))
    group_of = {pos: grp for grp, r in zip(groups, spans) for pos in r}
    if not any(grp.vars for grp, r in zip(groups, spans) if r):
        _fail(groups[0].tok, "NO_VARIABLES",
              "no process of protocol %r declares a variable" % name)

    pids = list(range(1, n + 1))
    if ids is not None:
        if len(ids) != n or len(set(ids)) != len(ids):
            _fail(ids_tok, "IDS_MISMATCH", "ids must list %d distinct "
                  "integers; got %r" % (n, ids))
        pids = ids

    processes = [Process(index=pos, pid=pids[pos - 1],
                         vars=tuple(group_of[pos].vars),
                         actions=tuple(group_of[pos].actions))
                 for pos in range(1, n + 1)]
    try:
        return Program(name, processes)
    except ProgramError as exc:
        raise DslError(_diagnostics(exc.problems, parser.spans, group_of))
    except ModelError as exc:
        _fail((1, 1), "MODEL", str(exc))


def parse_protocol(source: str, n: Optional[int] = None) -> ParseResult:
    """Parse, validate, and build a protocol program.

    n supplies the chain length for sources written against a parameter
    (`protocol name(N)`); parameterless sources ignore it. All validation
    problems come back as diagnostics; the program is present only when
    there are none.
    """
    try:
        return ParseResult(_build(source, n), [])
    except DslError as exc:
        return ParseResult(None, exc.diagnostics)
