"""Guarded-command programs on process chains.

A program is a chain of processes at positions 1..N. Each process owns a few
finitely-domained variables and a few guarded actions. Guards read the
process's own variables and those of its immediate neighbors; commands assign
within the same neighborhood (never to input-kind variables). Execution is by
a central daemon: one enabled action fires per step, atomically. No fairness
is assumed anywhere. The states a program runs over are kernel Signatures
and States; everything here is immutable after construction.
"""
from __future__ import annotations

import itertools
from functools import cached_property
from typing import Optional, Union

from .kernel import BOOL, Domain, ModelError, Signature, record

OFFSET_NAMES = {-1: "left", 0: "self", 1: "right"}
VAR_KINDS = ("internal", "input", "output")


class ProgramError(ModelError):
    """Program construction found guards or commands that break the rules.

    `problems` holds every Problem in check order: by position, then
    action, then node. The message is the first one."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__(str(self.problems[0]))


@record
class VariableDecl:
    """A variable owned by one process.

    kind is "internal", "input", or "output"; input and output variables are
    the external ones, visible to specifications. Input variables are
    environment-controlled and may never be assigned.
    """

    name: str
    domain: Domain
    kind: str = "internal"

    def __post_init__(self):
        if self.kind not in VAR_KINDS:
            raise ModelError("bad variable kind %r for %r" % (self.kind, self.name))

    @property
    def external(self) -> bool:
        return self.kind != "internal"


# --------------------------------------------------------------------------
# Expression and command ASTs.
#
# Variable references carry a neighborhood offset (-1 left, 0 self, +1 right)
# and are resolved to concrete state slots per process position, so one AST
# can be shared by every process of a group.

@record
class VarRef:
    offset: int
    name: str

    def __post_init__(self):
        if self.offset not in (-1, 0, 1):
            raise ModelError("variable reference offset must be -1, 0 or 1")


@record
class Lit:
    """A domain value literal used as a comparison or assignment operand."""

    value: str


@record
class NotRef:
    """Boolean negation of a bool-domain variable, e.g. `!self.access`."""

    ref: VarRef


@record
class BoolLit:
    """A constant guard: `true` or `false`."""

    value: bool


@record
class Cmp:
    left: Union[VarRef, Lit]
    op: str  # "=" or "!="
    right: Union[VarRef, Lit]

    def __post_init__(self):
        if self.op not in ("=", "!="):
            raise ModelError("comparison operator must be '=' or '!='")


@record
class Not:
    expr: "Expr"


@record
class And:
    items: tuple["Expr", ...]


@record
class Or:
    items: tuple["Expr", ...]


Expr = Union[BoolLit, Cmp, Not, And, Or]


@record
class Assign:
    target: VarRef
    value: Union[Lit, VarRef, NotRef]


@record
class If:
    cond: Expr
    then: tuple["Stmt", ...]
    orelse: tuple["Stmt", ...] = ()


Stmt = Union[Assign, If]


@record
class Action:
    """A named guarded command: when the guard holds, the command may fire.

    The command is a statement sequence executed atomically with ordinary
    sequential semantics (later statements see earlier assignments).
    """

    name: str
    guard: Expr
    command: tuple[Stmt, ...]


@record
class Process:
    """One chain position: its index (1-based), integer identifier, variables
    and actions. The pid is only meaningful to identifier-based mappings."""

    index: int
    pid: int
    vars: tuple[VariableDecl, ...]
    actions: tuple[Action, ...]

    def __post_init__(self):
        names = [v.name for v in self.vars]
        if len(set(names)) != len(names):
            raise ModelError("process %d declares a variable twice" % self.index)
        anames = [a.name for a in self.actions]
        if len(set(anames)) != len(anames):
            raise ModelError("process %d declares an action twice" % self.index)

    def var(self, name: str) -> VariableDecl:
        for v in self.vars:
            if v.name == name:
                return v
        raise ModelError("process %d has no variable %r" % (self.index, name))


@record
class Problem:
    """One broken rule in an action, found at one process position.

    `code` is the stable code the protocol language reports, and `node` is
    the offending VarRef, Lit or Assign. LITERAL_COMPARISON and
    MALFORMED_NODE are kernel-only: the parser never builds such nodes."""

    pos: int
    action: str
    code: str
    node: object
    message: str

    def __str__(self):
        return "action %r of process %d: %s [%s]" % (
            self.action, self.pos, self.message, self.code)


# --------------------------------------------------------------------------
# Programs.

class Program:
    """A chain of processes with a fixed signature and validated actions.
    Construction raises ProgramError listing every broken rule."""

    def __init__(self, name: str, processes):
        self.name = name
        self.processes = tuple(processes)
        if not self.processes:
            raise ModelError("a program needs at least one process")
        for i, proc in enumerate(self.processes, start=1):
            if proc.index != i:
                raise ModelError(
                    "process positions must be contiguous from 1; got %d at slot %d"
                    % (proc.index, i))
        pids = [p.pid for p in self.processes]
        if len(set(pids)) != len(pids):
            raise ModelError("process identifiers must be unique; got %r" % (pids,))
        self.n = len(self.processes)
        self.signature = Signature(
            (p.index, v.name, v.domain)
            for p in self.processes for v in p.vars)
        # (position, action name) in canonical order; the round-robin policy
        # and all deterministic iteration rely on this order.
        self.action_order = tuple(
            (p.index, a.name) for p in self.processes for a in p.actions)
        # each action's (guard, command) by (position, name), canonical order
        problems, self._resolved = [], {}
        for proc in self.processes:
            for action in proc.actions:
                found = []
                self._resolved[(proc.index, action.name)] = self._walk(
                    proc.index, action, found)
                problems += (Problem(proc.index, action.name, *f)
                             for f in found)
        if problems:
            raise ProgramError(problems)

    # -- basic access --------------------------------------------------------

    def process(self, pos: int) -> Process:
        if not 1 <= pos <= self.n:
            raise ModelError("no process at position %d" % pos)
        return self.processes[pos - 1]

    @property
    def universe_size(self) -> int:
        return self.signature.size

    @cached_property
    def windows(self) -> tuple["WindowTable", ...]:
        """The program's window tables (compile_windows), compiled on first
        use and shared by every reader: edges, simulation, mappings."""
        return compile_windows(self)

    def __eq__(self, other):
        return (isinstance(other, Program) and self.name == other.name
                and self.processes == other.processes)

    def __hash__(self):
        return hash((self.name, self.processes))

    def __repr__(self):
        return "Program(%r, %d processes, %d states)" % (
            self.name, self.n, self.universe_size)

    # -- checking and resolving ----------------------------------------------

    # One walk both checks an action at a position and resolves it: a guard
    # into a function of the state's value indices, a command into a
    # function that assigns into a list of them. Each step appends
    # (code, node, message) to `found` and goes on, so one pass reports
    # every problem of an action; what it returns runs only if none is found.
    def _walk(self, pos, action: Action, found) -> tuple:
        return (self._guard(pos, action.guard, found),
                self._block(pos, action.command, found))

    def _ref(self, pos, ref, found, what="variable reference"):
        """The (slot, declaration) a reference made from pos names, or None."""
        if not isinstance(ref, VarRef):
            found.append(("MALFORMED_NODE", ref,
                          "malformed %s %r" % (what, ref)))
            return None
        target = pos + ref.offset
        if not 1 <= target <= self.n:
            found.append(("NON_NEIGHBOR_REF", ref,
                          "position %d has no %s neighbor"
                          % (pos, OFFSET_NAMES[ref.offset])))
            return None
        for v in self.processes[target - 1].vars:
            if v.name == ref.name:
                return self.signature.index_of[(target, ref.name)], v
        found.append(("UNDECLARED_VAR", ref, "no variable %r at position %d"
                      % (ref.name, target)))
        return None

    @staticmethod
    def _value(lit: Lit, decl: VariableDecl, found) -> Optional[int]:
        """The index of a literal in decl's domain, or None."""
        values = decl.domain.values
        if lit.value in values:
            return values.index(lit.value)
        found.append(("VALUE_OUTSIDE_DOMAIN", lit,
                      "value %r is not in domain %s %r"
                      % (lit.value, decl.domain.name, values)))
        return None

    def _guard(self, pos, expr, found):
        if isinstance(expr, Cmp):
            # Resolve refs first so a literal can be checked against the
            # domain it is compared with.
            left, right = expr.left, expr.right
            lref, rref = [None if isinstance(node, Lit)
                          else self._ref(pos, node, found, "operand")
                          for node in (left, right)]
            if isinstance(left, Lit) and isinstance(right, Lit):
                found.append(("LITERAL_COMPARISON", expr,
                              "compares two literals"))
                return None
            if isinstance(left, Lit):
                left, right, lref, rref = right, left, rref, lref
            if lref is None:
                return None
            i, decl = lref
            if isinstance(right, Lit):
                k = self._value(right, decl, found)
                test = lambda v: v[i] == k
            elif rref is None:
                return None
            else:
                j, a, b = rref[0], decl.domain.values, rref[1].domain.values
                test = (lambda v: v[i] == v[j]) if a == b else \
                    (lambda v: a[v[i]] == b[v[j]])
            return test if expr.op == "=" else (lambda v: not test(v))
        if isinstance(expr, (And, Or)):
            items = [self._guard(pos, e, found) for e in expr.items]
            test = all if isinstance(expr, And) else any
            return lambda v: test(f(v) for f in items)
        if isinstance(expr, Not):
            inner = self._guard(pos, expr.expr, found)
            return lambda v: not inner(v)
        if isinstance(expr, BoolLit):
            value = expr.value
            return lambda v: value
        found.append(("MALFORMED_NODE", expr,
                      "malformed guard node %r" % (expr,)))
        return None

    def _block(self, pos, stmts, found):
        runs = []
        for stmt in stmts:
            if isinstance(stmt, Assign):
                runs.append(self._assign(pos, stmt, found))
            elif isinstance(stmt, If):
                cond = self._guard(pos, stmt.cond, found)
                then = self._block(pos, stmt.then, found)
                orelse = self._block(pos, stmt.orelse, found)
                runs.append(lambda v, cond=cond, then=then, orelse=orelse:
                            then(v) if cond(v) else orelse(v))
            else:
                found.append(("MALFORMED_NODE", stmt,
                              "malformed statement %r" % (stmt,)))

        def run(v):
            for step in runs:
                step(v)
        return run

    def _assign(self, pos, stmt: Assign, found):
        target = self._ref(pos, stmt.target, found, "assignment target")
        if target is not None and target[1].kind == "input":
            found.append(("ASSIGN_TO_INPUT", stmt.target,
                          "input variable %r cannot be assigned"
                          % stmt.target.name))
        value = stmt.value
        if isinstance(value, Lit):
            if target is None:
                return None
            i, k = target[0], self._value(value, target[1], found)
            return lambda v: v.__setitem__(i, k)
        if isinstance(value, VarRef):
            source = self._ref(pos, value, found)
            if target is None or source is None:
                return None
            (i, decl), (j, src) = target, source
            into = decl.domain.values
            if not set(src.domain.values) <= set(into):
                found.append(("VALUE_OUTSIDE_DOMAIN", stmt,
                              "%r ranges over %r, which does not fit into %r"
                              % (value.name, src.domain.values, into)))
                return None
            moved = tuple(map(into.index, src.domain.values))
            return lambda v: v.__setitem__(i, moved[v[j]])
        if isinstance(value, NotRef):
            source = self._ref(pos, value.ref, found, "negation operand")
            for ref in (target, source):
                if ref is not None and ref[1].domain.values != BOOL.values:
                    found.append(("NOT_BOOL", stmt,
                                  "negation needs boolean variables; %r is %s"
                                  % (ref[1].name, ref[1].domain.name)))
            if target is None or source is None:
                return None
            i, j = target[0], source[0]
            return lambda v: v.__setitem__(i, 1 - v[j])
        found.append(("MALFORMED_NODE", value,
                      "malformed assignment value %r" % (value,)))
        return None


# --------------------------------------------------------------------------
# Window tables: the actions of each position compiled over its window.

@record
class WindowTable:
    """The actions of one position, compiled over every valuation of the
    position's window (its own slots and both neighbors').

    Slots are position-major, so the window is a contiguous run of slots,
    `lo..hi - 1`, and a state's window code is their values read as a
    mixed-radix number (`Signature.code`). `rows[code]` holds one
    `(action id, code delta)` pair per enabled action, in declaration
    order; action ids index `program.action_order`, and the successor's
    window code is `code + delta`. An empty row means no action of the
    position is enabled.
    """

    lo: int
    hi: int
    rows: tuple


def compile_windows(program: Program) -> tuple[WindowTable, ...]:
    """One WindowTable per position, in position order.

    Each position's actions, resolved as the program was built, run over
    every valuation of its window, so compiling costs the sum over positions
    of window codes times action count guard evaluations: never more than
    |universe| times |actions|."""
    sig = program.signature
    radices, tables, first_id = sig.radices, [], 0
    values = [0] * len(radices)  # an action reads and writes its window only
    for proc in program.processes:
        window = sig.window_slots(proc.index)
        lo, hi = (window[0], window[-1] + 1) if window else (0, 0)
        actions = [program._resolved[proc.index, a.name] for a in proc.actions]
        rows = []
        for code, combo in enumerate(
                itertools.product(*(range(r) for r in radices[lo:hi]))):
            row = []
            for k, (guard, command) in enumerate(actions):
                values[lo:hi] = combo
                if guard(values):
                    command(values)
                    row.append((first_id + k,
                                sig.code(values, lo, hi) - code))
            rows.append(tuple(row))
        tables.append(WindowTable(lo, hi, tuple(rows)))
        first_id += len(proc.actions)
    return tuple(tables)
