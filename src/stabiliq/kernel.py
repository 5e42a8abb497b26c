"""Guarded-command programs on process chains.

A program is a chain of processes at positions 1..N. Each process owns a few
finitely-domained variables and a few guarded actions. Guards read the
process's own variables and those of its immediate neighbors; commands assign
within the same neighborhood (never to input-kind variables). Execution is by
a central daemon: one enabled action fires per step, atomically. No fairness
is assumed anywhere.

States are total assignments over every variable of every process, encoded
canonically as mixed-radix integers (position-major, declaration-minor), so
the full state universe is enumerable in a stable order. Everything here is
immutable after construction and all operations are pure functions.
"""
from __future__ import annotations

import itertools
import os
from collections import Counter
from functools import cached_property, partial
from operator import attrgetter, mul
from typing import Iterator, Mapping, Optional, Union

#: Refuse to enumerate universes larger than this unless told otherwise.
DEFAULT_STATE_CAP = 10_000_000


def state_cap(cap: Optional[int] = None) -> int:
    """The effective universe size cap: an explicit argument wins, then the
    STABILIQ_STATE_CAP environment variable, then the built-in default.
    A cap that is not a positive integer is a ModelError."""
    if cap is None:
        env = os.environ.get("STABILIQ_STATE_CAP")
        if not env:
            return DEFAULT_STATE_CAP
        try:
            cap = int(env)
        except ValueError:
            raise ModelError("STABILIQ_STATE_CAP must be an integer, "
                             "not %r" % env) from None
    if cap <= 0:
        raise ModelError("the universe cap must be positive, not %d" % cap)
    return cap


def check_cap(size: int, counted: str = "state universe",
              cap: Optional[int] = None) -> None:
    """Refuse to list a set of `size` states above state_cap(cap): raise
    UniverseCapError naming the set as `counted`."""
    cap = state_cap(cap)
    if size > cap:
        raise UniverseCapError(size, cap, counted)


OFFSET_NAMES = {-1: "left", 0: "self", 1: "right"}
VAR_KINDS = ("internal", "input", "output")
#: The daemon's policies and a specification's stutter divergence policies.
POLICIES = ("uniform-random", "round-robin")
DIVERGENCE_ALLOWED = "divergence-allowed"
DIVERGENCE_FORBIDDEN = "divergence-forbidden"


class ModelError(ValueError):
    """A program, state, or action violates a construction-time contract."""


class DisabledActionError(ModelError):
    """apply() was asked to execute an action whose guard is false."""


class ProgramError(ModelError):
    """Program construction found guards or commands that break the rules.

    `problems` holds every Problem in check order: by position, then
    action, then node. The message is the first one."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__(str(self.problems[0]))


class DslError(ValueError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics)
                         or "invalid protocol source")


class UniverseCapError(RuntimeError):
    """A state set about to be enumerated is larger than the configured cap.

    `counted` names that set in the message; it is the state universe
    unless a caller enumerates some other set of states."""

    def __init__(self, size: int, cap: int, counted: str = "state universe"):
        super().__init__(
            "%s has %d states, above the cap of %d; "
            "raise the cap (STABILIQ_STATE_CAP or the cap argument) to proceed"
            % (counted, size, cap)
        )
        self.size = size
        self.cap = cap


# --------------------------------------------------------------------------
# Value classes.

class FrozenError(AttributeError):
    """A field of a frozen record was assigned or deleted."""


class factory(partial):
    """A record field's default, called afresh for each instance."""


def record(cls=None, *, frozen: bool = True):
    """Class decorator: the annotated names are the fields, class attributes
    their defaults. Adds __init__ (then __post_init__), a Name(a=1) repr, an
    __eq__ on same-class field tuples; if frozen, a hash and no setattr."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    names = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
    makers = {n: d if isinstance(d, factory) else (lambda d=d: d)
              for n, d in vars(cls).items() if n in names}
    values = attrgetter(*names)  # a value, not a 1-tuple, for one field
    post = getattr(cls, "__post_init__", lambda self: None)

    def __init__(self, *args, **kwargs):
        try:
            args += tuple(kwargs.pop(n) if n in kwargs else makers[n]()
                          for n in names[len(args):])
        except KeyError as name:
            raise TypeError("%s needs %s" % (cls.__name__, name)) from None
        if kwargs or len(args) > len(names):
            raise TypeError("%s takes only %s" % (cls.__name__, names))
        self.__dict__.update(zip(names, args))
        post(self)

    def __eq__(self, other):
        return values(self) == values(other) \
            if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (n, getattr(self, n)) for n in names))

    def refuse(self, name, value=None):
        raise FrozenError("cannot assign to field %r" % name)

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = (lambda self: hash(values(self))) if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = refuse
    return cls


def replace(obj, **changes):
    """A copy of record obj with some fields changed; its checks run again."""
    return type(obj)(**{n: getattr(obj, n) for n in obj._fields} | changes)


@record
class Domain:
    """A named, ordered, finite set of values. Values are plain strings."""

    name: str
    values: tuple[str, ...]

    def __post_init__(self):
        if not self.values:
            raise ModelError("domain %r has no values" % self.name)
        if len(set(self.values)) != len(self.values):
            raise ModelError("domain %r has duplicate values" % self.name)

    def index(self, value: str) -> int:
        try:
            return self.values.index(value)
        except ValueError:
            raise ModelError(
                "value %r is not in domain %s %r" % (value, self.name, self.values)
            ) from None

    def __contains__(self, value: str) -> bool:
        return value in self.values

    def __len__(self) -> int:
        return len(self.values)


#: The built-in boolean domain. Order matters for state encoding: false < true.
BOOL = Domain("bool", ("false", "true"))


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
# Signatures and states.

def decimal_int(text: str) -> Optional[int]:
    """The int of a string of decimal digits; None for any other string and
    for one with more digits than int() reads."""
    try:
        return int(text) if text.isdecimal() else None
    except ValueError:  # past the interpreter's digit limit
        return None


def qualified_slot(label: str) -> Optional[tuple]:
    """The (position, name) of a position-qualified label `name.pK`; None
    for a label of any other form."""
    name, dot, suffix = label.partition(".")
    pos = decimal_int(suffix[1:]) if dot and suffix.startswith("p") else None
    return None if pos is None else (pos, name)


class Signature:
    """An ordered list of (position, variable name, domain) slots.

    A Signature fixes the canonical state encoding: states are value-index
    tuples in slot order, and the mixed-radix integer of a state uses the
    first slot as the most significant digit. Program signatures cover every
    variable; specification signatures cover external variables only.
    """

    __slots__ = ("slots", "index_of", "radices", "weights", "size",
                 "_unique", "slots_at", "positions", "_hash")

    def __init__(self, slots):
        slots = tuple(slots)
        if not slots:
            raise ModelError("a signature needs at least one slot")
        self.slots = slots
        self.index_of, self.slots_at = {}, {}
        for i, (pos, name, dom) in enumerate(slots):
            key = (pos, name)
            if key in self.index_of:
                raise ModelError("duplicate slot %s.p%d" % (name, pos))
            self.index_of[key] = i
            self.slots_at.setdefault(pos, []).append(i)
        self.radices = tuple(len(dom) for _, _, dom in slots)
        # weights[i] = prod(radices[i:]); slot i's place value is weights[i + 1]
        self.weights = tuple(itertools.accumulate(
            reversed(self.radices), mul, initial=1))[::-1]
        self.size = self.weights[0]
        counts = Counter(name for _, name, _ in slots)
        self._unique = {name for name, c in counts.items() if c == 1}
        self.positions = tuple(sorted(self.slots_at))
        self._hash = hash(slots)

    # -- naming ------------------------------------------------------------

    def label(self, i: int) -> str:
        pos, name, _ = self.slots[i]
        if name in self._unique:
            return name
        return "%s.p%d" % (name, pos)

    def slot(self, pos: int, name: str) -> int:
        try:
            return self.index_of[(pos, name)]
        except KeyError:
            raise ModelError("no variable %r at position %d" % (name, pos)) from None

    # -- encoding ----------------------------------------------------------

    def state_at(self, index: int) -> "State":
        if not 0 <= index < self.size:
            raise ModelError("state index %d out of range" % index)
        vals = [0] * len(self.radices)
        for i in range(len(self.radices) - 1, -1, -1):
            index, vals[i] = divmod(index, self.radices[i])
        return State(self, tuple(vals))

    def states(self) -> Iterator["State"]:
        """All states in canonical (encoded ascending) order."""
        for combo in itertools.product(*(range(r) for r in self.radices)):
            yield State(self, combo)

    # -- construction from assignments / text -------------------------------

    def state(self, assignment: Mapping) -> "State":
        """Build a state from {(pos, name): value} or {label: value} pairs."""
        vals = [None] * len(self.slots)
        for key, value in assignment.items():
            if isinstance(key, tuple):
                i = self.slot(*key)
            else:
                i = self._slot_by_label(key)
            dom = self.slots[i][2]
            vals[i] = dom.index(value)
        missing = [self.label(i) for i, v in enumerate(vals) if v is None]
        if missing:
            raise ModelError("state assignment is missing %s" % ", ".join(missing))
        return State(self, tuple(vals))

    def _slot_by_label(self, label: str) -> int:
        if "." in label:
            key = qualified_slot(label)
            if key is None:
                raise ModelError("bad variable label %r" % label)
            return self.slot(*key)
        matches = [i for i, (_, name, _) in enumerate(self.slots) if name == label]
        if not matches:
            raise ModelError("unknown variable %r" % label)
        if len(matches) > 1:
            raise ModelError(
                "variable name %r is ambiguous; qualify it as %s.p<position>"
                % (label, label))
        return matches[0]

    def format_state(self, state: "State") -> str:
        parts = []
        for i, v in enumerate(state.values):
            parts.append("%s=%s" % (self.label(i), self.slots[i][2].values[v]))
        return " ".join(parts)

    def parse_state(self, text: str) -> "State":
        assignment = {}
        for token in text.replace(",", " ").split():
            label, eq, value = token.partition("=")
            if not eq or not label or not value:
                raise ModelError("bad state token %r; expected var=value" % token)
            if label in assignment:
                raise ModelError("variable %r assigned twice" % label)
            assignment[label] = value
        return self.state(assignment)

    # -- neighborhoods -----------------------------------------------------

    def window_slots(self, pos: int) -> tuple[int, ...]:
        """Slots of the extended state of position pos: its own variables and
        both neighbors' (a 2-wide window at chain ends)."""
        return tuple(sorted(i for p in (pos - 1, pos, pos + 1)
                            for i in self.slots_at.get(p, ())))

    def __eq__(self, other):
        return isinstance(other, Signature) and self.slots == other.slots

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Signature(%d slots, %d states)" % (len(self.slots), self.size)


class State:
    """An immutable total assignment over a Signature's slots.

    Internally a tuple of value indices; equality and hashing follow the
    canonical encoding, so two states are equal exactly when every variable
    agrees (and they belong to the same signature).
    """

    __slots__ = ("sig", "values", "_hash")

    def __init__(self, sig: Signature, values: tuple[int, ...]):
        self.sig = sig
        self.values = values
        self._hash = hash(values)

    def value(self, pos: int, name: str) -> str:
        i = self.sig.slot(pos, name)
        return self.sig.slots[i][2].values[self.values[i]]

    @property
    def index(self) -> int:
        return sum(map(mul, self.values, self.sig.weights[1:]))

    def text(self) -> str:
        return self.sig.format_state(self)

    def __eq__(self, other):
        return (isinstance(other, State) and self.values == other.values
                and self.sig == other.sig)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "<%s>" % self.sig.format_state(self)


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

    Slots are position-major, so the window is a contiguous run of digits of
    the state id, and the window code of state id `sid` is
    `(sid // low_weight) % span`. `rows[code]` holds one
    `(action id, state-id delta)` pair per enabled action, in declaration
    order; action ids index `program.action_order`, and the successor's id
    is `sid + delta`. An empty row means no action of the position is
    enabled.
    """

    low_weight: int
    span: int
    rows: tuple


def compile_windows(program: Program) -> tuple[WindowTable, ...]:
    """One WindowTable per position, in position order.

    Each position's actions, resolved as the program was built, run over
    every valuation of its window, so compiling costs the sum over positions
    of span times action count guard evaluations: never more than
    |universe| times |actions|."""
    sig = program.signature
    radices, tables, first_id = sig.radices, [], 0
    values = [0] * len(radices)  # an action reads and writes its window only
    for proc in program.processes:
        window = sig.window_slots(proc.index)
        lo, hi = (window[0], window[-1] + 1) if window else (0, 0)
        low_weight = sig.weights[hi]
        actions = [program._resolved[proc.index, a.name] for a in proc.actions]
        rows = []
        for code, combo in enumerate(
                itertools.product(*(range(r) for r in radices[lo:hi]))):
            row = []
            for k, (guard, command) in enumerate(actions):
                values[lo:hi] = combo
                if guard(values):
                    command(values)
                    row.append((first_id + k, sum(map(
                        mul, values[lo:hi], sig.weights[lo + 1:hi + 1]))
                        - code * low_weight))
            rows.append(tuple(row))
        tables.append(WindowTable(low_weight, len(rows), tuple(rows)))
        first_id += len(proc.actions)
    return tuple(tables)


# --------------------------------------------------------------------------
# The five kernel operations.

def enabled_actions(program: Program, state: State) -> list[tuple[int, str]]:
    """All (position, action name) pairs whose guard holds in state, in
    canonical order (position ascending, declaration order within)."""
    _check_state(program, state)
    return [key for key, (guard, _) in program._resolved.items()
            if guard(state.values)]


def apply(program: Program, state: State, pos: int, action_name: str) -> State:
    """Fire one enabled action atomically; disabled actions are rejected."""
    _check_state(program, state)
    try:
        guard, command = program._resolved[(pos, action_name)]
    except KeyError:
        raise ModelError("process %d has no action %r"
                         % (pos, action_name)) from None
    if not guard(state.values):
        raise DisabledActionError(
            "action %r of process %d is not enabled in %s"
            % (action_name, pos, state.text()))
    values = list(state.values)
    command(values)
    return State(program.signature, tuple(values))


def successors(program: Program, state: State) -> list[State]:
    """Distinct one-step successors, ordered by canonical encoding.
    Self-loops (value-preserving actions) are retained."""
    seen = {}
    for pos, name in enabled_actions(program, state):
        t = apply(program, state, pos, name)
        seen[t.values] = t
    return sorted(seen.values(), key=lambda s: s.values)


def _check_state(program: Program, state: State) -> None:
    if state.sig != program.signature:
        raise ModelError("state does not belong to program %r" % program.name)
