"""The state space of chain programs, and the reference operations.

States are total assignments over every variable of every process, encoded
canonically as mixed-radix integers (position-major, declaration-minor), so
the full state universe is enumerable in a stable order. This module holds
what every path needs: the cap, the errors, the value classes, Signature,
State and the chain automata that read a state along the chain; the
guarded-command programs are in `program`. Everything here is immutable
after construction and all operations are pure functions.
"""
from __future__ import annotations

import itertools
import os
from collections import Counter, defaultdict
from functools import partial, reduce
from operator import and_, attrgetter, mul
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Optional

if TYPE_CHECKING:  # the operations take a program; a fixture needs none
    from .program import Program

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


#: The daemon's policies and a specification's stutter divergence policies.
POLICIES = ("uniform-random", "round-robin")
DIVERGENCE_ALLOWED = "divergence-allowed"
DIVERGENCE_FORBIDDEN = "divergence-forbidden"


class ModelError(ValueError):
    """A program, state, or action violates a construction-time contract."""


class DisabledActionError(ModelError):
    """apply() was asked to execute an action whose guard is false."""


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

    def code(self, values, lo: int, hi: int) -> int:
        """The code of the slots lo..hi - 1 in a value tuple: their values
        as a mixed-radix number, slot lo the most significant digit."""
        code, radices = 0, self.radices
        for i in range(lo, hi):
            code = code * radices[i] + values[i]
        return code

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
# Chain automata: state predicates read along the chain.

class ChainAutomaton:
    """A deterministic automaton that reads a specification state along the
    chain, one letter per position that has slots: the position's value
    tuple, in slot order. step(q, position, letter) is the next automaton
    state, or None (dead); the automaton accepts the states whose run from
    `initial` ends in `accepting`. Slots must be grouped by position, in
    position order, so canonical order is the order of letter words; a
    position with no slot, a gap, is not read."""

    __slots__ = ("signature", "initial", "step", "accepting", "_cuts")

    def __init__(self, signature: Signature, initial, step: Callable,
                 accepting):
        order = [p for p, _, _ in signature.slots]
        if order != sorted(order):
            raise ModelError("a chain automaton needs its slots grouped by "
                             "position, in position order")
        self.signature, self.initial, self.step = signature, initial, step
        self.accepting = frozenset(accepting)
        # per position, where its letter starts and ends in a value tuple
        self._cuts = [(p, at[0], at[-1] + 1)
                      for p, at in signature.slots_at.items()]

    def bits(self, letters: Optional[list] = None) -> int:
        """The bitset of the accepted state ids, listing no state: from the
        last position back, each automaton state's accepted suffixes, where
        letter a before suffixes of width W shifts them by a·W (the shifted
        parts are disjoint, so their sum is their OR).

        Given a mapping's letters (BoundMapping.slot_bits), it is the
        bitset of the program states whose image it accepts: a forward pass
        holds per automaton state the states whose image prefix leads
        there, met with each position's letter sets."""
        alphabet, delta, _, _ = _runs(self)
        if letters is not None:
            held = {self.initial: -1}  # -1: every state
            for (_, lo, hi), word, moves in zip(self._cuts, alphabet, delta):
                sets = [reduce(and_, map(list.__getitem__, letters[lo:hi], a))
                        for a in word]
                held, after = defaultdict(int), held
                for q, states in after.items():
                    for t, bits in zip(moves[q], sets):
                        held[t] |= states & bits
            return sum(held[q] for q in self.accepting)
        suffix, width = dict.fromkeys(self.accepting, 1), 1
        for letters, moves in zip(alphabet[::-1], delta[::-1]):
            suffix = {q: sum(suffix.get(t, 0) << a * width
                             for a, t in enumerate(row))
                      for q, row in moves.items()}
            width *= len(letters)
        return suffix[self.initial]


class ChainPredicate:
    """A state predicate as a ChainAutomaton, which build(signature) makes;
    the last is kept by signature identity (an equal one would compare slot
    by slot). Called on a State it runs the automaton over the state's
    letters; bits(signature) decodes no state."""

    def __init__(self, build: Callable[[Signature], ChainAutomaton]):
        self.build, self._last = build, (None, None)

    def automaton(self, sig: Signature) -> ChainAutomaton:
        if self._last[0] is not sig:
            self._last = sig, self.build(sig)
        return self._last[1]

    def __call__(self, state: State) -> bool:
        aut = self.automaton(state.sig)
        q = aut.initial
        for p, lo, hi in aut._cuts:
            q = None if q is None else aut.step(q, p, state.values[lo:hi])
        return q in aut.accepting

    def bits(self, sig: Signature, letters: Optional[list] = None) -> int:
        return self.automaton(sig).bits(letters)


#: Every state: the invariant `true`.
every_state = ChainPredicate(
    lambda sig: ChainAutomaton(sig, 0, lambda q, p, a: 0, (0,)))


def _le_step(q, position, letter):
    """Read one (contend, leader) letter: 0 before any leader, 1 after one
    contending leader, None (dead) at a second or a non-contending one."""
    contend, leader = letter
    if not leader:
        return q
    return 1 if q == 0 and contend else None


#: At most one leader, and only a contending one: the automaton the
#: leader-election fixture is decided by.
le_allowed = ChainPredicate(
    lambda sig: ChainAutomaton(sig, 0, _le_step, (0, 1)))


def _runs(aut: ChainAutomaton) -> tuple:
    """Per position, its letters in lexicographic order and the successor
    of each automaton state reached so far (and of None, dead) under each;
    per prefix length, the states reached and those that can still accept."""
    radices = aut.signature.radices
    alphabet = [list(itertools.product(*map(range, radices[lo:hi])))
                for _, lo, hi in aut._cuts]
    reach, delta = [{aut.initial}], []
    for p, letters in zip(aut.signature.positions, alphabet):
        delta.append({q: [aut.step(q, p, a) for a in letters]
                      for q in reach[-1]})
        reach.append({t for row in delta[-1].values() for t in row} - {None})
        delta[-1][None] = [None] * len(letters)
    live = [aut.accepting & reach[-1]]
    for moves in reversed(delta):
        live.append({q for q, row in moves.items()
                     if not live[-1].isdisjoint(row)})
    return alphabet, delta, reach, live[::-1]




# --------------------------------------------------------------------------
# The reference operations, on a program's resolved actions.

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
