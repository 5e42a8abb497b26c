"""Program-to-specification state mappings and merge-closure analysis.

A specification talks about external variables only. A StateMapping sends
every program state to one specification state, either structurally
(identical, projection) or through a per-process rule (the conflict-manager
highest-identifier rule, the alternator enabled-rule).

The second half of this module is the impossibility engine. A mapping must be
merge-symmetric: whenever a specification state can be assembled so that each
position's extended window of external variables already occurs in some mapped
state, the assembled state must itself have a program preimage. One
assembly step yields the merge closure of a state set: a state is admitted
only when each of its windows already occurs, so admitting it adds no window
and a second step admits nothing new. The closure is thus the set of states
whose every window occurs in the input: the language of a window automaton
(regular model checking, Bouajjani, Jonsson, Nilsson and Touili, CAV 2000),
listed along the chain, never by scanning the universe. A specification whose
closure of allowed states reaches a disallowed state admits no ideally
stabilizing program at all. An allowed set given as a ChainAutomaton is
decided by counting over its windows, and no state is listed at all.
"""
from __future__ import annotations

import itertools
from collections import defaultdict
from array import array
from functools import reduce
from operator import and_
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, Optional,
                    Sequence)

from . import kernel
from .kernel import BOOL, Domain, ModelError, Signature, State

if TYPE_CHECKING:  # a program is only bound, so merge closure needs none
    from .program import Program


class MappingError(ModelError):
    """A mapping cannot be bound to the given program."""


def _same(sid: int) -> int:
    return sid


class BoundMapping:
    """A mapping specialized to one program: a target signature and, per
    slot of it, a digit table (low_weight, span, values), by which the
    slot's value in the image of program state sid is
    values[sid // low_weight % span]. No tables means the identity on a
    program's own states: every slot is copied. id_of sends a program state
    id to its image's id under `signature`, the fold of the tables. Calling
    the binding on a program State reads that image off the state's values."""

    __slots__ = ("signature", "id_of", "digits", "_read")

    def __init__(self, signature: Signature, digits: Optional[list] = None):
        self.signature, self.id_of, self._read = signature, _same, None
        self.digits = digits or _copies(signature, range(len(signature.slots)))
        if digits is not None:
            tables = [d + (r,) for d, r in zip(digits, signature.radices)]

            def fold(sid: int) -> int:
                out = 0
                for low_weight, span, values, radix in tables:
                    out = out * radix + values[sid // low_weight % span]
                return out

            self.id_of = fold

    def __call__(self, state: State) -> State:
        if self._read is None:
            from . import explorer
            self._read = explorer.image_reader(self, state.sig)
        return State(self.signature, self._read(state.values))

    def ids(self, ts) -> Sequence[int]:
        """The id, under `signature`, of each state's image, in ts order."""
        return array("q", map(self.id_of, range(ts.size)))

    def slot_bits(self, size: int) -> list[list[int]]:
        """Per specification slot i and value a, the bitset of the program
        states below size whose image has value a at slot i: the periodic
        set of the codes the slot's table sends to a."""
        from . import explorer
        return [[explorer.periodic(
            [c for c, v in enumerate(values) if v == a], weight, span, size)
            for a in range(r)] for (weight, span, values), r in zip(
                self.digits, self.signature.radices)]


def _copies(sig: Signature, slots) -> list:
    """The digit tables that copy the given slots of sig's states."""
    return [(sig.weights[i + 1], sig.radices[i],
             range(sig.radices[i])) for i in slots]


class StateMapping:
    """Base class; subclasses override bind()."""

    def bind(self, program: Program) -> BoundMapping:
        raise NotImplementedError


class IdenticalMapping(StateMapping):
    """Specification state = program state. Only available when every
    program variable is external."""

    def bind(self, program: Program) -> BoundMapping:
        for proc in program.processes:
            for v in proc.vars:
                if not v.external:
                    raise MappingError(
                        "identical mapping needs all variables external; "
                        "%s.p%d is internal" % (v.name, proc.index))
        return BoundMapping(program.signature)


class ProjectionMapping(StateMapping):
    """Specification state = restriction of the program state to the named
    external variables."""

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)
        if not self.names:
            raise MappingError("projection needs at least one variable name")

    def bind(self, program: Program) -> BoundMapping:
        wanted = set(self.names)
        found = set()
        keep = []
        for i, (pos, name, dom) in enumerate(program.signature.slots):
            if name not in wanted:
                continue
            if not program.process(pos).var(name).external:
                raise MappingError(
                    "projection names internal variable %s.p%d" % (name, pos))
            found.add(name)
            keep.append(i)
        missing = wanted - found
        if missing:
            raise MappingError(
                "projection names undeclared variables: %s"
                % ", ".join(sorted(missing)))
        psig = program.signature
        return BoundMapping(Signature(psig.slots[i] for i in keep),
                            digits=_copies(psig, keep))


class HighestIdMapping(StateMapping):
    """The conflict-manager rule: position p's output `in` is true when p's
    boolean `access` is set and no accessing chain neighbor has a larger
    process identifier."""

    def bind(self, program: Program) -> BoundMapping:
        sig = Signature((p.index, "in", BOOL) for p in program.processes)
        psig = program.signature
        access, pids = {}, {p.index: p.pid for p in program.processes}
        for proc in program.processes:
            if "access" not in {v.name for v in proc.vars}:
                raise MappingError(
                    "process %d lacks variable 'access'" % proc.index)
            if proc.var("access").domain.values != BOOL.values:
                raise MappingError("'access' must be boolean")
            access[proc.index] = psig.slot(proc.index, "access")
        # the rule, once per valuation of p's window, in window code order
        radices, values, digits = psig.radices, [0] * len(psig.slots), []
        for p in pids:
            window = psig.window_slots(p)
            lo, hi = window[0], window[-1] + 1
            rivals = [access[q] for q in (p - 1, p + 1)
                      if q in pids and pids[q] > pids[p]]
            outs = bytearray()
            for combo in itertools.product(*map(range, radices[lo:hi])):
                values[lo:hi] = combo
                outs.append(values[access[p]] and not any(
                    values[i] for i in rivals))
            digits.append((psig.weights[hi], len(outs), outs))
        return BoundMapping(sig, digits=digits)


class EnabledOutputMapping(StateMapping):
    """The alternator rule: position p's output `in` is true exactly when
    some action of process p is enabled."""

    def bind(self, program: Program) -> BoundMapping:
        sig = Signature((p.index, "in", BOOL) for p in program.processes)
        return BoundMapping(sig, digits=[
            (t.low_weight, t.span, bytes(map(bool, t.rows)))
            for t in program.windows])


# --------------------------------------------------------------------------
# Merge closure.
#
# The extended external window of position p covers the external variables
# of p and its chain neighbors (2 positions wide at the chain ends). A
# candidate state is mergeable from a set when, for every position, some
# member of the set agrees with the candidate on that whole window; the
# candidate is then the consistent assembly of those members.

def _resolve_signature(states, signature):
    states = list(states)
    if signature is None:
        if not states:
            raise ModelError(
                "cannot infer a signature from an empty state set; pass one")
        signature = states[0].sig
    for s in states:
        if s.sig != signature:
            raise ModelError("spec states use mismatched signatures")
    return states, signature


def merge_closure(states, signature: Optional[Signature] = None) -> frozenset:
    """The least superset of states closed under extended-window assembly.

    One assembly step reaches the fixpoint. A state is admitted only when
    every one of its windows already occurs in the input, so admitting it
    adds no window, and a second step could admit only what the first did.
    The closure is exactly the set of states whose every extended window
    occurs in the input, the input among them: the language of a window
    automaton, listed under the state cap. Its state is the last two
    (position, letter) pairs; each letter checks the window of the
    position before, and the last letter its own position's too. Slots not
    grouped by position are put into chain order and then put back.
    """
    states, sig = _resolve_signature(states, signature)
    order = sorted(range(len(sig.slots)), key=lambda i: sig.slots[i][0])
    chain = Signature(sig.slots[i] for i in order)
    windows = [(p, [order[i] for i in chain.window_slots(p)])
               for p in chain.positions]
    seen = {(p, tuple(map(s.values.__getitem__, w)))
            for s in states for p, w in windows}
    last = chain.positions[-1]

    def occurs(p, near) -> bool:
        """Whether p's window, read off the (position, letter) pairs near
        it, occurs in the input."""
        return (p, sum((a for at, a in near if abs(at - p) <= 1), ())) in seen

    def step(q, p, a):
        near = q + ((p, a),)
        if len(near) > 1 and not occurs(near[-2][0], near) \
                or p == last and not occurs(p, near):
            return None
        return True if p == last else near[-2:]

    back = sorted(range(len(order)), key=order.__getitem__)
    words = _language(ChainAutomaton(chain, (), step, (True,)),
                      "merge closure")
    return frozenset(State(sig, tuple(map(w.__getitem__, back)))
                     for w in words)


def merge_closure_generations(states, signature=None) -> dict:
    """merge_closure with each input state mapped to 0, the rest to 1; only
    the benchmark's traced run (bench/tracing.py) still calls it."""
    states, sig = _resolve_signature(states, signature)
    gens = dict.fromkeys(merge_closure(states, sig), 1)
    return gens | dict.fromkeys(states, 0)


def check_merge_symmetry(program: Program, mapping: StateMapping,
                         spec_states=None) -> Optional[State]:
    """Search for a merge-symmetry violation.

    A violation is a specification state that is mergeable from the given
    state set (default: the image of the program's universe) yet has no
    program preimage. Returns the least violating state in canonical order,
    or None when the mapping is merge-symmetric over that set. The image is
    taken over the program's universe, so a universe above the state cap
    raises UniverseCapError, and so does a merge closure above it.
    """
    bound, size = mapping.bind(program), program.signature.size
    kernel.check_cap(size)
    image = frozenset(map(bound.signature.state_at,
                          set(map(bound.id_of, range(size)))))
    base = image if spec_states is None else spec_states
    return min((c for c in merge_closure(base, bound.signature)
                if c not in image),
               key=lambda s: s.values, default=None)


@kernel.record
class PossibilityResult:
    """Outcome of the ideal-stabilization necessary-condition check.

    possible=False comes with a witness: the least disallowed state, in
    canonical order, inside the merge closure of the allowed set. Its
    generation is always 1, because one assembly step reaches the closure
    (a state is admitted only when its windows already occur, so admitting
    it adds none); the field is kept for the JSON report. possible=True
    asserts only that the necessary condition holds for the supplied
    allowed set, not that an ideally stabilizing program exists.
    """

    possible: bool
    witness: Optional[State]
    generation: Optional[int]
    closure_size: int
    allowed_size: int
    universe_size: int


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


def _language(aut: ChainAutomaton, counted: str) -> Iterator[tuple]:
    """The value tuples of the states the automaton accepts, in canonical
    order. A path count over `_runs`' live sets applies the state cap
    first; the lexicographic walk then enters live automaton states only,
    so it never backtracks: O(N) per state listed."""
    alphabet, delta, _, live = _runs(aut)
    paths = dict.fromkeys(live[-1], 1)
    for moves, alive in zip(delta[::-1], live[-2::-1]):
        paths = {q: sum(paths.get(t, 0) for t in moves[q]) for q in alive}
    kernel.check_cap(paths.get(aut.initial, 0), counted)
    word, stack = [()] * len(alphabet), [zip(alphabet[0],
                                              delta[0][aut.initial])]
    while stack:
        j = len(stack)  # the top iterator chooses letter j - 1
        for letter, t in stack[-1]:
            if t in live[j]:
                word[j - 1] = letter
                if j == len(alphabet):
                    yield sum(word, ())
                else:
                    stack.append(zip(alphabet[j], delta[j][t]))
                break
        else:
            stack.pop()


def accepted_states(aut: ChainAutomaton) -> frozenset:
    """The automaton's language, listed only within kernel.state_cap()."""
    return frozenset(State(aut.signature, values)
                     for values in _language(aut, "allowed set"))


def _automaton_possibility(aut: ChainAutomaton) -> PossibilityResult:
    """check_ideal_possibility on an automaton's language, listing nothing.

    windows[j] holds the letter windows (j-1, j, j+1) of accepted states,
    None-padded at the chain ends, read off live automaton states. A
    backward pass over keys (letter j-1, letter j, automaton state after j)
    counts the states whose every window occurs (the merge closure) and the
    rejected ones among them; the least rejected one is read off greedily.
    """
    alphabet, delta, reach, live = _runs(aut)
    n, windows = len(alphabet), []
    for j in range(n):
        lo = max(j - 1, 0)
        paths = [((), q) for q in live[lo]]
        for k in range(lo, min(j + 2, n)):
            paths = [(w + (a,), t) for w, q in paths
                     for a, t in enumerate(delta[k][q]) if t in live[k + 1]]
        windows.append({(None,) * (j == 0) + w + (None,) * (j == n - 1)
                        for w, _ in paths})
    marked, later = [None] * n, {}
    for j in range(n - 1, -1, -1):
        keys = {}
        for p, a, b in windows[j]:
            for q in [*reach[j + 1], None]:
                count, bad = (1, q not in aut.accepting) if b is None else \
                    later.get((a, b, delta[j + 1][q][b]), (0, 0))
                if count:
                    total, rejected = keys.get((p, a, q), (0, 0))
                    keys[p, a, q] = (total + count, rejected + bad)
        marked[j] = {key for key, (_, bad) in keys.items() if bad}
        later = keys
    starts = [(None, a, t) for a, t in enumerate(delta[0][aut.initial])]
    closure, rejected = map(sum, zip(*(later.get(k, (0, 0)) for k in starts)))
    sizes = (closure, closure - rejected, aut.signature.size)
    key = next((k for k in starts if k in marked[0]), None)
    if key is None:
        return PossibilityResult(True, None, None, *sizes)
    word = [key]
    for j in range(1, n):
        p, a, q = word[-1]
        word.append(next(k for k in ((a, b, t)
                                     for b, t in enumerate(delta[j][q]))
                         if (p, a, k[1]) in windows[j - 1]
                         and k in marked[j]))
    values = sum((alphabet[j][k[1]] for j, k in enumerate(word)), ())
    return PossibilityResult(False, State(aut.signature, values), 1, *sizes)


def check_ideal_possibility(allowed, disallowed=None,
                            signature: Optional[Signature] = None
                            ) -> PossibilityResult:
    """Decide whether any program can ideally stabilize to a specification
    whose allowed states are exactly `allowed`.

    Impossible means the merge closure of the allowed set contains a
    disallowed state: any merge-symmetric mapping would be forced to give
    that state a program preimage, so no program confines itself to the
    allowed set. The answer depends on `allowed` alone: a state set, or a
    ChainAutomaton accepting it, which is decided by counting with no state
    listed and so bounded by neither the state cap nor the universe. A
    `disallowed` set, given only with a state set, must partition the
    universe with `allowed`; None stands for the complement, never listed.
    """
    if isinstance(allowed, ChainAutomaton):
        if disallowed is not None:
            raise ModelError("an automaton's disallowed states are the rest "
                             "of its universe; pass no disallowed set")
        ps = allowed.signature.positions
        if ps[-1] - ps[0] != len(ps) - 1:
            raise ModelError("an automaton over a signature with a position "
                             "gap reads letter windows that are not "
                             "position windows; pass its states")
        return _automaton_possibility(allowed)
    allowed = frozenset(allowed)
    if disallowed is None:
        _, sig = _resolve_signature(allowed, signature)
    else:
        disallowed = frozenset(disallowed)
        _, sig = _resolve_signature(allowed | disallowed, signature)
        overlap = allowed & disallowed
        if overlap:
            raise ModelError(
                "allowed and disallowed overlap, e.g. %s"
                % min(overlap, key=lambda s: s.values).text())
        if len(allowed) + len(disallowed) != sig.size:
            raise ModelError(
                "allowed (%d) and disallowed (%d) do not partition the "
                "%d-state specification universe"
                % (len(allowed), len(disallowed), sig.size))
    closure = merge_closure(allowed, sig)
    witness = min((s for s in closure if s not in allowed),
                  key=lambda s: s.values, default=None)
    return PossibilityResult(witness is None, witness,
                             None if witness is None else 1, len(closure),
                             len(allowed), sig.size)


# --------------------------------------------------------------------------
# Spec-state set text files: one state per line, position-qualified
# `var.pK=value` tokens in canonical slot order. Blank lines and #-comments
# are ignored. Signatures are inferred from the observed labels and values,
# so a pair of files that partitions a universe is self-describing.

def format_spec_states(states, signature: Optional[Signature] = None) -> str:
    states, sig = _resolve_signature(states, signature)
    lines = []
    for s in sorted(states, key=lambda s: s.values):
        parts = []
        for (pos, name, dom), v in zip(sig.slots, s.values):
            parts.append("%s.p%d=%s" % (name, pos, dom.values[v]))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _parse_state_lines(text: str):
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        row = {}
        for token in line.replace(",", " ").split():
            label, eq, value = token.partition("=")
            if not eq or not label or not value:
                raise ModelError(
                    "line %d: bad token %r; expected var.pK=value"
                    % (lineno, token))
            key = kernel.qualified_slot(label)
            if key is None:
                raise ModelError(
                    "line %d: label %r must be position-qualified (var.pK)"
                    % (lineno, label))
            if key in row:
                raise ModelError(
                    "line %d: %s assigned twice" % (lineno, label))
            row[key] = value
        rows.append(row)
    return rows


def _order_values(values: set) -> tuple:
    if values <= {"false", "true"}:
        return BOOL.values
    if all(kernel.decimal_int(v.removeprefix("-")) is not None
           for v in values):
        # values that read alike, such as 1 and 01, go in text order
        return tuple(sorted(values, key=lambda v: (int(v), v)))
    return tuple(sorted(values))


def read_spec_state_sets(*texts: str):
    """Parse several spec-state files against one inferred signature.

    Returns (signature, [frozenset of states, one per text]). All texts must
    use the same variables; domains are the values observed across all texts.
    """
    per_text = [_parse_state_lines(t) for t in texts]
    all_rows = [row for rows in per_text for row in rows]
    if not all_rows:
        raise ModelError("no states given")
    keys = set(all_rows[0])
    for row in all_rows:
        if set(row) != keys:
            raise ModelError("states assign different variable sets")
    observed: dict = {k: set() for k in keys}
    for row in all_rows:
        for k, v in row.items():
            observed[k].add(v)
    slots = [(pos, name, Domain(name, _order_values(observed[(pos, name)])))
             for pos, name in sorted(keys)]
    sig = Signature(slots)
    sets = [frozenset(sig.state(row) for row in rows) for rows in per_text]
    return sig, sets
