"""The merge-closure engine: whether any program can ideally stabilize to a
specification at all.

The extended window of position p covers the external variables of p and
its chain neighbors. A state is mergeable from a set when each of its
windows occurs in some member of the set. A mapping must be
merge-symmetric: every state mergeable from its image has a program
preimage. One assembly step reaches the merge closure, since admitting a
state adds no window, so the closure is the language of a window automaton
(regular model checking, Bouajjani, Jonsson, Nilsson and Touili, CAV 2000).
One engine, `_closure`, answers every question along the chain, never by
scanning the universe: it reads the windows off an automaton (a state set
enters as the automaton of its prefixes), counts the closure and the
members that a second automaton rejects, and walks them in canonical
order. Possibility and merge symmetry take the counts and the first
rejected member and list nothing; merge_closure and accepted_states list
under the state cap. A specification whose closure of allowed states
reaches a disallowed state admits no ideally stabilizing program at all.
"""
from __future__ import annotations

from collections import defaultdict
from itertools import chain
from typing import TYPE_CHECKING, Optional

from . import kernel
from .kernel import (BOOL, ChainAutomaton, Domain, ModelError, Signature,
                     State, _runs)

if TYPE_CHECKING:  # a mapping is only bound
    from .mapping import StateMapping
    from .program import Program


def _resolve_signature(states, signature):
    states = list(states)
    if signature is None:
        if not states:
            raise ModelError(
                "cannot infer a signature from an empty state set; pass one")
        signature = states[0].sig
    if any(s.sig != signature for s in states):
        raise ModelError("spec states use mismatched signatures")
    return states, signature


def _prefixes(sig: Signature, states) -> ChainAutomaton:
    """The automaton of a state set's value-tuple prefixes, one automaton
    state per prefix that ends at a position's last slot."""
    values = {s.values for s in states}
    prefixes = {v[:at[-1] + 1] for v in values
                for at in sig.slots_at.values()}
    return ChainAutomaton(sig, (), lambda q, p, a: q + a
                          if q + a in prefixes else None, values)


def _closure(aut: ChainAutomaton, rejects: ChainAutomaton) -> tuple:
    """The merge closure of aut's language, counted: its size, the number of
    its members that `rejects` does not accept, and walk(bit), which yields
    in canonical order the value tuples of the members with bit 1 (every
    member), 2 (accepted by `rejects`) or 4 (rejected).

    The window of letter j is letters j-1, j and j+1 of an accepted state,
    None past a chain end or a position gap, read off live automaton
    states. A key at j is (letter j-1 or None, letter j, the state of
    `rejects` after j), and a backward pass counts the members that
    continue it and the rejected ones among them. One layer of counts is
    alive at a time; earlier layers keep which counts are nonzero, so the
    walk enters only keys that lead to a member and never backtracks."""
    alphabet, delta, _, live = _runs(aut)
    moves = delta if rejects is aut else _runs(rejects)[1]
    n, ps = len(alphabet), aut.signature.positions
    near = [0 < j < n and ps[j] - ps[j - 1] == 1 for j in range(n + 1)]
    nexts = []  # per j, (letter j-1 or None, letter j) -> letters j + 1
    for j in range(n):
        paths = [((), q) for q in live[j - near[j]]]
        for k in range(j - near[j], j + 1 + near[j + 1]):
            paths = [(w + (a,), t) for w, q in paths
                     for a, t in enumerate(delta[k][q]) if t in live[k + 1]]
        windows = defaultdict(list)
        for w in sorted({w for w, _ in paths}):
            p, a, b = (None,) * (not near[j]) + w + (None,) * (not near[j + 1])
            windows[p, a].append(b)
        if j + 1 < n and not near[j + 1]:  # any letter follows a gap
            windows = dict.fromkeys(windows, range(len(alphabet[j + 1])))
        nexts.append(windows)

    def children(j, key):
        p, a, q = key
        if j == n - 1:  # past the last letter, the final state
            return (q,)
        return ((a if near[j + 1] else None, b, moves[j + 1][q][b])
                for b in nexts[j][p, a])

    flags, later = [None] * n, {q: (1, int(q not in rejects.accepting))
                                for row in moves[-1].values() for q in row}
    for j in range(n - 1, -1, -1):
        ends = [{row[a] for row in moves[j].values()}
                for a in range(len(alphabet[j]))]
        layer = {}
        for p, a in nexts[j]:
            for q in ends[a]:
                total = bad = 0
                for key in children(j, (p, a, q)):
                    if key in later:
                        total, bad = total + later[key][0], bad + later[key][1]
                if total:
                    layer[p, a, q] = total, bad
        flags[j] = {key: 1 | 2 * (total > bad) | 4 * (bad > 0)
                    for key, (total, bad) in layer.items()}
        later = layer
    starts = [(None, a, t) for a, t in enumerate(moves[0][rejects.initial])]

    def walk(bit):
        word, stack = [()] * n, [iter(starts)]
        while stack:
            j = len(stack) - 1
            for key in stack[-1]:
                if flags[j].get(key, 0) & bit:
                    word[j] = alphabet[j][key[1]]
                    if j == n - 1:
                        yield tuple(chain.from_iterable(word))
                    else:
                        stack.append(children(j, key))
                    break
            else:
                stack.pop()
    total, bad = (sum(later.get(key, (0, 0))[i] for key in starts)
                  for i in (0, 1))
    return total, bad, walk


def _listed(aut: ChainAutomaton, bit: int, counted: str) -> frozenset:
    """The members of the merge closure of aut's language with `bit` (1:
    all, 2: those aut accepts), counted first and listed only within
    kernel.state_cap()."""
    total, bad, walk = _closure(aut, aut)
    kernel.check_cap(total if bit == 1 else total - bad, counted)
    return frozenset(State(aut.signature, values) for values in walk(bit))


def merge_closure(states, signature: Optional[Signature] = None) -> frozenset:
    """The least superset of states closed under extended-window assembly.

    One assembly step reaches the fixpoint. A state is admitted only when
    every one of its windows already occurs in the input, so admitting it
    adds no window, and a second step could admit only what the first did.
    The closure is exactly the set of states whose every extended window
    occurs in the input, listed under the state cap.
    """
    states, sig = _resolve_signature(states, signature)
    return _listed(_prefixes(sig, states), 1, "merge closure")


def accepted_states(aut: ChainAutomaton) -> frozenset:
    """The automaton's language, listed only within kernel.state_cap()."""
    return _listed(aut, 2, "allowed set")


def merge_closure_generations(states, signature=None) -> dict:
    """merge_closure, input states at 0, the rest at 1: the tracer's."""
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
    raises UniverseCapError; the closure is counted, not listed.
    """
    bound, size = mapping.bind(program), program.signature.size
    kernel.check_cap(size)
    sig = bound.signature
    image = _prefixes(sig, map(sig.state_at, set(map(bound.id_of,
                                                     range(size)))))
    base = image if spec_states is None else _prefixes(sig, spec_states)
    values = next(_closure(base, image)[2](4), None)
    return None if values is None else State(sig, values)


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


def check_ideal_possibility(allowed, disallowed=None,
                            signature: Optional[Signature] = None
                            ) -> PossibilityResult:
    """Decide whether any program can ideally stabilize to a specification
    whose allowed states are exactly `allowed`.

    Impossible means the merge closure of the allowed set contains a
    disallowed state: any merge-symmetric mapping would be forced to give
    that state a program preimage, so no program confines itself to the
    allowed set. The answer depends on `allowed` alone: a state set, or a
    ChainAutomaton accepting it. Either is decided by counting, with no
    state listed, so neither the state cap nor the universe bounds it. A
    `disallowed` set, given only with a state set, must partition the
    universe with `allowed`; None stands for the complement, never listed.
    """
    if isinstance(allowed, ChainAutomaton):
        if disallowed is not None:
            raise ModelError("an automaton's disallowed states are the rest "
                             "of its universe; pass no disallowed set")
        aut = allowed
    else:
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
        aut = _prefixes(sig, allowed)
    total, bad, walk = _closure(aut, aut)
    values, sig = next(walk(4), None), aut.signature
    sizes = (total, total - bad, sig.size)
    if values is None:
        return PossibilityResult(True, None, None, *sizes)
    return PossibilityResult(False, State(sig, values), 1, *sizes)


# --------------------------------------------------------------------------
# Spec-state set text files: one state per line, position-qualified
# `var.pK=value` tokens in canonical slot order. Blank lines and #-comments
# are ignored. Signatures are inferred from the observed labels and values,
# so a pair of files that partitions a universe is self-describing.

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
    if any(set(row) != keys for row in all_rows):
        raise ModelError("states assign different variable sets")
    observed = {k: {row[k] for row in all_rows} for k in keys}
    slots = [(pos, name, Domain(name, _order_values(observed[(pos, name)])))
             for pos, name in sorted(keys)]
    sig = Signature(slots)
    sets = [frozenset(sig.state(row) for row in rows) for rows in per_text]
    return sig, sets
