"""The merge-closure engine: whether any program can ideally stabilize to a
specification at all.

The extended window of position p covers the external variables of p and
its chain neighbors. A state is mergeable from a set when each of its
windows occurs in some member of the set. A mapping must be
merge-symmetric: every state mergeable from its image has a program
preimage. One assembly step reaches the merge closure, since admitting a
state adds no window, so the closure is the language of a window automaton
(regular model checking, Bouajjani, Jonsson, Nilsson and Touili, CAV 2000),
listed along the chain, never by scanning the universe; an allowed set
given as a ChainAutomaton is decided by counting, and no state is listed. A
specification whose closure of allowed states reaches a disallowed state
admits no ideally stabilizing program at all.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

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
