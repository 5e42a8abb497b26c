"""Reproducible runs of a program under the central daemon, stepped through
its window tables on a state's values: no transition system is built, and
only `simulate` and API callers load this module.
"""
from __future__ import annotations

import random
from itertools import groupby
from typing import Iterable, Optional

from .kernel import POLICIES, ModelError, State, record
from .program import Program


@record
class Computation:
    """A simulated run. labels[i] takes states[i] to states[i+1]. When the
    run revisits a state, the repeat occurrence is kept as the final state
    and lasso_start gives the index of its first occurrence: the suffix
    states[lasso_start:] is a cycle the daemon may repeat forever."""

    states: tuple[State, ...]
    labels: tuple[tuple[int, str], ...]
    lasso_start: Optional[int]
    hit_terminal: bool

    @property
    def maximal(self) -> bool:
        """True when the run is a complete computation: it either ended in
        a terminal state or closed a lasso (an infinite computation)."""
        return self.hit_terminal or self.lasso_start is not None


def run(program: Program, start: State, steps: int, seed: int = 0,
        policy: str = "uniform-random") -> Computation:
    """Simulate the central daemon for at most `steps` transitions.

    uniform-random draws among the enabled actions with a seeded generator;
    round-robin keeps a rotating pointer over the canonical action list and
    fires the first enabled action at or after it. Stops early at a terminal
    state or when a state repeats (the run is then a lasso and already shows
    everything an extension could). It steps through the window tables on
    the state's values, keeping each table's window code: a window is a
    contiguous run of slots, so its code is read off its values, and a move
    writes its new code, the old one plus the row's delta, back into them.
    """
    if start.sig != program.signature:
        raise ModelError("start state does not belong to program %r"
                         % program.name)
    if steps < 0:
        raise ModelError("steps must be nonnegative")
    if policy not in POLICIES:
        raise ModelError("unknown policy %r; choose from %s"
                         % (policy, ", ".join(POLICIES)))
    rng = random.Random(seed)
    order, tables, sig = program.action_order, program.windows, \
        program.signature
    values = list(start.values)
    code = lambda t: sig.code(values, t.lo, t.hi)  # table t's window code
    codes, pointer = list(map(code, tables)), 0
    states, labels, seen = [start], [], {start.values: 0}
    lasso_start, hit_terminal = None, False
    while len(labels) < steps:
        moves = [(action, k, delta) for k, t in enumerate(tables)
                 for action, delta in t.rows[codes[k]]]
        if not moves:
            hit_terminal = True
            break
        if policy == "uniform-random":
            action, k, delta = rng.choice(moves)
        else:
            # the enabled action the fewest places at or after the pointer
            action, k, delta = min(
                moves, key=lambda m: (m[0] - pointer) % len(order))
            pointer = (action + 1) % len(order)
        # the moved window's new code, written into its slots
        c = codes[k] + delta
        for i in reversed(range(tables[k].lo, tables[k].hi)):
            c, values[i] = divmod(c, sig.radices[i])
        states.append(State(sig, tuple(values)))
        labels.append(order[action])
        # a move at position q writes within q - 1..q + 1, which the
        # windows of q - 2..q + 2 read: only their codes change
        q = order[action][0]
        for j in range(max(q - 3, 0), min(q + 2, len(tables))):
            codes[j] = code(tables[j])
        if states[-1].values in seen:
            lasso_start = seen[states[-1].values]
            break
        seen[states[-1].values] = len(labels)
    return Computation(tuple(states), tuple(labels), lasso_start,
                       hit_terminal)


def start_state(program: Program, text: str, seed: int) -> State:
    """The state `simulate --from` names: canonical var=value text,
    all-idle, all-false, or random (drawn with the seed)."""
    sig = program.signature
    if text == "random":
        return sig.state_at(random.Random(seed).randrange(sig.size))
    if text in ("all-idle", "all-false"):
        target = "i" if text == "all-idle" else "false"
        for pos, name, domain in sig.slots:
            if target not in domain:
                raise ModelError(
                    "--from %s needs every variable to admit %r; "
                    "%s at position %d ranges over %r"
                    % (text, target, name, pos, domain.values))
        return sig.state({(pos, name): target for pos, name, _ in sig.slots})
    return sig.parse_state(text)


def stutter_free(images: Iterable[State]) -> list:
    """(index, image) for the first image of each run of equal ones."""
    return [next(same) for _, same in groupby(
        enumerate(images), key=lambda step: step[1].values)]
