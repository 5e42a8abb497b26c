"""Independent oracles the tests check the real implementations against.

Everything here is deliberately written from scratch against the model
semantics, not by calling the code under test: path enumeration instead
of component condensation, window scans instead of the production merge
engine, a literal restatement of the wave actions, and bitset reachability
for component structure. Slow is fine; these run on desk-size universes.
"""
from __future__ import annotations

import math
import random
import re

from stabiliq import kernel
from stabiliq.kernel import Signature, State


def successor_table(program) -> list:
    """succ[i] = sorted target indices of state i, via the kernel only."""
    sig = program.signature
    return [sorted(t.index for t in kernel.successors(program, s))
            for s in sig.states()]


def reference_run(program, start: State, steps: int, seed: int,
                  policy: str) -> tuple:
    """The central daemon stepped through the interpreter: (states,
    labels, lasso_start, hit_terminal) of a run as simulation.run defines
    it. uniform-random draws among the enabled actions, in canonical
    order, with random.Random(seed); round-robin fires the first enabled
    action at or after a pointer into the canonical action list, then
    moves the pointer past it."""
    rng, order, pointer = random.Random(seed), program.action_order, 0
    states, labels, first_seen = [start], [], {start: 0}
    while len(labels) < steps:
        enabled = kernel.enabled_actions(program, states[-1])
        if not enabled:
            return tuple(states), tuple(labels), None, True
        if policy == "uniform-random":
            label = rng.choice(enabled)
        else:
            label = next(order[k % len(order)]
                         for k in range(pointer, pointer + len(order))
                         if order[k % len(order)] in enabled)
            pointer = order.index(label) + 1
        states.append(kernel.apply(program, states[-1], *label))
        labels.append(label)
        if states[-1] in first_seen:
            return tuple(states), tuple(labels), first_seen[states[-1]], False
        first_seen[states[-1]] = len(states) - 1
    return tuple(states), tuple(labels), None, False


# --------------------------------------------------------------------------
# Convergence oracle: enumerate maximal paths with lasso detection.

def exists_path_avoiding(succ: list, avoid_ok: list) -> bool:
    """True iff some maximal path stays forever inside the states where
    avoid_ok[i] is true: it either parks in such a terminal or closes a
    lasso. Walks paths explicitly with an on-path set; states proven safe
    are not re-walked, which keeps the enumeration finite without changing
    its answer."""
    n = len(succ)
    safe = [False] * n
    on_path = [False] * n
    for start in range(n):
        if not avoid_ok[start] or safe[start]:
            continue
        # each stack frame: (state, iterator over its in-region successors)
        stack = [(start, iter([t for t in succ[start]] if succ[start] else []))]
        if not succ[start]:
            return True  # terminal inside the region
        on_path[start] = True
        while stack:
            state, it = stack[-1]
            advanced = False
            for t in it:
                if not avoid_ok[t]:
                    continue
                if on_path[t]:
                    return True  # lasso inside the region
                if safe[t]:
                    continue
                if not succ[t]:
                    return True  # terminal inside the region
                stack.append((t, iter(succ[t])))
                on_path[t] = True
                advanced = True
                break
            if not advanced:
                on_path[state] = False
                safe[state] = True
                stack.pop()
    return False


def oracle_converges(program, pred) -> bool:
    """Every maximal path, from every universe state, eventually visits a
    pred state."""
    sig = program.signature
    succ = successor_table(program)
    outside = [not pred(s) for s in sig.states()]
    return not exists_path_avoiding(succ, outside)


# --------------------------------------------------------------------------
# Merge oracle: one donation round by direct window scanning.

def window_slot_indices(sig: Signature) -> dict:
    positions = sorted({p for p, _, _ in sig.slots})
    return {p: [i for i, (q, _, _) in enumerate(sig.slots) if abs(q - p) <= 1]
            for p in positions}


def brute_merge_round(sig: Signature, current) -> set:
    """All universe states whose every extended window occurs in `current`."""
    wins = window_slot_indices(sig)
    donors = {p: {tuple(s.values[i] for i in idx) for s in current}
              for p, idx in wins.items()}
    out = set()
    for cand in sig.states():
        if all(tuple(cand.values[i] for i in idx) in donors[p]
               for p, idx in wins.items()):
            out.add(cand)
    return out


def brute_merge_closure(sig: Signature, states) -> frozenset:
    cur = set(states)
    while True:
        nxt = brute_merge_round(sig, cur)
        if nxt <= cur:
            return frozenset(cur)
        cur |= nxt


def format_spec_states(states) -> str:
    """The spec-state file text of a nonempty state set, one line per state
    in canonical order, each of position-qualified var.pK=value tokens."""
    return "".join(" ".join(
        "%s.p%d=%s" % (name, pos, dom.values[v])
        for (pos, name, dom), v in zip(s.sig.slots, s.values)) + "\n"
        for s in sorted(states, key=lambda s: s.values))


def le_closed_form(n: int) -> dict:
    """The le impossibility answer at chain length n, from counting alone.

    Allowed: no leader (2^n contend patterns) or one contending leader
    (n·2^(n-1)). A window of three positions holds at most one leader, so
    the closure is every state whose leaders all contend and sit at least
    3 apart: C(n-2(k-1), k) placements of k leaders, 2^(n-k) contend
    patterns for the rest. The least disallowed member puts two leaders as
    far right as that allows, at n-3 and n, and everything else false.
    """
    closure = sum(math.comb(n - 2 * (k - 1), k) << (n - k)
                  for k in range((n + 2) // 3 + 1))
    witness = " ".join(
        "contend.p%d=%s leader.p%d=%s" % (p, v, p, v)
        for p in range(1, n + 1)
        for v in ["true" if p in (n - 3, n) else "false"])
    return {"possible": False, "witness": witness, "generation": 1,
            "closure_size": closure, "allowed_size": (n + 2) << (n - 1),
            "universe_size": 4 ** n}


def random_spec_instance(rng: random.Random, max_slots: int = 12):
    """A random spec signature of boolean slots over a short chain, plus a
    random nonempty state subset."""
    positions = rng.randint(3, 6)
    slots = []
    for p in range(1, positions + 1):
        for k in range(rng.randint(1, 2)):
            slots.append((p, "b%d" % k, kernel.BOOL))
            if len(slots) == max_slots:
                break
        if len(slots) == max_slots:
            break
    sig = Signature(slots)
    count = rng.randint(1, min(8, sig.size))
    picked = rng.sample(range(sig.size), count)
    return sig, frozenset(sig.state_at(i) for i in picked)


# --------------------------------------------------------------------------
# Wave-protocol reference: the seven actions restated over value tuples.

def pif_reference_moves(values: tuple) -> list:
    """Enabled moves of the feedback wave protocol at a state given as the
    tuple of st values from position 1 to n. Returns (position, action
    name, successor tuple) triples, written independently of the kernel."""
    v = values
    n = len(v)
    moves = []
    if v[0] == "i" and v[1] == "i":
        moves.append((1, "request", ("rq",) + v[1:]))
    if v[0] == "rq" and v[1] == "rp":
        moves.append((1, "clear", ("i",) + v[1:]))
    for j in range(2, n):
        left, mid, right = v[j - 2], v[j - 1], v[j]
        head, tail = v[:j - 1], v[j:]
        if left == "rq" and mid == "i" and right == "i":
            moves.append((j, "forward", head + ("rq",) + tail))
        if left == "rq" and mid == "rq" and right == "rp":
            moves.append((j, "back", head + ("rp",) + tail))
        if left == "i" and mid != "i":
            moves.append((j, "stop", head + ("i",) + tail))
    left, last = v[n - 2], v[n - 1]
    if left == "rq" and last == "i":
        moves.append((n, "reflect", v[:n - 1] + ("rp",)))
    if left == "i" and last == "rp":
        moves.append((n, "reset", v[:n - 1] + ("i",)))
    return moves


def pif_classify(state: State) -> frozenset:
    """All wave predicate instances the state satisfies, as tuples:
    ("RQ", l, m), ("RP", k), ("RQ'", l, m), ("RP'", k).

    RQ(l, m): positions 1..l requesting, l+1..m idle, m+1..N replying.
    RP(k): positions 1..k requesting, the rest replying.
    RP'(k): 1..k requesting, k+1 replying, k+2..N anything but idle.
    RQ'(l, m): 1..l requesting, l+1..m idle, the rest arbitrary.

    Every instance is built and checked one by one, O(N^3) per state: the
    oracle the word matchers in stabiliq.specs are tested against.
    """
    positions = state.sig.positions
    n = len(positions)
    vals = [state.value(p, "st") for p in positions]
    out = set()
    for l in range(0, n):
        if any(v != "rq" for v in vals[:l]):
            continue
        for m in range(l + 1, n + 1):
            if any(v != "i" for v in vals[l:m]):
                continue
            out.add(("RQ'", l, m))
            if all(v == "rp" for v in vals[m:]):
                out.add(("RQ", l, m))
    for k in range(1, n):
        if any(v != "rq" for v in vals[:k]):
            continue
        if all(v == "rp" for v in vals[k:]):
            out.add(("RP", k))
        if vals[k] == "rp" and all(v != "i" for v in vals[k + 1:]):
            out.add(("RP'", k))
    return frozenset(out)


# --------------------------------------------------------------------------
# State predicates restated over a State, one value at a time: the oracles
# the chain automata in stabiliq.specs are checked against.

_PIF_LETTER = {"i": "i", "rq": "q", "rp": "p"}

#: Each wave family as a regular expression over the chain word, one
#: letter per position: i for idle, q for rq, p for rp.
PIF_REGEXES = {
    "pif_wave": re.compile(r"q*i+p*|q+p+"),
    "pif_prime": re.compile(r"q*i.*|q+p[^i]*"),
    "_pif_rq_prime": re.compile(r"q*i.*"),
    "_pif_rp_strict": re.compile(r"q+p+"),
    "pif_root_idle": re.compile(r"i.*"),
}


def pif_word_matches(name: str, state: State) -> bool:
    """Whether the state's chain word matches the named family's regex."""
    word = "".join(_PIF_LETTER[state.value(p, "st")]
                   for p in state.sig.positions)
    return PIF_REGEXES[name].fullmatch(word) is not None


def abp_classify(state: State) -> str:
    """"legitimate-SABP" when exactly one message is in flight and its bit
    equals the sender's sequence number; "transient" otherwise."""
    ns = state.value(1, "ns")
    chpq = state.value(1, "chpq")
    chqp = state.value(2, "chqp")
    data = chpq != "empty"
    ack = chqp != "empty"
    if data == ack:
        return "transient"
    payload = chpq[-1] if data else chqp[-1]
    return "legitimate-SABP" if payload == ns else "transient"


def no_adjacent_true(state: State) -> bool:
    """No two consecutive slots both hold a nonzero value index."""
    vals = state.values
    return all(not (vals[i] and vals[i + 1]) for i in range(len(vals) - 1))


def le_allowed(state: State) -> bool:
    """At most one leader, and that one contending."""
    leaders = [p for p in state.sig.positions
               if state.value(p, "leader") == "true"]
    return len(leaders) <= 1 and all(
        state.value(p, "contend") == "true" for p in leaders)


def map_state(mapping, program, state: State) -> State:
    """Map one program state through a freshly bound mapping."""
    return mapping.bind(program)(state)


def state_values(state: State) -> tuple:
    """The state's value texts in slot order."""
    return tuple(dom.values[v]
                 for (_, _, dom), v in zip(state.sig.slots, state.values))


def abp_reference_moves(values: tuple) -> list:
    """Enabled moves of the alternating bit protocol at (ns, chpq, nr, chqp),
    restated by hand. Returns (position, action, successor tuple) triples."""
    ns, chpq, nr, chqp = values
    moves = []
    if chqp != "empty":
        if (chqp, ns) in (("a0", "0"), ("a1", "1")):
            ns2 = "1" if ns == "0" else "0"
            chpq2 = chpq if chpq != "empty" else "d" + ns2
            moves.append((1, "next", (ns2, chpq2, nr, "empty")))
        else:
            moves.append((1, "next", (ns, chpq, nr, "empty")))
    if chpq == "empty" and chqp == "empty":
        moves.append((1, "timeout", (ns, "d" + ns, nr, chqp)))
    if chpq != "empty":
        bit = chpq[1]
        chqp2 = chqp if chqp != "empty" else "a" + bit
        moves.append((2, "reply", (ns, "empty", bit, chqp2)))
    return moves


def la_reference_enabled(values: tuple) -> list:
    """Positions allowed to toggle in the alternator, restated by hand."""
    n = len(values)
    out = []
    if values[0] == values[1]:
        out.append(1)
    for j in range(2, n):
        if values[j - 1] != values[j - 2] and values[j - 1] == values[j]:
            out.append(j)
    if values[n - 1] != values[n - 2]:
        out.append(n)
    return out


def _flip(values: tuple, j: int) -> tuple:
    """The tuple with position j's bool value flipped."""
    other = {"false": "true", "true": "false"}
    return values[:j - 1] + (other[values[j - 1]],) + values[j:]


def la_reference_moves(values: tuple) -> list:
    """Moves of the alternator at the x values from position 1 to n: each
    enabled position toggles its own bit with its step action."""
    return [(j, "step", _flip(values, j))
            for j in la_reference_enabled(values)]


def cm_reference_moves(values: tuple) -> list:
    """Moves of the conflict manager at the access values from position 1
    to n: every position may always flip its own bit."""
    return [(j, "flip", _flip(values, j))
            for j in range(1, len(values) + 1)]


# --------------------------------------------------------------------------
# Component oracle: strongly connected sets via bitset reachability.

def brute_sccs(succ: list) -> list:
    """Strongly connected components as sets of indices, computed as
    reach(i) intersected with co-reach(i). Quadratic and proud of it."""
    n = len(succ)
    fwd = [0] * n
    for i in range(n):
        for t in succ[i]:
            fwd[i] |= 1 << t
    changed = True
    while changed:
        changed = False
        for i in range(n):
            m = fwd[i]
            new = m
            rest = m
            while rest:
                bit = rest & -rest
                new |= fwd[bit.bit_length() - 1]
                rest ^= bit
            if new != fwd[i]:
                fwd[i] = new
                changed = True
    seen = [False] * n
    comps = []
    for i in range(n):
        if seen[i]:
            continue
        comp = {i}
        for j in range(n):
            if j != i and (fwd[i] >> j) & 1 and (fwd[j] >> i) & 1:
                comp.add(j)
        for j in comp:
            seen[j] = True
        comps.append(comp)
    return comps


def brute_bottom_sccs(succ: list) -> list:
    """The components no edge leaves."""
    out = []
    for comp in brute_sccs(succ):
        if all(t in comp for i in comp for t in succ[i]):
            # a singleton without a self-loop is a terminal, not a cycle
            # component, but it still is a bottom in the reachability sense
            out.append(comp)
    return out


def bits(nodes) -> int:
    """The node ids as a bitset, bit v for node v."""
    digits = {}
    for v in nodes:
        digits[v] = "1"
    return int("".join(digits.get(v, "0") for v in range(
        max(digits, default=0), -1, -1)), 2)
