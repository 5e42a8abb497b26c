"""Derive the benchmark's known answers from independent oracles.

The answers come from tests/helpers.py (la_reference_enabled,
pif_reference_moves, brute_merge_closure) plus a from-scratch component
count, never from the code under test. The only stabiliq code used is the
state encoding that brute_merge_closure itself enumerates.

    python3 bench/oracle.py     # rewrite bench/known_answers.json

Takes a few seconds; the le closure dominates.
"""
from __future__ import annotations

import itertools
import json
import sys

from workloads import ANSWERS, ROOT, SRC, WORKLOADS, Workload

sys.path[:0] = [str(SRC), str(ROOT / "tests")]

import helpers  # noqa: E402
from stabiliq.kernel import BOOL, Signature  # noqa: E402


def components(succ: list) -> tuple:
    """Strongly connected components of a successor table by Kosaraju's
    two passes: (component id of each node, set of bottom component ids)."""
    n = len(succ)
    pred = [[] for _ in range(n)]
    for v, targets in enumerate(succ):
        for t in targets:
            pred[t].append(v)
    order, seen = [], bytearray(n)
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            for t in it:
                if not seen[t]:
                    seen[t] = 1
                    stack.append((t, iter(succ[t])))
                    break
            else:
                order.append(v)
                stack.pop()
    comp = [-1] * n
    count = 0
    for root in reversed(order):
        if comp[root] != -1:
            continue
        comp[root] = count
        stack = [root]
        while stack:
            v = stack.pop()
            for u in pred[v]:
                if comp[u] == -1:
                    comp[u] = count
                    stack.append(u)
        count += 1
    bottoms = set(range(count))
    for v, targets in enumerate(succ):
        if any(comp[t] != comp[v] for t in targets):
            bottoms.discard(comp[v])
    return comp, bottoms


def _verify_answer(holds: bool, states: int, edges: int, invariant: int,
                   succ: list) -> dict:
    if not holds:
        raise ValueError("the oracle finds this instance failing; the "
                         "benchmark only uses instances whose check holds")
    comp, bottoms = components(succ)
    return {"exit_code": 0, "holds": True, "witness": None, "states": states,
            "edges": edges, "invariant_states": invariant,
            "components": len(set(comp)), "bottom_components": len(bottoms)}


def la_answer(n: int) -> dict:
    """Ideal check of the alternator. With the invariant `true` and the FDP
    specification under divergence-allowed, only two clauses can gate: no
    terminal state (the acceptance is a recurrence) and no two adjacent
    positions enabled at once (the mapped state must be allowed)."""
    states = list(itertools.product((0, 1), repeat=n))
    index = {v: i for i, v in enumerate(states)}
    succ, holds = [], True
    for v in states:
        enabled = helpers.la_reference_enabled(v)
        holds &= bool(enabled) and all(b - a > 1 for a, b in
                                       zip(enabled, enabled[1:]))
        succ.append([index[v[:p - 1] + (1 - v[p - 1],) + v[p:]]
                     for p in enabled])
    edges = sum(map(len, succ))
    return _verify_answer(holds, len(states), edges, len(states), succ)


def pif_wave(v: tuple) -> bool:
    """RQ(l, m) or RP(k): rq^a i^b rp^c with b >= 1, or with b = 0 and
    0 < a < n, restated from the wave family's definition."""
    n = len(v)
    a = 0
    while a < n and v[a] == "rq":
        a += 1
    b = a
    while b < n and v[b] == "i":
        b += 1
    return all(x == "rp" for x in v[b:]) and (b > a or 0 < a < n)


def pif_answer(n: int) -> dict:
    """Stabilizing check of the wave chain with invariant rq-or-rp under
    the strict specification: the invariant is closed, no terminal or
    cycle lies outside it, every bottom component is a cycle inside it,
    and (identity mapping, divergence forbidden) no self-loop inside it."""
    states = list(itertools.product(("i", "rq"), *[("i", "rq", "rp")] * (n - 2),
                                    ("i", "rp")))
    index = {v: i for i, v in enumerate(states)}
    succ = [[index[t] for _, _, t in helpers.pif_reference_moves(v)]
            for v in states]
    wave = [pif_wave(v) for v in states]
    outside = [[t for t in succ[i] if not wave[t]] if not wave[i] else []
               for i in range(len(states))]
    out_comp, _ = components(outside)
    sizes = {}
    for i, c in enumerate(out_comp):
        if not wave[i]:
            sizes[c] = sizes.get(c, 0) + 1
    cycle_outside = any(sizes[out_comp[i]] > 1 or i in outside[i]
                        for i in range(len(states)) if not wave[i])
    comp, bottom = components(succ)
    holds = (
        all(wave[t] for i in range(len(states)) if wave[i] for t in succ[i])
        and all(succ[i] or wave[i] for i in range(len(states)))
        and not cycle_outside
        and all(wave[i] and succ[i] for i in range(len(states))
                if comp[i] in bottom)
        and not any(i in succ[i] for i in range(len(states)) if wave[i]))
    edges = sum(map(len, succ))
    return _verify_answer(holds, len(states), edges, sum(wave), succ)


def le_allowed(values: tuple) -> bool:
    """At most one leader, and a leader contends. values alternate
    (contend, leader) per position as indices into (false, true)."""
    leaders = [p for p in range(0, len(values), 2) if values[p + 1]]
    return len(leaders) <= 1 and all(values[p] for p in leaders)


def le_answer(n: int) -> dict:
    """Merge closure of the le allowed set by brute-force window scans; the
    witness is the least disallowed state of the earliest round that
    reaches any."""
    sig = Signature((p, name, BOOL) for p in range(1, n + 1)
                    for name in ("contend", "leader"))
    allowed = {s for s in sig.states() if le_allowed(s.values)}
    closure = helpers.brute_merge_closure(sig, allowed)
    current, generation, witness = set(allowed), 0, None
    while witness is None:
        generation += 1
        merged = helpers.brute_merge_round(sig, current)
        hits = sorted(s.values for s in merged if not le_allowed(s.values))
        if hits:
            witness = " ".join(
                "%s.p%d=%s" % (name, pos, BOOL.values[v])
                for (pos, name, _), v in zip(sig.slots, hits[0]))
        elif merged <= current:
            generation = None
            break
        current |= merged
    return {"exit_code": 0, "possible": witness is None, "witness": witness,
            "generation": generation, "closure_size": len(closure),
            "allowed_size": len(allowed), "universe_size": sig.size}


ORACLES = {"la": la_answer, "pif": pif_answer, "le": le_answer}


def answer(workload: Workload) -> dict:
    return ORACLES[workload.protocol](workload.n)


def main() -> int:
    answers = {name: answer(w) for name, w in WORKLOADS.items()}
    with open(ANSWERS, "w") as handle:
        json.dump(answers, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % ANSWERS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
