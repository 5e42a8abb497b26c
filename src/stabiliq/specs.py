"""Checkable specifications and the four verdict computations.

A Specification constrains the sequences of external-variable states a
program may exhibit: which specification states are allowed, which non-stutter
state changes are allowed, what must happen on the eventual (bottom-component)
behavior, and how stutter divergence is treated. All checks run over the full
transition system, so a verdict quantifies over every initial state and every
maximal computation under the unfair central daemon.

Verdicts never claim more than was checked: each failure carries a concrete
witness replayable through the kernel, and analysis findings that do not gate
the verdict (fairness obligations, stutter divergence under a permissive
policy) are reported in the notes.
"""
from __future__ import annotations

import functools
import time
from functools import reduce
from operator import or_
from typing import Callable, Optional

from . import kernel  # explorer only in the functions that search a system
from .kernel import (DIVERGENCE_ALLOWED, DIVERGENCE_FORBIDDEN, ChainAutomaton,
                     ChainPredicate, Signature, State, check_cap, every_state,
                     replace)
from .mapping import BoundMapping, StateMapping, _same
from .program import Program

STUTTER_POLICIES = (DIVERGENCE_ALLOWED, DIVERGENCE_FORBIDDEN)

#: Obligation modes: enforce always gates the verdict; policy gates only
#: under divergence-forbidden; analyze is reported and never gates.
OBLIGATION_MODES = ("enforce", "policy", "analyze")


# --------------------------------------------------------------------------
# Acceptance conditions on eventual behavior.

@kernel.record
class CycleWithin:
    """Every bottom component must be nonterminal and stay inside the given
    family of specification states (the target cycle family)."""

    pred: Callable[[State], bool]
    description: str = ""


@kernel.record
class Obligation:
    """A recurrence obligation: every cycle of every bottom component must
    contain at least one edge whose mapped endpoints satisfy edge_pred."""

    name: str
    edge_pred: Callable[[State, State], bool]
    mode: str = "enforce"

    def __post_init__(self):
        if self.mode not in OBLIGATION_MODES:
            raise ValueError("unknown obligation mode %r" % self.mode)


@kernel.record
class Recurrence:
    obligations: tuple[Obligation, ...]


@kernel.record
class FiniteTerminal:
    """Every bottom component must be a terminal state satisfying pred:
    the specification's sequences are finite."""

    pred: Callable[[State], bool]


# Local edge predicates, which check_stabilizing decides on image bitsets
# with no image pair listed; any other callable runs once per image pair.

def every_edge(s: State, t: State) -> bool:
    """The allowed_edge that allows every change."""
    return True


@kernel.record
class Changes:
    """Holds when the image changes at some slot in `slots` (indices into
    the specification signature; every slot when None)."""

    slots: Optional[tuple] = None

    def __call__(self, s: State, t: State) -> bool:
        slots = range(len(s.values)) if self.slots is None else self.slots
        return any(s.values[i] != t.values[i] for i in slots)


@kernel.record
class Leaves:
    """Holds unless the image leaves `source` for a state in neither
    `source` nor `target` (two state predicates)."""

    source: Callable[[State], bool]
    target: Callable[[State], bool]

    def __call__(self, s: State, t: State) -> bool:
        return not self.source(s) or self.source(t) or self.target(t)


@kernel.record
class Specification:
    """A problem specification over external-variable states.

    allowed_state and the acceptance predicates take specification states;
    allowed_edge takes a non-stutter pair of specification states (stutter
    pairs are implicitly allowed and handled by the stutter policy).
    """

    name: str
    allowed_state: Callable[[State], bool]
    allowed_edge: Callable[[State, State], bool]
    acceptance: CycleWithin | Recurrence | FiniteTerminal
    stutter_policy: str = DIVERGENCE_FORBIDDEN

    def __post_init__(self):
        if self.stutter_policy not in STUTTER_POLICIES:
            raise ValueError("unknown stutter policy %r" % self.stutter_policy)
        if not isinstance(self.acceptance,
                          (CycleWithin, Recurrence, FiniteTerminal)):
            raise ValueError("unknown acceptance condition %r"
                             % (self.acceptance,))

    def with_policy(self, policy: str) -> "Specification":
        return replace(self, stutter_policy=policy)


# --------------------------------------------------------------------------
# Verdicts.

@kernel.record(frozen=False)
class Verdict:
    """Outcome of one check. witness is None exactly when the check holds;
    otherwise it is a small JSON-ready dict with canonical state texts.
    notes carry findings that informed but did not decide the verdict."""

    check: str
    holds: bool
    witness: Optional[dict]
    stats: dict
    notes: list = kernel.factory(list)

    def to_dict(self) -> dict:
        from copy import deepcopy  # only the JSON report needs it
        return deepcopy({n: getattr(self, n) for n in self._fields})

    def summary(self) -> str:
        lines = ["%s: %s" % (self.check, "holds" if self.holds else "FAILS")]
        if self.witness is not None:
            lines.append("  witness: %s" % _witness_text(self.witness))
        return "\n".join(lines + ["  note: %s" % note for note in self.notes])


_WITNESS_TEXT = {
    "edge": "edge {source} --{action}--> {target}",
    "terminal": "terminal state {state}",
    "cycle": "cycle through {path}",
    "disallowed-state": "state {state} maps to disallowed {mapped}",
    "disallowed-edge": "edge {source} --{action}--> {target} maps to "
                       "disallowed {mapped_source} -> {mapped_target}",
    "stutter-cycle": "image stays {image} around cycle {path}",
    "acceptance": "{reason}",
}


def _witness_text(witness: dict) -> str:
    text = _WITNESS_TEXT.get(witness.get("kind"))
    return repr(witness) if text is None else text.format(
        path=" -> ".join(witness.get("states", ())), **witness)


def _label(pos: int, name: str) -> str:
    return "%d:%s" % (pos, name)


def _cycle_witness(cycle: explorer.Cycle) -> dict:
    return {"kind": "cycle", "states": [s.text() for s in cycle.states],
            "actions": [_label(p, a) for p, a in cycle.labels]}


def _escaping_edge(ts: explorer.TransitionSystem, inside: int
                   ) -> Optional[dict]:
    """The first edge from a state inside the set to one outside it, as an
    edge witness, or None when the set is closed."""
    from . import explorer
    leaving = inside & explorer.pre(ts.full & ~inside, ts.sources)
    if not leaving:
        return None
    i = explorer.least(leaving)
    pos, name, t = next(e for e in ts.edges(i) if not inside >> e[2] & 1)
    return {"kind": "edge", "source": ts.state(i).text(),
            "target": ts.state(t).text(), "action": _label(pos, name)}


def _avoiding_computation(ts: explorer.TransitionSystem, inside: int
                          ) -> tuple[Optional[dict], Optional[str]]:
    """A witness that some maximal computation never enters the set, with
    the note that names it, or (None, None). Under the no-fairness daemon
    the first terminal state outside the set is one, and so is any cycle
    through states outside it."""
    from . import explorer
    stuck = ts.terminal & ~inside
    if stuck:
        return ({"kind": "terminal",
                 "state": ts.state(explorer.least(stuck)).text()},
                "terminal state outside the invariant")
    cycle = explorer.find_cycle(ts, ts.full & ~inside)
    if cycle is not None:
        return (_cycle_witness(cycle),
                "a computation can avoid the invariant forever")
    return None, None


def _ms_since(t0: float) -> float:
    return round((time.perf_counter() - t0) * 1000.0, 3)


def _holds(pred: Callable[[State], bool], bound: BoundMapping,
           ts: explorer.TransitionSystem, letters: Optional[list] = None
           ) -> int:
    """The bitset of the program states whose image satisfies pred: a
    ChainPredicate's from its automaton, run over the image letters when
    given (a mapped binding must give them); any other callable's by running
    it on every specification state, the one place a predicate is run state
    by state, its flags read through every image id unless the binding is
    the identity. A program-side predicate (an invariant) is read through
    the program's own binding, BoundMapping(program.signature)."""
    from . import explorer
    if isinstance(pred, ChainPredicate):
        return pred.bits(bound.signature, letters)
    bits = explorer.bitset(map(pred, bound.signature.states()))
    if bound.id_of is _same:
        return bits
    ok = explorer.flags(bits, bound.signature.size)
    return explorer.bitset(map(ok.__getitem__, bound.ids(ts)))


def _edge_relations(ts, bound: BoundMapping, letters: Optional[list],
                    inv: int) -> Callable:
    """`unmet(p, stutter=False)`, which builds in one pass the relation of
    the invariant's edges that miss the edge predicate p when asked (with
    stutter, a stutter pair meets p, as it meets every Leaves). Changes drops
    the edges whose image ends differ in a value set of its slots, read off
    the image letters (None under the identity, where Changes() keeps delta
    0), and a delta it leaves whole keeps the system's own int; Leaves keeps
    the edges from its source set to outside both sets; a plain callable
    runs once per image pair of the edges, through its own cache."""
    from . import explorer
    # no edge leaves the whole universe: its edges are the system's own
    inner = ts.sources if inv == ts.full else explorer.within(inv, ts.sources)
    image = functools.cache(bound.signature.state_at)
    ids = functools.cache(bound.ids)  # made once, and only for a callable
    slot_bits = functools.cache(bound.slot_bits)  # the same, for a Changes

    def moved(d: int, slots: Optional[tuple]) -> int:
        sets = letters or slot_bits()  # each slot's sets but its last
        return reduce(or_, (v ^ explorer.shift(v, -d) for i in (
            range(len(sets)) if slots is None else slots)
            for v in sets[i][:-1]), 0)

    def unmet(p: Callable, stutter: bool = False) -> dict:
        if p is every_edge:
            return {}
        if bound.id_of is _same and p == Changes():
            return {} if stutter else {d: e for d, e in inner.items() if not d}
        if isinstance(p, Changes):
            rel = {}
            for d, e in inner.items():
                x = e & moved(d, p.slots)
                e = e & moved(d, None) if stutter else e
                if r := e ^ x if x else e:  # e & ~m would copy e
                    rel[d] = r
            return rel
        if isinstance(p, Leaves):
            a = _holds(p.source, bound, ts, letters)
            ok = a | _holds(p.target, bound, ts, letters)
            return {d: r for d, e in inner.items()
                    if (r := e & a & ~explorer.shift(ok, -d))}
        miss = functools.cache(lambda m, n: not (stutter and m == n
                                                 or p(image(m), image(n))))
        at = range(ts.size) if bound.id_of is _same else ids(ts)
        return explorer.edges_where(ts, inv, lambda v, w: miss(at[v], at[w]))

    return unmet


# --------------------------------------------------------------------------
# Core checks.

def check_closed(program: Program, pred: Callable[[State], bool],
                 ts: Optional[explorer.TransitionSystem] = None) -> Verdict:
    """Does no transition leave the predicate set?"""
    from . import explorer
    t0 = time.perf_counter()
    ts = ts if ts is not None else explorer.build_transition_system(program)
    inside = _holds(pred, BoundMapping(ts.program.signature), ts)
    witness = _escaping_edge(ts, inside)
    stats = {"states": ts.size, "edges": ts.edge_count(),
             "predicate_states": inside.bit_count(),
             "elapsed_ms": _ms_since(t0)}
    return Verdict("closed", witness is None, witness, stats)


def check_convergence(program: Program, pred: Callable[[State], bool],
                      ts: Optional[explorer.TransitionSystem] = None
                      ) -> Verdict:
    """Does every maximal computation from every universe state reach the
    predicate? Complete under no fairness: it fails exactly on a terminal
    state outside the predicate or a cycle avoiding it."""
    from . import explorer
    t0 = time.perf_counter()
    ts = ts if ts is not None else explorer.build_transition_system(program)
    witness, _ = _avoiding_computation(
        ts, _holds(pred, BoundMapping(ts.program.signature), ts))
    stats = {"states": ts.size, "edges": ts.edge_count(),
             "terminals": ts.terminal.bit_count(),
             "elapsed_ms": _ms_since(t0)}
    return Verdict("convergence", witness is None, witness, stats)


def check_stabilizing(program: Program, mapping: StateMapping,
                      spec: Specification,
                      invariant: Callable[[State], bool],
                      ts: Optional[explorer.TransitionSystem] = None,
                      _check_name: str = "stabilizing") -> Verdict:
    """Does the program stabilize to the specification from the invariant?

    The invariant is a predicate over program states. The verdict is the
    conjunction of: the invariant is closed; every maximal computation
    converges to it; inside it, states and non-stutter edges map into the
    specification's allowed sets; every bottom component satisfies the
    acceptance condition; and stutter divergence inside the invariant is
    absent when the policy forbids it. Findings that the policy or an
    obligation's mode exempts from gating are reported in the notes.
    """
    from . import explorer
    t0 = time.perf_counter()
    ts = ts if ts is not None else explorer.build_transition_system(program)
    bound = mapping.bind(program)
    inv = _holds(invariant, BoundMapping(ts.program.signature), ts)
    notes = ["stutter policy: %s" % spec.stutter_policy]
    cond, outside = None, 0  # the invariant's, past convergence

    def stats() -> dict:
        whole = cond or explorer.condense(ts)
        return {"states": ts.size, "edges": ts.edge_count(),
                "invariant_states": inv.bit_count(),
                "components": outside + whole.count,
                "bottom_components": len(whole.bottoms),
                "elapsed_ms": _ms_since(t0)}

    def fail(witness: dict) -> Verdict:
        return Verdict(_check_name, False, witness, stats(), notes)

    # Closure: no edge may leave the invariant.
    escape = _escaping_edge(ts, inv)
    if escape is not None:
        notes.append("invariant is not closed")
        return fail(escape)

    # Convergence: terminals inside, no cycle entirely outside.
    witness, note = _avoiding_computation(ts, inv)
    if witness is not None:
        notes.append(note)
        return fail(witness)

    # So every bottom component lies inside the invariant, and every state
    # outside it is a trivial component.
    cond, outside = explorer.condense(ts, inv), ts.size - inv.bit_count()

    # State conformance inside the invariant. Specification states are
    # read as image letters (none under the identity, whose states are the
    # program's); a State is decoded only for a plain callable or a witness.
    letters = None if bound.id_of is _same else bound.slot_bits()
    bad = inv & ~_holds(spec.allowed_state, bound, ts, letters)
    if bad:
        state = ts.state(explorer.least(bad))
        return fail({"kind": "disallowed-state", "state": state.text(),
                     "mapped": bound(state).text()})

    # Edge conformance: non-stutter images of invariant-internal edges.
    unmet = _edge_relations(ts, bound, letters, inv)
    bad = unmet(spec.allowed_edge, stutter=True)
    if bad:
        i = min(map(explorer.least, bad.values()))
        pos, name, t = next(e for e in ts.edges(i)
                            if bad.get(e[2] - i, 0) >> i & 1)
        source, target = ts.state(i), ts.state(t)
        return fail({"kind": "disallowed-edge", "source": source.text(),
                     "target": target.text(), "action": _label(pos, name),
                     "mapped_source": bound(source).text(),
                     "mapped_target": bound(target).text()})

    # Every cycle question goes through `ask`, which answers each one once.
    # A question is its nodes and a Changes' slot set (every slot for
    # Changes(), so the stutter check and a Changes() obligation share one
    # answer), or the id of any other predicate, which need not hash. A
    # slot set is put to explorer.frozen first, once: a universe with no
    # cycle that misses Changes(S) has none in any node set, and the trim
    # is left out. The identity's Changes() reads its self-loops instead.
    sig, answers = bound.signature, {}
    acyclic = functools.cache(explorer.frozen(program, bound))

    def ask(nodes: int, edge_pred: Callable) -> Optional[explorer.Cycle]:
        """A cycle in `nodes` whose every edge misses edge_pred, or None."""
        slots = isinstance(edge_pred, Changes) and frozenset(
            range(len(sig.slots)) if edge_pred.slots is None
            else edge_pred.slots)
        key = (nodes, id(edge_pred) if slots is False else slots)
        if key not in answers:
            answers[key] = None if slots and (
                bound.id_of is not _same or len(slots) < len(sig.slots)
            ) and acyclic(slots) else explorer.find_cycle(
                ts, nodes, unmet(edge_pred))
        return answers[key]

    # Acceptance on every bottom component.
    pred = getattr(spec.acceptance, "pred", None)
    accepts = ts.full if pred is None else _holds(pred, bound, ts, letters)
    for c in cond.bottoms:
        witness = _check_acceptance(spec, ts, cond.bits(c), accepts, ask,
                                    notes)
        if witness is not None:
            return fail(witness)

    # Stutter divergence: a cycle inside the invariant whose image never
    # changes. Always reported; gates the verdict only when forbidden.
    stutter = ask(inv, Changes())
    if stutter is None:
        notes.append("stutter divergence: none")
    else:
        witness = dict(_cycle_witness(stutter), kind="stutter-cycle",
                       image=bound(stutter.states[0]).text())
        if spec.stutter_policy == DIVERGENCE_FORBIDDEN:
            notes.append("stutter divergence: found, forbidden by policy")
            return fail(witness)
        notes.append(
            "stutter divergence: a computation may cycle through %s with "
            "constant image %s; allowed by policy"
            % (" -> ".join(witness["states"]), witness["image"]))

    return Verdict(_check_name, True, None, stats(), notes)


def _check_acceptance(spec: Specification, ts, bits: int, accepts: int,
                      ask: Callable, notes: list) -> Optional[dict]:
    """Evaluate the acceptance condition on the bottom component `bits`:
    its terminality must match the kind, no state of a CycleWithin or
    FiniteTerminal component may lie outside `accepts` (the program states
    whose image satisfies its predicate), and every cycle must discharge
    each obligation, `ask(bits, edge_pred)` being a cycle in the component
    that misses it or None (check_stabilizing). Returns a witness dict on a
    gating violation, None otherwise; analyze findings go into notes."""
    from . import explorer
    acc, size = spec.acceptance, bits.bit_count()
    least = ts.state(explorer.least(bits)).text()
    where = "bottom component of %d state%s (least %s)" % (
        size, "" if size == 1 else "s", least)

    def fail(reason: str) -> dict:
        return {"kind": "acceptance", "component": [least], "reason": reason}

    finite = isinstance(acc, FiniteTerminal)
    if finite != bool(bits & ts.terminal):
        return fail("%s %s, but the specification's sequences are %s" % (
            where, "cycles forever" if finite else "is terminal",
            "finite" if finite else "infinite"))
    outside = bits & ~accepts
    if outside and finite:  # a terminal bottom is one state
        return fail("terminal state %s does not satisfy the final-state "
                    "condition" % least)
    if outside:
        return fail("%s contains %s, outside the target cycle family%s" % (
            where, ts.state(explorer.least(outside)).text(),
            acc.description and " (%s)" % acc.description))
    for obl in getattr(acc, "obligations", ()):
        cycle = ask(bits, obl.edge_pred)
        if cycle is None:
            notes.append("obligation %r: recurs on every cycle of %s"
                         % (obl.name, where))
            continue
        path = " -> ".join(s.text() for s in cycle.states)
        if obl.mode == "enforce" or (
                obl.mode == "policy"
                and spec.stutter_policy == DIVERGENCE_FORBIDDEN):
            return fail("cycle %s never discharges obligation %r"
                        % (path, obl.name))
        notes.append("obligation %r (%s): not discharged on cycle %s"
                     % (obl.name, "not enforced under %s" % spec.stutter_policy
                        if obl.mode == "policy" else "analysis only", path))
    return None


def check_ideal_stabilizing(program: Program, mapping: StateMapping,
                            spec: Specification,
                            ts: Optional[explorer.TransitionSystem] = None
                            ) -> Verdict:
    """check_stabilizing with the invariant `true`: every universe state is
    legitimate, so conformance and acceptance must hold from everywhere."""
    return check_stabilizing(program, mapping, spec, every_state, ts,
                             _check_name="ideal")


# --------------------------------------------------------------------------
# State predicates as chain automata.

# Each wave family is a regular language over the chain word, one letter
# per position: i for idle, q for rq, p for rp. RQ(l, m) is
# q^l i^(m-l) p^(N-m) with m > l, RP(k) is q^k p^(N-k) with 0 < k < N,
# RQ'(l, m) is RQ(l, m) with an arbitrary tail, and RP'(k) is q^k p
# followed by no idle letter. A deterministic automaton on the chain's one
# slot per position, st, reads each: it starts in S, moves[q] lists q's
# moves as letter-target pairs ("qQiI": q to Q, i to I), the rest are dead.

_PIF_LETTER = {"i": "i", "rq": "q", "rp": "p"}


def _pif_word(moves: dict, accepting: str) -> ChainPredicate:
    """The predicate that holds when the automaton accepts the word."""
    moves = {q: dict(zip(m[::2], m[1::2])) for q, m in moves.items()}

    def build(sig: Signature) -> ChainAutomaton:
        word = {p: [_PIF_LETTER.get(v) for v in dom.values]
                for p, _, dom in sig.slots}
        return ChainAutomaton(sig, "S", lambda q, p, a: moves[q].get(
            word[p][a[0]]), accepting)

    return ChainPredicate(build)


#: q*i+p* or q+p+: the strict family, some RQ(l, m) or RP(k) instance.
pif_wave = _pif_word({"S": "qQiI", "Q": "qQiIpP", "I": "iIpP", "P": "pP"},
                     "IP")
#: q*i.* or q+p[^i]*: the relaxed family, some RQ'(l, m) or RP'(k).
pif_prime = _pif_word({"S": "qQiA", "Q": "qQiApT", "A": "iAqApA",
                       "T": "qTpT"}, "AT")
#: q*i.*: some RQ'(l, m) instance.
_pif_rq_prime = _pif_word({"S": "qSiA", "A": "iAqApA"}, "A")
#: q+p+: some RP(k) instance.
_pif_rp_strict = _pif_word({"S": "qQ", "Q": "qQpP", "P": "pP"}, "P")
#: i.*: the root is idle.
pif_root_idle = _pif_word({"S": "iA", "A": "iAqApA"}, "A")


def pif_coverage(program: Program, cap: Optional[int] = None) -> Verdict:
    """Classify every universe state against the extended wave predicates
    and report how much of the universe they cover. This is an analysis,
    not a property: it always completes, and the uncovered states are the
    finding. Only the first 20 uncovered states are decoded."""
    from . import explorer
    sig = program.signature
    check_cap(sig.size, cap=cap)
    uncovered = (1 << sig.size) - 1 & ~pif_prime.bits(sig)
    count = uncovered.bit_count()
    notes = ["%d of %d states satisfy the extended wave predicates"
             % (sig.size - count, sig.size)]
    if uncovered:
        notes.append("the extended wave predicates do not cover the "
                     "universe; uncovered states follow")
        for _ in range(min(count, 20)):
            notes.append("uncovered: %s"
                         % sig.state_at(explorer.least(uncovered)).text())
            uncovered &= uncovered - 1  # drop the least
        if count > 20:
            notes.append("... and %d more" % (count - 20))
    else:
        notes.append("the extended wave predicates cover the universe")
    stats = {"states": sig.size, "covered": sig.size - count,
             "uncovered": count}
    return Verdict("pif-coverage", True, None, stats, notes)


def _abp_automaton(sig: Signature) -> ChainAutomaton:
    """Exactly one message in flight, and its bit is the sender's ns. The
    sender's letter (ns, chpq) fixes what the receiver's letter (nr, chqp)
    must hold: no ack after a data message of bit ns, else the ack of ns."""
    ns, chpq, _, chqp = [dom.values for _, _, dom in sig.slots]

    def step(q, p, a):
        if q != "sender":
            return "legitimate" if chqp[a[1]] == q else None
        data, bit = chpq[a[1]], ns[a[0]]
        return "a" + bit if data == "empty" else \
            "empty" if data == "d" + bit else None

    return ChainAutomaton(sig, "sender", step, ("legitimate",))


#: The alternating-bit protocol's legitimate (SABP) states.
abp_legitimate = ChainPredicate(_abp_automaton)


# --------------------------------------------------------------------------
# Specification builders.

#: No two neighbors both hold a nonzero value: the last one read is the
#: automaton state.
_no_adjacent_true = ChainPredicate(lambda sig: ChainAutomaton(
    sig, False, lambda q, p, a: None if q and a[0] else bool(a[0]),
    (False, True)))


def udp_spec() -> Specification:
    """Unfair neighbor mutual exclusion on the critical-section flags: no
    two adjacent outputs true, outputs keep alternating. The sequences are
    explicitly unfair, so a computation that starves every process but one
    is acceptable: stutter divergence is allowed by default and the
    alternation obligation gates only under a forbidding policy."""
    return Specification(
        name="UDP",
        allowed_state=_no_adjacent_true,
        allowed_edge=every_edge,
        acceptance=Recurrence(
            (Obligation("output-activity", Changes(), mode="policy"),)),
        stutter_policy=DIVERGENCE_ALLOWED,
    )


def fdp_spec(n: int) -> Specification:
    """The fair variant: same allowed states, plus an activity obligation
    for each of the n processes. Whether per-process fairness survives the
    unfair central daemon is an analysis question, so those obligations
    report rather than gate."""
    udp = udp_spec()
    return replace(udp, name="FDP", acceptance=Recurrence(
        udp.acceptance.obligations + tuple(
            Obligation("activity-p%d" % j, Changes((j - 1,)), mode="analyze")
            for j in range(1, n + 1))))


def spif_spec() -> Specification:
    """Strict request/reply waves: states inside RQ/RP, eventual behavior
    the wave cycle itself."""
    return Specification(
        name="SPIF",
        allowed_state=pif_wave,
        allowed_edge=every_edge,
        acceptance=CycleWithin(pif_wave, "RQ/RP wave cycle"),
        stutter_policy=DIVERGENCE_FORBIDDEN,
    )


def ipif_spec() -> Specification:
    """The relaxed wave specification: every state satisfies RP' or RQ',
    leaving the RQ' family lands in a strict RP state, and every sequence
    ends up riding the strict wave cycle."""
    return replace(spif_spec(), name="IPIF", allowed_state=pif_prime,
                   allowed_edge=Leaves(_pif_rq_prime, _pif_rp_strict))


def sabp_spec() -> Specification:
    """Strict alternating-bit: exactly one in-flight message matching the
    sender's bit, forever."""
    return Specification(
        name="SABP",
        allowed_state=abp_legitimate,
        allowed_edge=every_edge,
        acceptance=CycleWithin(abp_legitimate, "alternating-bit handshake"),
        stutter_policy=DIVERGENCE_FORBIDDEN,
    )


def iabp_spec() -> Specification:
    """Ideal alternating-bit: every universe state allowed, every sequence
    eventually rides the legitimate handshake."""
    return replace(sabp_spec(), name="IABP", allowed_state=every_state)

