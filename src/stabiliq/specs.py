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
import re
import time
from array import array
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from operator import eq, sub
from typing import Callable, Optional

from . import explorer
from .kernel import Program, State
from .mapping import StateMapping

DIVERGENCE_ALLOWED = "divergence-allowed"
DIVERGENCE_FORBIDDEN = "divergence-forbidden"
STUTTER_POLICIES = (DIVERGENCE_ALLOWED, DIVERGENCE_FORBIDDEN)

#: Obligation modes: enforce always gates the verdict; policy gates only
#: under divergence-forbidden; analyze is reported and never gates.
OBLIGATION_MODES = ("enforce", "policy", "analyze")


# --------------------------------------------------------------------------
# Acceptance conditions on eventual behavior.

@dataclass(frozen=True)
class CycleWithin:
    """Every bottom component must be nonterminal and stay inside the given
    family of specification states (the target cycle family)."""

    pred: Callable[[State], bool]
    description: str = ""


@dataclass(frozen=True)
class Obligation:
    """A recurrence obligation: every cycle of every bottom component must
    contain at least one edge whose mapped endpoints satisfy edge_pred."""

    name: str
    edge_pred: Callable[[State, State], bool]
    mode: str = "enforce"

    def __post_init__(self):
        if self.mode not in OBLIGATION_MODES:
            raise ValueError("unknown obligation mode %r" % self.mode)


@dataclass(frozen=True)
class Recurrence:
    obligations: tuple[Obligation, ...]


@dataclass(frozen=True)
class FiniteTerminal:
    """Every bottom component must be a terminal state satisfying pred:
    the specification's sequences are finite."""

    pred: Callable[[State], bool]


Acceptance = object  # CycleWithin | Recurrence | FiniteTerminal


@dataclass(frozen=True)
class Specification:
    """A problem specification over external-variable states.

    allowed_state and the acceptance predicates take specification states;
    allowed_edge takes a non-stutter pair of specification states (stutter
    pairs are implicitly allowed and handled by the stutter policy).
    """

    name: str
    allowed_state: Callable[[State], bool]
    allowed_edge: Callable[[State, State], bool]
    acceptance: Acceptance
    stutter_policy: str = DIVERGENCE_FORBIDDEN

    def __post_init__(self):
        if self.stutter_policy not in STUTTER_POLICIES:
            raise ValueError("unknown stutter policy %r" % self.stutter_policy)

    def with_policy(self, policy: str) -> "Specification":
        return replace(self, stutter_policy=policy)


# --------------------------------------------------------------------------
# Verdicts.

@dataclass
class Verdict:
    """Outcome of one check. witness is None exactly when the check holds;
    otherwise it is a small JSON-ready dict with canonical state texts.
    notes carry findings that informed but did not decide the verdict."""

    check: str
    holds: bool
    witness: Optional[dict]
    stats: dict
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "holds": self.holds,
            "witness": self.witness,
            "stats": dict(self.stats),
            "notes": list(self.notes),
        }

    def summary(self) -> str:
        head = "%s: %s" % (self.check, "holds" if self.holds else "FAILS")
        lines = [head]
        if self.witness is not None:
            lines.append("  witness: %s" % _witness_text(self.witness))
        for note in self.notes:
            lines.append("  note: %s" % note)
        return "\n".join(lines)


def _witness_text(witness: dict) -> str:
    kind = witness.get("kind", "?")
    if kind == "edge":
        return "edge %s --%s--> %s" % (
            witness["source"], witness["action"], witness["target"])
    if kind == "terminal":
        return "terminal state %s" % witness["state"]
    if kind == "cycle":
        return "cycle through %s" % " -> ".join(witness["states"])
    if kind == "disallowed-state":
        return "state %s maps to disallowed %s" % (
            witness["state"], witness["mapped"])
    if kind == "disallowed-edge":
        return "edge %s --%s--> %s maps to disallowed %s -> %s" % (
            witness["source"], witness["action"], witness["target"],
            witness["mapped_source"], witness["mapped_target"])
    if kind == "stutter-cycle":
        return "image stays %s around cycle %s" % (
            witness["image"], " -> ".join(witness["states"]))
    if kind == "acceptance":
        return witness["reason"]
    return repr(witness)


def _label(pos: int, name: str) -> str:
    return "%d:%s" % (pos, name)


def _cycle_witness(cycle: explorer.Cycle) -> dict:
    return {
        "kind": "cycle",
        "states": [s.text() for s in cycle.states],
        "actions": [_label(p, a) for p, a in cycle.labels],
    }


def _escaping_edge(ts: explorer.TransitionSystem, inside) -> Optional[dict]:
    """The first edge from a state inside the set to one outside it, as an
    edge witness, or None when the set is closed."""
    offsets, targets = ts.offsets, ts.targets
    for i in range(ts.size):
        if not inside[i]:
            continue
        for k in range(offsets[i], offsets[i + 1]):
            t = targets[k]
            if not inside[t]:
                return {
                    "kind": "edge",
                    "source": ts.state(i).text(),
                    "target": ts.state(t).text(),
                    "action": _label(*ts.label(k)),
                }
    return None


def _avoiding_computation(ts: explorer.TransitionSystem, inside
                          ) -> tuple[Optional[dict], Optional[str]]:
    """A witness that some maximal computation never enters the set, with
    the note that names it, or (None, None). Under the no-fairness daemon
    the first terminal state outside the set is one, and so is any cycle
    through states outside it."""
    offsets = ts.offsets
    for i in range(ts.size):
        if offsets[i] == offsets[i + 1] and not inside[i]:
            return ({"kind": "terminal", "state": ts.state(i).text()},
                    "terminal state outside the invariant")
    cycle = explorer.find_cycle(ts, [i for i in range(ts.size)
                                     if not inside[i]])
    if cycle is not None:
        return (_cycle_witness(cycle),
                "a computation can avoid the invariant forever")
    return None, None


class _Clock:
    def __init__(self):
        self.t0 = time.perf_counter()

    def ms(self) -> float:
        return round((time.perf_counter() - self.t0) * 1000.0, 3)


# --------------------------------------------------------------------------
# Core checks.

def check_closed(program: Program, pred: Callable[[State], bool],
                 ts: Optional[explorer.TransitionSystem] = None) -> Verdict:
    """Does no transition leave the predicate set?"""
    clock = _Clock()
    ts = ts if ts is not None else explorer.build_transition_system(program)
    inside = [pred(s) for s in ts.states]
    witness = _escaping_edge(ts, inside)
    stats = {"states": ts.size, "edges": ts.edge_count(),
             "predicate_states": sum(inside), "elapsed_ms": clock.ms()}
    return Verdict("closed", witness is None, witness, stats)


def check_convergence(program: Program, pred: Callable[[State], bool],
                      ts: Optional[explorer.TransitionSystem] = None
                      ) -> Verdict:
    """Does every maximal computation from every universe state reach the
    predicate? Complete under no fairness: it fails exactly on a terminal
    state outside the predicate or a cycle avoiding it."""
    clock = _Clock()
    ts = ts if ts is not None else explorer.build_transition_system(program)
    witness, _ = _avoiding_computation(ts, [pred(s) for s in ts.states])
    stats = {"states": ts.size, "edges": ts.edge_count(),
             "terminals": sum(map(eq, ts.offsets, ts.offsets[1:])),
             "elapsed_ms": clock.ms()}
    return Verdict("convergence", witness is None, witness, stats)


def check_stabilizing(program: Program, mapping: StateMapping,
                      spec: Specification,
                      invariant: Optional[Callable[[State], bool]],
                      ts: Optional[explorer.TransitionSystem] = None,
                      _check_name: str = "stabilizing") -> Verdict:
    """Does the program stabilize to the specification from the invariant?

    The invariant is a predicate over program states, or None for every
    state (then no state is decoded for it). The verdict is the conjunction
    of: the invariant is closed; every maximal computation converges to it;
    inside it, states and non-stutter edges map into the specification's
    allowed sets; every bottom component satisfies the acceptance
    condition; and stutter divergence inside the invariant is absent when
    the policy forbids it. Findings that the policy or an obligation's mode
    exempts from gating are reported in the notes.
    """
    clock = _Clock()
    ts = ts if ts is not None else explorer.build_transition_system(program)
    bound = mapping.bind(program)
    inv = [True] * ts.size if invariant is None \
        else [invariant(s) for s in ts.states]
    # Specification states are handled as ids; a State is decoded only for
    # a predicate or a witness, and each predicate sees each id once.
    ids = bound.ids(ts)
    image = functools.cache(bound.signature.state_at)
    cond = explorer.condense(ts)
    notes = ["stutter policy: %s" % spec.stutter_policy]

    def stats() -> dict:
        return {
            "states": ts.size,
            "edges": ts.edge_count(),
            "invariant_states": sum(inv),
            "components": len(cond.components),
            "bottom_components": len(cond.bottoms),
            "elapsed_ms": clock.ms(),
        }

    def fail(witness: dict) -> Verdict:
        return Verdict(_check_name, False, witness, stats(), notes)

    offsets, targets = ts.offsets, ts.targets

    def edge_ids():
        """Per edge, its source's and its target's spec id, streamed (a
        source repeats once per out-edge)."""
        return (chain.from_iterable(map(repeat, ids,
                                        map(sub, offsets[1:], offsets))),
                map(ids.__getitem__, targets))

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

    # State conformance inside the invariant.
    allowed = functools.cache(lambda m: spec.allowed_state(image(m)))
    for i in range(ts.size):
        if inv[i] and not allowed(ids[i]):
            return fail({
                "kind": "disallowed-state",
                "state": ts.state(i).text(),
                "mapped": image(ids[i]).text(),
            })

    # Edge conformance: non-stutter images of invariant-internal edges.
    allowed_edge = functools.cache(
        lambda m, n: spec.allowed_edge(image(m), image(n)))
    for i in range(ts.size):
        if not inv[i]:
            continue
        for k in range(offsets[i], offsets[i + 1]):
            t = targets[k]
            if inv[t] and ids[i] != ids[t] \
                    and not allowed_edge(ids[i], ids[t]):
                return fail({
                    "kind": "disallowed-edge",
                    "source": ts.state(i).text(),
                    "target": ts.state(t).text(),
                    "action": _label(*ts.label(k)),
                    "mapped_source": image(ids[i]).text(),
                    "mapped_target": image(ids[t]).text(),
                })

    # Acceptance on every bottom component (all lie inside the invariant
    # once closure and convergence hold).
    accepts = functools.cache(lambda m: spec.acceptance.pred(image(m)))

    @functools.cache
    def masks() -> tuple:
        """The distinct obligation masks (bit j: an image pair meets
        obligation j), each edge's index among them, and the edges grouped
        by that index. Each pair's images are decoded once."""
        distinct: dict = {}

        @functools.cache
        def index(m: int, n: int) -> int:
            s, t = image(m), image(n)
            return distinct.setdefault(sum(
                1 << j for j, o in enumerate(spec.acceptance.obligations)
                if o.edge_pred(s, t)), len(distinct))
        per_edge = array("I", map(index, *edge_ids()))
        return (list(distinct), per_edge,
                explorer.EdgeGroups(offsets, targets, per_edge))

    for c in cond.bottoms:
        comp = cond.components[c]
        if not all(inv[s] for s in comp):
            continue
        verdict = _check_acceptance(spec, ts, cond, c, ids, accepts, masks,
                                    notes)
        if verdict is not None:
            return fail(verdict)

    # Stutter divergence: a cycle inside the invariant whose image never
    # changes. Always reported; gates the verdict only when forbidden.
    stutter = explorer.find_cycle(ts, [i for i in range(ts.size) if inv[i]],
                                  bytes(map(eq, *edge_ids())))
    if stutter is None:
        notes.append("stutter divergence: none")
    else:
        witness = dict(_cycle_witness(stutter), kind="stutter-cycle",
                       image=image(ids[stutter.states[0].index]).text())
        if spec.stutter_policy == DIVERGENCE_FORBIDDEN:
            notes.append("stutter divergence: found, forbidden by policy")
            return fail(witness)
        notes.append(
            "stutter divergence: a computation may cycle through %s with "
            "constant image %s; allowed by policy"
            % (" -> ".join(witness["states"]), witness["image"]))

    return Verdict(_check_name, True, None, stats(), notes)


def _check_acceptance(spec: Specification, ts, cond, c: int, ids, accepts,
                      masks, notes: list) -> Optional[dict]:
    """Evaluate the acceptance condition on bottom component c; `accepts`
    is its state predicate on spec ids and masks() the obligation masks,
    their per-edge index and the edges grouped by it. Returns a witness
    dict on a gating violation, None otherwise; analyze findings go into
    notes."""
    comp = cond.components[c]
    acc = spec.acceptance
    terminal = cond.trivial[c]
    comp_texts = [ts.state(s).text() for s in comp[:4]]
    where = "bottom component of %d state%s (%s%s)" % (
        len(comp), "" if len(comp) == 1 else "s", ", ".join(comp_texts),
        ", ..." if len(comp) > 4 else "")

    if isinstance(acc, FiniteTerminal):
        if not terminal:
            return {"kind": "acceptance", "component": comp_texts,
                    "reason": "%s cycles forever, but the specification's "
                              "sequences are finite" % where}
        if not accepts(ids[comp[0]]):
            return {"kind": "acceptance", "component": comp_texts,
                    "reason": "terminal state %s does not satisfy the "
                              "final-state condition"
                              % ts.state(comp[0]).text()}
        return None

    # CycleWithin and Recurrence both describe infinite behavior.
    if terminal:
        return {"kind": "acceptance", "component": comp_texts,
                "reason": "%s is terminal, but the specification's "
                          "sequences are infinite" % where}

    if isinstance(acc, CycleWithin):
        for s in comp:
            if not accepts(ids[s]):
                return {"kind": "acceptance", "component": comp_texts,
                        "reason": "%s contains %s, outside the target "
                                  "cycle family%s"
                                  % (where, ts.state(s).text(),
                                     " (%s)" % acc.description
                                     if acc.description else "")}
        return None

    if isinstance(acc, Recurrence):
        distinct, per_edge, groups = masks()
        for j, obl in enumerate(acc.obligations):
            clear = bytes(not mask >> j & 1 for mask in distinct)
            if not groups.has_cycle(comp, clear.__getitem__):
                notes.append("obligation %r: recurs on every cycle of %s"
                             % (obl.name, where))
                continue
            cycle = explorer.find_cycle(ts, comp, bytes(
                map(clear.__getitem__, per_edge)))
            enforced = obl.mode == "enforce" or (
                obl.mode == "policy"
                and spec.stutter_policy == DIVERGENCE_FORBIDDEN)
            texts = [s.text() for s in cycle.states]
            if enforced:
                return {"kind": "acceptance", "component": comp_texts,
                        "reason": "cycle %s never discharges obligation %r"
                                  % (" -> ".join(texts), obl.name)}
            notes.append(
                "obligation %r (%s): not discharged on cycle %s"
                % (obl.name,
                   "not enforced under %s" % spec.stutter_policy
                   if obl.mode == "policy" else "analysis only",
                   " -> ".join(texts)))
        return None

    raise TypeError("unknown acceptance condition %r" % (acc,))


def check_ideal_stabilizing(program: Program, mapping: StateMapping,
                            spec: Specification,
                            ts: Optional[explorer.TransitionSystem] = None
                            ) -> Verdict:
    """check_stabilizing with the invariant `true`: every universe state is
    legitimate, so conformance and acceptance must hold from everywhere."""
    return check_stabilizing(program, mapping, spec, None, ts,
                             _check_name="ideal")


# --------------------------------------------------------------------------
# Wave predicates for the information-propagation chain.

# Each family is a regular language over the chain word, one letter per
# position: i for idle, q for rq, p for rp. RQ(l, m) is q^l i^(m-l) p^(N-m)
# with m > l, RP(k) is q^k p^(N-k) with 0 < k < N, RQ'(l, m) is RQ(l, m)
# with an arbitrary tail, and RP'(k) is q^k p followed by no idle letter.

_PIF_WAVE = re.compile(r"q*i+p*|q+p+")
_PIF_PRIME = re.compile(r"q*i.*|q+p[^i]*")
_PIF_RQ_PRIME = re.compile(r"q*i.*")
_PIF_RP_STRICT = re.compile(r"q+p+")


@functools.lru_cache(maxsize=16)
def _pif_letters(sig) -> tuple:
    """Per position: the slot of st and the letter of each value index."""
    letter = {"i": "i", "rq": "q", "rp": "p"}
    return tuple((i, [letter.get(v, "?") for v in sig.slots[i][2].values])
                 for i in map(sig.slot, sig.positions, repeat("st")))


def _pif_word(state: State) -> str:
    return "".join([t[state.values[i]] for i, t in _pif_letters(state.sig)])


def pif_wave(state: State) -> bool:
    """The strict wave family: some RQ(l, m) or RP(k) instance holds."""
    return _PIF_WAVE.fullmatch(_pif_word(state)) is not None


def pif_prime(state: State) -> bool:
    """The relaxed family: some RQ'(l, m) or RP'(k) instance holds."""
    return _PIF_PRIME.fullmatch(_pif_word(state)) is not None


def _pif_rq_prime(state: State) -> bool:
    return _PIF_RQ_PRIME.fullmatch(_pif_word(state)) is not None


def _pif_rp_strict(state: State) -> bool:
    return _PIF_RP_STRICT.fullmatch(_pif_word(state)) is not None


# --------------------------------------------------------------------------
# Alternating-bit classification.

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


def abp_legitimate(state: State) -> bool:
    return abp_classify(state) == "legitimate-SABP"


# --------------------------------------------------------------------------
# Specification builders.

def _no_adjacent_true(state: State) -> bool:
    vals = state.values
    return all(not (vals[i] and vals[i + 1]) for i in range(len(vals) - 1))


def _dining_obligations(n: int, fairness: bool) -> tuple:
    obligations = [Obligation(
        "output-activity", lambda s, t: s != t, mode="policy")]
    if fairness:
        for j in range(1, n + 1):
            obligations.append(Obligation(
                "activity-p%d" % j,
                lambda s, t, i=j - 1: s.values[i] != t.values[i],
                mode="analyze"))
    return tuple(obligations)


def udp_spec(n: int) -> Specification:
    """Unfair neighbor mutual exclusion on n critical-section flags: no two
    adjacent outputs true, outputs keep alternating. The sequences are
    explicitly unfair, so a computation that starves every process but one
    is acceptable: stutter divergence is allowed by default and the
    alternation obligation gates only under a forbidding policy."""
    return Specification(
        name="UDP",
        allowed_state=_no_adjacent_true,
        allowed_edge=lambda s, t: True,
        acceptance=Recurrence(_dining_obligations(n, fairness=False)),
        stutter_policy=DIVERGENCE_ALLOWED,
    )


def fdp_spec(n: int) -> Specification:
    """The fair variant: same allowed states, plus per-process activity
    obligations. Whether per-process fairness survives the unfair central
    daemon is an analysis question, so those obligations report rather
    than gate."""
    return Specification(
        name="FDP",
        allowed_state=_no_adjacent_true,
        allowed_edge=lambda s, t: True,
        acceptance=Recurrence(_dining_obligations(n, fairness=True)),
        stutter_policy=DIVERGENCE_ALLOWED,
    )


def spif_spec(n: int) -> Specification:
    """Strict request/reply waves: states inside RQ/RP, eventual behavior
    the wave cycle itself."""
    return Specification(
        name="SPIF",
        allowed_state=pif_wave,
        allowed_edge=lambda s, t: True,
        acceptance=CycleWithin(pif_wave, "RQ/RP wave cycle"),
        stutter_policy=DIVERGENCE_FORBIDDEN,
    )


def ipif_spec(n: int) -> Specification:
    """The relaxed wave specification: every state satisfies RP' or RQ',
    leaving the RQ' family lands in a strict RP state, and every sequence
    ends up riding the strict wave cycle."""
    def allowed_edge(s: State, t: State) -> bool:
        if _pif_rq_prime(s) and not _pif_rq_prime(t):
            return _pif_rp_strict(t)
        return True

    return Specification(
        name="IPIF",
        allowed_state=pif_prime,
        allowed_edge=allowed_edge,
        acceptance=CycleWithin(pif_wave, "RQ/RP wave cycle"),
        stutter_policy=DIVERGENCE_FORBIDDEN,
    )


def sabp_spec() -> Specification:
    """Strict alternating-bit: exactly one in-flight message matching the
    sender's bit, forever."""
    return Specification(
        name="SABP",
        allowed_state=abp_legitimate,
        allowed_edge=lambda s, t: True,
        acceptance=CycleWithin(abp_legitimate, "alternating-bit handshake"),
        stutter_policy=DIVERGENCE_FORBIDDEN,
    )


def iabp_spec() -> Specification:
    """Ideal alternating-bit: every universe state allowed, every sequence
    eventually rides the legitimate handshake."""
    return Specification(
        name="IABP",
        allowed_state=lambda s: True,
        allowed_edge=lambda s, t: True,
        acceptance=CycleWithin(abp_legitimate, "alternating-bit handshake"),
        stutter_policy=DIVERGENCE_FORBIDDEN,
    )


def _le_leaders(state: State) -> list:
    return [p for p in state.sig.positions if state.value(p, "leader") == "true"]


def _le_allowed(state: State) -> bool:
    leaders = _le_leaders(state)
    if len(leaders) > 1:
        return False
    return all(state.value(p, "contend") == "true" for p in leaders)


def le_spec(n: int) -> Specification:
    """Leader election as finite sequences: inputs never change, at most one
    contending process holds leader, and every sequence terminates with a
    leader elected."""
    def allowed_edge(s: State, t: State) -> bool:
        return all(s.value(p, "contend") == t.value(p, "contend")
                   for p in s.sig.positions)

    return Specification(
        name="LE",
        allowed_state=_le_allowed,
        allowed_edge=allowed_edge,
        acceptance=FiniteTerminal(lambda s: len(_le_leaders(s)) == 1),
        stutter_policy=DIVERGENCE_FORBIDDEN,
    )
