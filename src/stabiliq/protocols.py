"""Built-in protocol bundles: program, mapping, specifications, invariants.

Each constructor assembles one of the chain protocols directly as kernel
syntax trees, pairs it with its state mapping and its strict and ideal
specifications, and names the invariant candidates the command line accepts.
The leader-election entry is deliberately not a program: it is a
specification fixture for the impossibility engine, because no program
for it exists.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from importlib import resources
from typing import Optional

from .kernel import (BOOL, Action, And, Assign, BoolLit, Cmp, Domain, If, Lit,
                     ModelError, NotRef, Or, Process, Program, Signature,
                     State, VarRef, VariableDecl, check_cap)
from .mapping import (ChainAutomaton, EnabledOutputMapping, HighestIdMapping,
                      IdenticalMapping, StateMapping, accepted_states)
from . import specs as _specs
from .specs import Specification

BIT = Domain("bit", ("0", "1"))
DATA_CHANNEL = Domain("datach", ("empty", "d0", "d1"))
ACK_CHANNEL = Domain("ackch", ("empty", "a0", "a1"))


@dataclass(frozen=True)
class ProtocolBundle:
    """Everything the workbench knows about one built-in protocol."""

    name: str
    program: Program
    mapping: StateMapping
    ideal_spec: Specification
    strict_spec: Optional[Specification]
    invariants: dict
    default_invariant: str
    sample: str

    @property
    def spec(self) -> Specification:
        """The specification the protocol is advertised against: the ideal
        one, since that is the whole point of these constructions."""
        return self.ideal_spec


def _self(name: str) -> VarRef:
    return VarRef(0, name)


def _left(name: str) -> VarRef:
    return VarRef(-1, name)


def _right(name: str) -> VarRef:
    return VarRef(1, name)


def _eq(a, b) -> Cmp:
    return Cmp(a, "=", b)


def _ne(a, b) -> Cmp:
    return Cmp(a, "!=", b)


# --------------------------------------------------------------------------
# Conflict manager.

def make_cm(ids) -> ProtocolBundle:
    """A chain of conflict managers: one access bit per process and one
    always-enabled flip. The highest-identifier mapping displaces every
    program state onto a specification state without neighboring access."""
    ids = tuple(int(i) for i in ids)
    if len(ids) < 2:
        raise ModelError("the conflict manager needs at least 2 processes")
    if len(set(ids)) != len(ids):
        raise ModelError("process identifiers must be unique; got %r" % (ids,))
    flip = Action(
        name="flip",
        guard=BoolLit(True),
        command=(Assign(_self("access"), NotRef(_self("access"))),),
    )
    processes = [
        Process(index=i, pid=pid,
                vars=(VariableDecl("access", BOOL, "internal"),),
                actions=(flip,))
        for i, pid in enumerate(ids, start=1)]
    program = Program("cm", processes)
    return ProtocolBundle(
        name="cm",
        program=program,
        mapping=HighestIdMapping(),
        ideal_spec=_specs.udp_spec(len(ids)),
        strict_spec=None,
        invariants={"true": lambda s: True},
        default_invariant="true",
        sample="cm.gcp",
    )


# --------------------------------------------------------------------------
# Linear alternator.

def make_alternator(n: int) -> ProtocolBundle:
    """The linear alternator: each process toggles its bit when its guard
    form (chain end or interior) holds. The mapping declares a process in
    the critical section exactly when its action is enabled."""
    if n < 3:
        raise ModelError("the alternator needs at least 3 processes")
    x = VariableDecl("x", BOOL, "internal")

    def toggle() -> tuple:
        return (Assign(_self("x"), NotRef(_self("x"))),)

    first = Action("step", _eq(_self("x"), _right("x")), toggle())
    middle = Action(
        "step",
        And((_ne(_self("x"), _left("x")), _eq(_self("x"), _right("x")))),
        toggle())
    last = Action("step", _ne(_self("x"), _left("x")), toggle())
    processes = []
    for i in range(1, n + 1):
        action = first if i == 1 else last if i == n else middle
        processes.append(Process(index=i, pid=i, vars=(x,), actions=(action,)))
    program = Program("alternator", processes)
    return ProtocolBundle(
        name="la",
        program=program,
        mapping=EnabledOutputMapping(),
        ideal_spec=_specs.fdp_spec(n),
        strict_spec=None,
        invariants={"true": lambda s: True},
        default_invariant="true",
        sample="alternator.gcp",
    )


# --------------------------------------------------------------------------
# Information propagation with feedback.

ROOT_ST = Domain("rootst", ("i", "rq"))
MID_ST = Domain("midst", ("i", "rq", "rp"))
LEAF_ST = Domain("leafst", ("i", "rp"))


def make_pif(n: int) -> ProtocolBundle:
    """Request waves travel left to right, reply waves travel back. The
    root can only be idle or requesting, the leaf idle or replying, which
    trims the universe to the meaningful states."""
    if n < 3:
        raise ModelError(
            "the propagation chain needs a root, a leaf, and at least "
            "one intermediate process")
    st = _self("st")
    left = _left("st")
    right = _right("st")
    root = Process(
        index=1, pid=1,
        vars=(VariableDecl("st", ROOT_ST, "output"),),
        actions=(
            Action("request",
                   And((_eq(st, Lit("i")), _eq(right, Lit("i")))),
                   (Assign(st, Lit("rq")),)),
            Action("clear",
                   And((_eq(st, Lit("rq")), _eq(right, Lit("rp")))),
                   (Assign(st, Lit("i")),)),
        ))
    mid_actions = (
        Action("forward",
               And((_eq(left, Lit("rq")), _eq(st, Lit("i")),
                    _eq(right, Lit("i")))),
               (Assign(st, Lit("rq")),)),
        Action("back",
               And((_eq(left, Lit("rq")), _eq(st, Lit("rq")),
                    _eq(right, Lit("rp")))),
               (Assign(st, Lit("rp")),)),
        Action("stop",
               And((_eq(left, Lit("i")), _ne(st, Lit("i")))),
               (Assign(st, Lit("i")),)),
    )
    processes = [root]
    for j in range(2, n):
        processes.append(Process(
            index=j, pid=j,
            vars=(VariableDecl("st", MID_ST, "output"),),
            actions=mid_actions))
    processes.append(Process(
        index=n, pid=n,
        vars=(VariableDecl("st", LEAF_ST, "output"),),
        actions=(
            Action("reflect",
                   And((_eq(left, Lit("rq")), _eq(st, Lit("i")))),
                   (Assign(st, Lit("rp")),)),
            Action("reset",
                   And((_eq(left, Lit("i")), _eq(st, Lit("rp")))),
                   (Assign(st, Lit("i")),)),
        )))
    program = Program("pif", processes)
    return ProtocolBundle(
        name="pif",
        program=program,
        mapping=IdenticalMapping(),
        ideal_spec=_specs.ipif_spec(n),
        strict_spec=_specs.spif_spec(n),
        invariants={
            "rq-or-rp": _specs.pif_wave,
            "root-idle": lambda s: s.value(1, "st") == "i",
            "true": lambda s: True,
        },
        default_invariant="rq-or-rp",
        sample="pif.gcp",
    )


# --------------------------------------------------------------------------
# Alternating bit protocol.

def make_abp() -> ProtocolBundle:
    """Sender and receiver over two unit-capacity channels. Receiving
    consumes the message; sending into an occupied channel loses the new
    message silently. The sender advances its bit only on a matching
    acknowledgment; the receiver adopts the incoming bit and always
    acknowledges it."""
    ns = _self("ns")
    chpq_p = _self("chpq")
    chqp_p = _right("chqp")

    def send_data() -> If:
        return If(_eq(ns, Lit("0")),
                  then=(Assign(chpq_p, Lit("d0")),),
                  orelse=(Assign(chpq_p, Lit("d1")),))

    next_action = Action(
        name="next",
        guard=_ne(chqp_p, Lit("empty")),
        command=(
            If(Or((And((_eq(chqp_p, Lit("a0")), _eq(ns, Lit("0")))),
                   And((_eq(chqp_p, Lit("a1")), _eq(ns, Lit("1")))))),
               then=(
                   Assign(chqp_p, Lit("empty")),
                   If(_eq(ns, Lit("0")),
                      then=(Assign(ns, Lit("1")),),
                      orelse=(Assign(ns, Lit("0")),)),
                   If(_eq(chpq_p, Lit("empty")), then=(send_data(),)),
               ),
               orelse=(Assign(chqp_p, Lit("empty")),)),
        ))
    timeout = Action(
        name="timeout",
        guard=And((_eq(chpq_p, Lit("empty")), _eq(chqp_p, Lit("empty")))),
        command=(send_data(),))
    sender = Process(
        index=1, pid=1,
        vars=(VariableDecl("ns", BIT, "output"),
              VariableDecl("chpq", DATA_CHANNEL, "output")),
        actions=(next_action, timeout))

    nr = _self("nr")
    chqp_q = _self("chqp")
    chpq_q = _left("chpq")
    reply = Action(
        name="reply",
        guard=_ne(chpq_q, Lit("empty")),
        command=(
            If(_eq(chpq_q, Lit("d0")),
               then=(
                   Assign(nr, Lit("0")),
                   Assign(chpq_q, Lit("empty")),
                   If(_eq(chqp_q, Lit("empty")),
                      then=(Assign(chqp_q, Lit("a0")),)),
               ),
               orelse=(
                   Assign(nr, Lit("1")),
                   Assign(chpq_q, Lit("empty")),
                   If(_eq(chqp_q, Lit("empty")),
                      then=(Assign(chqp_q, Lit("a1")),)),
               )),
        ))
    receiver = Process(
        index=2, pid=2,
        vars=(VariableDecl("nr", BIT, "output"),
              VariableDecl("chqp", ACK_CHANNEL, "output")),
        actions=(reply,))
    program = Program("abp", (sender, receiver))
    return ProtocolBundle(
        name="abp",
        program=program,
        mapping=IdenticalMapping(),
        ideal_spec=_specs.iabp_spec(),
        strict_spec=_specs.sabp_spec(),
        invariants={
            "legitimate": _specs.abp_legitimate,
            "true": lambda s: True,
        },
        default_invariant="legitimate",
        sample="abp.gcp",
    )


# --------------------------------------------------------------------------
# Leader election: a specification fixture, not a program.

@dataclass(frozen=True)
class LeFixture:
    """The leader-election specification universe, partitioned.

    automaton accepts the allowed states: at most one leader, and only a
    contending one. It is all the impossibility check reads, so nothing is
    listed for it. allowed and disallowed are the explicit state sets,
    built on first use and only within the state cap; forced lists the
    states every input-complete subset must contain: the elected outcomes
    for the two singleton-contender inputs at the chain ends."""

    n: int
    signature: Signature
    automaton: ChainAutomaton
    forced: tuple

    @functools.cached_property
    def allowed(self) -> frozenset:
        return accepted_states(self.automaton)

    @functools.cached_property
    def disallowed(self) -> frozenset:
        check_cap(self.signature.size)
        return frozenset(s for s in self.signature.states()
                         if s not in self.allowed)

    def forced_state(self, contend) -> State:
        """The elected terminal state for a singleton-contender input: that
        contender holds leader, everyone else is silent."""
        contend = tuple(bool(c) for c in contend)
        if len(contend) != self.n or sum(contend) != 1:
            raise ModelError(
                "expected exactly one contender among %d positions" % self.n)
        assignment = {}
        for p, c in zip(self.signature.positions, contend):
            assignment[(p, "contend")] = "true" if c else "false"
            assignment[(p, "leader")] = "true" if c else "false"
        return self.signature.state(assignment)


def _le_step(q, position, letter):
    """Read one (contend, leader) letter: 0 before any leader, 1 after one
    contending leader, None (dead) at a second or a non-contending one."""
    contend, leader = letter
    if not leader:
        return q
    return 1 if q == 0 and contend else None


def make_le(n: int) -> LeFixture:
    """Build the leader-election fixture for a chain of n > 3 processes.
    Short chains are excluded: every window then sees every position, so
    the merge argument has no room to combine distant contenders.

    Builds the signature, the three-state automaton (no leader yet, one
    contending leader, dead) and the two forced states; no state set."""
    if n <= 3:
        raise ModelError("leader election is considered for chains of "
                         "more than 3 processes")
    sig = Signature((p, name, BOOL) for p in range(1, n + 1)
                    for name in ("contend", "leader"))
    fixture = LeFixture(n, sig, ChainAutomaton(sig, 0, _le_step,
                                               frozenset((0, 1))), ())
    s1 = fixture.forced_state([True] + [False] * (n - 1))
    s2 = fixture.forced_state([False] * (n - 1) + [True])
    return replace(fixture, forced=(s1, s2))


# --------------------------------------------------------------------------
# Registry and samples.

BUILDERS: dict = {
    "cm": make_cm,
    "la": make_alternator,
    "pif": make_pif,
    "abp": make_abp,
}


def sample_source(filename: str) -> str:
    """The text of a shipped .gcp sample file."""
    return (resources.files("stabiliq") / "samples" / filename).read_text()
