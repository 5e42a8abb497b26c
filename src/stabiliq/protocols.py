"""Built-in protocol bundles: program, mapping, specifications, invariants.

Each constructor parses its program from the protocol's shipped .gcp
sample, the only definition of that program. It pairs the program with its
state mapping and a function that builds, on the bundle's first read, its
strict and ideal specifications and the invariant candidates it accepts.
The leader-election entry is deliberately not a program: it is a
specification fixture for the impossibility engine, because no program
for it exists.
"""
from __future__ import annotations

import functools
import os
from typing import TYPE_CHECKING, Callable, Optional

from .kernel import (BOOL, ChainAutomaton, ModelError, Signature, State,
                     check_cap, every_state, le_allowed, record, replace)

if TYPE_CHECKING:  # loaded by the builders and on a first spec read
    from .mapping import StateMapping
    from .program import Program
    from .specs import Specification


@record
class ProtocolBundle:
    """Everything the workbench knows about one built-in protocol. The first
    read of ideal_spec, strict_spec (or None) or invariants (named state
    predicates) runs make_specs on the `specs` module, once per bundle."""

    name: str
    program: Program
    mapping: StateMapping
    make_specs: Callable
    default_invariant: str = "true"

    @functools.cached_property
    def _specs(self) -> tuple:
        from . import specs
        return self.make_specs(specs)

    ideal_spec = property(lambda self: self._specs[0])
    strict_spec = property(lambda self: self._specs[1])
    invariants = property(lambda self: self._specs[2])

    @property
    def spec(self) -> Specification:
        """The specification the protocol is advertised against: the ideal
        one, since that is the whole point of these constructions."""
        return self.ideal_spec


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
    from .mapping import HighestIdMapping
    from .program import Program
    processes = _parse_sample("cm.gcp", len(ids)).processes
    program = Program("cm", [replace(p, pid=pid)
                             for p, pid in zip(processes, ids)])
    return ProtocolBundle(
        name="cm",
        program=program,
        mapping=HighestIdMapping(),
        make_specs=lambda specs: (specs.udp_spec(), None,
                                  {"true": every_state}),
    )


# --------------------------------------------------------------------------
# Linear alternator.

def make_alternator(n: int) -> ProtocolBundle:
    """The linear alternator: each process toggles its bit when its guard
    form (chain end or interior) holds. The mapping declares a process in
    the critical section exactly when its action is enabled."""
    if n < 3:
        raise ModelError("the alternator needs at least 3 processes")
    from .mapping import EnabledOutputMapping
    return ProtocolBundle(
        name="la",
        program=_parse_sample("alternator.gcp", n),
        mapping=EnabledOutputMapping(),
        make_specs=lambda specs: (specs.fdp_spec(n), None,
                                  {"true": every_state}),
    )


# --------------------------------------------------------------------------
# Information propagation with feedback.

def make_pif(n: int) -> ProtocolBundle:
    """Request waves travel left to right, reply waves travel back. The
    root can only be idle or requesting, the leaf idle or replying, which
    trims the universe to the meaningful states."""
    if n < 3:
        raise ModelError(
            "the propagation chain needs a root, a leaf, and at least "
            "one intermediate process")
    from .mapping import IdenticalMapping
    return ProtocolBundle(
        name="pif",
        program=_parse_sample("pif.gcp", n),
        mapping=IdenticalMapping(),
        make_specs=lambda specs: (specs.ipif_spec(), specs.spif_spec(), {
            "rq-or-rp": specs.pif_wave,
            "root-idle": specs.pif_root_idle,
            "true": every_state,
        }),
        default_invariant="rq-or-rp",
    )


# --------------------------------------------------------------------------
# Alternating bit protocol.

def make_abp() -> ProtocolBundle:
    """Sender and receiver over two unit-capacity channels. Receiving
    consumes the message; sending into an occupied channel loses the new
    message silently. The sender advances its bit only on a matching
    acknowledgment; the receiver adopts the incoming bit and always
    acknowledges it."""
    from .mapping import IdenticalMapping
    return ProtocolBundle(
        name="abp",
        program=_parse_sample("abp.gcp"),
        mapping=IdenticalMapping(),
        make_specs=lambda specs: (specs.iabp_spec(), specs.sabp_spec(), {
            "legitimate": specs.abp_legitimate,
            "true": every_state,
        }),
        default_invariant="legitimate",
    )


# --------------------------------------------------------------------------
# Leader election: a specification fixture, not a program.

@record
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
        from .merge import accepted_states
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
    fixture = LeFixture(n, sig, le_allowed.automaton(sig), ())
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
    """The text of a shipped .gcp sample, read by this module's loader with
    no importlib.resources; a missing sample is a ModelError."""
    path = os.path.join(os.path.dirname(__file__), "samples", filename)
    try:
        return __spec__.loader.get_data(path).decode()
    except OSError:
        raise ModelError("sample file %s is missing from the installed "
                         "package" % path) from None


def _parse_sample(filename: str, n: Optional[int] = None) -> Program:
    """A shipped sample's program; only the builders import the DSL."""
    from .dsl import parse_protocol
    return parse_protocol(sample_source(filename), n=n).unwrap()
