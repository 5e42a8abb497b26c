"""Program-to-specification state mappings.

A specification talks about external variables only. A StateMapping sends
every program state to one specification state, either structurally
(identical, projection) or through a per-process rule (the conflict-manager
highest-identifier rule, the alternator enabled-rule). Bound to a program,
it is digit tables, which the checks and `simulate` read.
"""
from __future__ import annotations

import itertools
from array import array
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .kernel import BOOL, ModelError, Signature, State

if TYPE_CHECKING:  # a program is only bound
    from .program import Program


class MappingError(ModelError):
    """A mapping cannot be bound to the given program."""


def _same(sid: int) -> int:
    return sid


class BoundMapping:
    """A mapping specialized to one program: per slot of a target signature,
    a digit table (lo, hi, values) over the program signature `source`,
    which gives the slot's value values[code] in the image of a program
    state whose code of slots lo..hi - 1 is code (Signature.code). No
    tables is the identity. id_of sends a program state id to its image's
    id, the fold of the tables; calling the binding on a program State
    reads the image off the state's values."""

    __slots__ = ("signature", "source", "id_of", "digits")

    def __init__(self, signature: Signature, digits: Optional[list] = None,
                 source: Optional[Signature] = None):
        if digits is not None and source is None:
            raise MappingError("digit tables need their source signature")
        self.signature, self.source, self.id_of = \
            signature, source or signature, _same
        self.digits = digits or _copies(signature, range(len(signature.slots)))
        if digits is not None:
            weights = source.weights  # a table's code is a run of digits
            tables = [(weights[hi], weights[lo] // weights[hi], vals, r)
                      for (lo, hi, vals), r in zip(digits, signature.radices)]

            def fold(sid: int) -> int:
                out = 0
                for place, count, values, radix in tables:
                    out = out * radix + values[sid // place % count]
                return out

            self.id_of = fold

    def __call__(self, state: State) -> State:
        code, values = state.sig.code, state.values
        return State(self.signature, tuple(
            digit[code(values, lo, hi)] for lo, hi, digit in self.digits))

    def ids(self, ts) -> Sequence[int]:
        """The id, under `signature`, of each state's image, in ts order."""
        return array("q", map(self.id_of, range(ts.size)))

    def slot_bits(self) -> list[list[int]]:
        """Per specification slot i and value a, the bitset of the program
        states whose image has value a at slot i: the periodic set of the
        codes the slot's table sends to a."""
        from . import explorer
        weights, size = self.source.weights, self.source.size
        return [[explorer.periodic(
            [c for c, v in enumerate(values) if v == a], weights[hi],
            weights[lo] // weights[hi], size) for a in range(r)]
            for (lo, hi, values), r in zip(self.digits,
                                           self.signature.radices)]


def _copies(sig: Signature, slots) -> list:
    """The digit tables that copy the given slots of sig's states."""
    return [(i, i + 1, range(sig.radices[i])) for i in slots]


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
                            digits=_copies(psig, keep), source=psig)


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
            digits.append((lo, hi, outs))
        return BoundMapping(sig, digits=digits, source=psig)


class EnabledOutputMapping(StateMapping):
    """The alternator rule: position p's output `in` is true exactly when
    some action of process p is enabled."""

    def bind(self, program: Program) -> BoundMapping:
        sig = Signature((p.index, "in", BOOL) for p in program.processes)
        return BoundMapping(sig, digits=[
            (t.lo, t.hi, bytes(map(bool, t.rows))) for t in program.windows],
            source=program.signature)

def __getattr__(name: str):
    # bench/tracing.py, the benchmark's traced run, reads these two engine
    # functions here; its rewrite onto the report's phases drops this
    if name in ("check_ideal_possibility", "merge_closure_generations"):
        from . import merge
        return getattr(merge, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
