"""The frozen-position proof: no cycle misses Changes(S), read off the tables.

explorer.frozen decides on the window and digit tables alone that no cycle
of the universe misses Changes(S); the stabilizing check then answers that
question with no trim. Here every proof is compared with `find_cycle` on
the relation of the edges that miss the obligation, on random programs and
mappings, and the checks' notes and witnesses with the proof are compared
with those of the path that trims every obligation.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabiliq import explorer, kernel, protocols, specs
from stabiliq.dsl import parse_protocol
from stabiliq.mapping import (EnabledOutputMapping, HighestIdMapping,
                              IdenticalMapping, ProjectionMapping, _same)
from stabiliq.program import (Assign, If, NotRef, Program, VarRef,
                              VariableDecl)
from stabiliq.specs import Changes
from test_windows import programs


def ideal(program, spec, mapping=EnabledOutputMapping()):
    verdict = specs.check_ideal_stabilizing(program, mapping, spec)
    return verdict.holds, verdict.witness, verdict.notes


def no_proof(monkeypatch):
    monkeypatch.setattr(explorer, "frozen",
                        lambda program, bound: lambda slots: False)


def relations(monkeypatch) -> list:
    """The relations `find_cycle` is asked with from now on, None for
    every edge."""
    asked, find_cycle = [], explorer.find_cycle
    monkeypatch.setattr(explorer, "find_cycle", lambda ts, nodes, rel=None: (
        asked.append(rel), find_cycle(ts, nodes, rel))[1])
    return asked


@pytest.mark.parametrize("n", range(3, 13))
def test_the_alternator_asks_no_obligation_trim(n, monkeypatch):
    # every FDP obligation and the stutter question are proven; only the
    # convergence question, a cycle outside the invariant, is trimmed
    bundle = protocols.make_alternator(n)
    asked = relations(monkeypatch)
    holds, _, notes = ideal(bundle.program, bundle.ideal_spec)
    assert holds and asked == [None]
    assert sum("recurs on every cycle" in note for note in notes) == n + 1
    assert notes[-1] == "stutter divergence: none"


@pytest.mark.parametrize("ids", [(1, 2, 3), (2, 1, 3, 4), (5, 4, 3, 2, 1)])
def test_the_conflict_manager_stutters_unproven(ids, monkeypatch):
    # Changes() has cycles under the highest-id mapping: an access flip
    # the mapping hides; the proof claims nothing and the trim finds one
    bundle = protocols.make_cm(ids)
    bound = bundle.mapping.bind(bundle.program)
    assert not explorer.frozen(bundle.program, bound)(
        range(len(bound.signature.slots)))
    asked = relations(monkeypatch)
    holds, _, notes = ideal(bundle.program, bundle.ideal_spec,
                            bundle.mapping)
    assert holds and len(asked) == 2 and asked[1]
    assert "not discharged on cycle" in notes[1]


@pytest.mark.parametrize("make", [protocols.make_abp,
                                  lambda: protocols.make_pif(4)])
def test_a_program_writing_its_neighbours_is_refused(make):
    # abp's sender writes the receiver's channel; pif writes only its own
    # slot, and each move changes its identity image
    bundle = make()
    bound = bundle.mapping.bind(bundle.program)
    proven = explorer.frozen(bundle.program, bound)(
        range(len(bound.signature.slots)))
    assert proven is (bundle.name == "pif")


SWAP = """\
protocol swap(N) {
  process first in 1..1 {
    output x: bool;
    go: self.x = false -> self.x := true; right.x := false;
  }
  process second in 2..2 {
    output x: bool;
    go: self.x = false -> self.x := true; left.x := false;
  }
  process rest in 3..N {
    output x: bool;
  }
}
"""


def test_a_move_a_neighbour_undoes_is_refused():
    # each go sets its own x one way only, so it closes no cycle of its own
    # codes; but each also resets the other's x, and the two cycle with x
    # at 3 unchanged: a proof that ignored the neighbour write would miss it
    program = parse_protocol(SWAP, n=3).unwrap()
    bound = IdenticalMapping().bind(program)
    assert not explorer.frozen(program, bound)((2,))
    ts = explorer.build_transition_system(program)
    unmet = specs._edge_relations(ts, bound, bound.slot_bits(), ts.full)
    assert explorer.find_cycle(ts, ts.full, unmet(Changes((2,)))) is not None


TILTED = """\
protocol tilted(N) {
  process first in 1..1 {
    var x: bool;
    step: self.x = right.x -> self.x := !self.x;
  }
  process second in 2..2 {
    var x: bool;
    step: self.x != left.x -> self.x := !self.x;
  }
  process middle in 3..N-1 {
    var x: bool;
    step: self.x != left.x && self.x = right.x -> self.x := !self.x;
  }
  process last in N..N {
    var x: bool;
    step: self.x != left.x -> self.x := !self.x;
  }
}
"""


@pytest.mark.parametrize("n", (4, 5, 6))
def test_a_tilted_chain_gives_the_notes_of_every_trim(n, monkeypatch):
    program = parse_protocol(TILTED, n=n).unwrap()
    spec = specs.fdp_spec(n)
    found = ideal(program, spec)
    no_proof(monkeypatch)
    assert ideal(program, spec) == found


@pytest.mark.parametrize("n", range(3, 13))
@pytest.mark.parametrize("policy", (None, kernel.DIVERGENCE_ALLOWED,
                                    kernel.DIVERGENCE_FORBIDDEN))
def test_the_proof_gives_the_notes_of_every_trim(n, policy, monkeypatch):
    bundle = protocols.make_alternator(n)
    spec = bundle.ideal_spec if policy is None \
        else bundle.ideal_spec.with_policy(policy)
    trims = []
    trim = explorer.trim
    monkeypatch.setattr(explorer, "trim",
                        lambda *args: trims.append(1) or trim(*args))
    found = ideal(bundle.program, spec)
    proved = len(trims)
    no_proof(monkeypatch)
    assert ideal(bundle.program, spec) == found
    # without the proof, Changes() (the stutter question too) and the n
    # activity obligations are trimmed once each
    assert len(trims) - 2 * proved == n + 1


# --------------------------------------------------------------------------
# Random programs and mappings: whenever the proof holds, find_cycle finds
# no cycle whose every edge misses the obligation.

def _rewrite(node, leaf):
    """The node with leaf applied to each VarRef and VariableDecl in it."""
    if isinstance(node, (VarRef, VariableDecl)):
        return leaf(node)
    if isinstance(node, tuple):
        return tuple(_rewrite(item, leaf) for item in node)
    if hasattr(node, "_fields"):
        return kernel.replace(node, **{f: _rewrite(getattr(node, f), leaf)
                                      for f in node._fields})
    return node


def _own_writes(stmts, names) -> tuple:
    """The statements with each assignment to a neighbour's variable made
    to the process's own one of that name, or dropped when it has none."""
    out = []
    for stmt in stmts:
        if isinstance(stmt, If):
            out.append(kernel.replace(stmt, then=_own_writes(stmt.then, names),
                                      orelse=_own_writes(stmt.orelse, names)))
        elif stmt.target.name in names:
            out.append(kernel.replace(stmt, target=VarRef(0, stmt.target.name)))
    return tuple(out)


def _external(node):
    return kernel.replace(node, kind="output") \
        if isinstance(node, VariableDecl) else node


def _access(node):  # x renamed, for the highest-id mapping
    return kernel.replace(node, name="access") if node.name == "x" else node


@st.composite
def questions(draw):
    """A random program, two in three of them writing only their own
    variables (the stock strategy writes a neighbour in most draws), a
    mapping it binds to, and a Changes obligation over the image slots."""
    processes, kind = draw(programs()).processes, draw(st.integers(0, 2))
    x = VarRef(0, "x")
    if kind:  # writes to its own variables only, or a toggle of x
        processes = tuple(kernel.replace(p, actions=tuple(kernel.replace(
            a, command=_own_writes(a.command, {v.name for v in p.vars})
            if kind == 1 else (Assign(x, NotRef(x)),))
            for a in p.actions)) for p in processes)
    names = sorted({v.name for p in processes for v in p.vars})
    mapping = draw(st.sampled_from((
        EnabledOutputMapping(), IdenticalMapping(), HighestIdMapping(),
        ProjectionMapping(draw(st.sets(st.sampled_from(names), min_size=1))))))
    if isinstance(mapping, (IdenticalMapping, ProjectionMapping)):
        processes = _rewrite(processes, _external)
    elif isinstance(mapping, HighestIdMapping):
        processes = _rewrite(processes, _access)
    program = Program("random", processes)
    size = len(mapping.bind(program).signature.slots)
    slots = draw(st.none() | st.sets(st.integers(0, size - 1), min_size=1))
    return program, mapping, Changes(None if slots is None
                                     else tuple(sorted(slots)))


def test_a_proof_leaves_no_cycle_that_misses_the_obligation():
    proven = []

    @settings(max_examples=700, deadline=None, derandomize=True,
              database=None)
    @given(questions())
    def check(question):
        program, mapping, pred = question
        bound = mapping.bind(program)
        slots = range(len(bound.signature.slots)) if pred.slots is None \
            else pred.slots
        if not explorer.frozen(program, bound)(slots):
            return
        proven.append(question)
        ts = explorer.build_transition_system(program)
        unmet = specs._edge_relations(
            ts, bound, None if bound.id_of is _same else bound.slot_bits(),
            ts.full)
        assert explorer.find_cycle(ts, ts.full, unmet(pred)) is None

    check()
    assert len(proven) >= 150
