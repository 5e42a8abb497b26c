"""The chain mirror: reversing the chain, relabeling each position's values.

explorer.chain_mirror decides on the window and digit tables alone whether a
mirror maps the transitions onto themselves and keeps every image slot's
partition; the ideal check then asks each mirror pair of Changes
obligations once. Here the mirror is built explicitly on state ids and
compared with the edges and the obligation relations, and the shortcut's
notes and witnesses are compared with the path that trims every
obligation.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabiliq import explorer, kernel, protocols, specs
from stabiliq.dsl import parse_protocol
from stabiliq.kernel import BOOL, State
from stabiliq.mapping import EnabledOutputMapping
from stabiliq.program import Action, Process, Program, VarRef, VariableDecl
from test_windows import D3, _block, _guard, programs


def edge_set(rel: dict) -> set:
    return {(v, v + d) for d, sources in rel.items()
            for v in explorer.members(sources)}


def mirror_ids(sig, pis) -> list:
    """Per state id, the id of its mirror: position k's local code u (its
    slots' digits) becomes position N+1-k's local code pis[k-1][u]."""
    n, out = len(pis), []
    for s in sig.states():
        values = [0] * len(sig.slots)
        for p in range(1, n + 1):
            u = 0
            for i in sig.slots_at.get(p, ()):
                u = u * sig.radices[i] + s.values[i]
            v = pis[p - 1][u]
            for i in reversed(sig.slots_at.get(n + 1 - p, ())):
                v, values[i] = divmod(v, sig.radices[i])
        out.append(State(sig, tuple(values)).index)
    return out


def alternator_mirror(n: int) -> list:
    """Reverse the chain and complement x at every even position: bit
    n - k of a state id is x at position k."""
    out = []
    for sid in range(2 ** n):
        x = [sid >> (n - k) & 1 for k in range(1, n + 1)]
        y = [x[n - k] ^ (n + 1 - k) % 2 ^ 1 for k in range(1, n + 1)]
        out.append(sum(b << (n - k) for k, b in enumerate(y, 1)))
    return out


@pytest.mark.parametrize("n", range(3, 11))
def test_the_alternator_mirror_maps_edges_and_obligations(n):
    bundle = protocols.make_alternator(n)
    program = bundle.program
    ts = explorer.build_transition_system(program)
    bound = bundle.mapping.bind(program)
    sigma = alternator_mirror(n)
    assert sorted(sigma) == list(range(ts.size))
    assert mirror_ids(program.signature, explorer.chain_mirror(
        program, bound)) in (sigma, [ts.full - v for v in sigma])
    edges = edge_set(ts.sources)
    assert {(sigma[v], sigma[w]) for v, w in edges} == edges
    # plain reversal is not a mirror of the alternator
    reverse = mirror_ids(program.signature, [(0, 1)] * n)
    assert {(reverse[v], reverse[w]) for v, w in edges} != edges
    unmet = specs._edge_relations(ts, bound, bound.slot_bits(),
                                  ts.full)
    relations = [edge_set(unmet(o.edge_pred))
                 for o in bundle.ideal_spec.acceptance.obligations]
    assert {(sigma[v], sigma[w]) for v, w in relations[0]} == relations[0]
    for j in range(1, n + 1):  # activity-pj against activity-p(n+1-j)
        assert {(sigma[v], sigma[w]) for v, w in relations[j]} \
            == relations[n + 1 - j]


ASYMMETRIC = """\
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


def ideal(program, spec, mapping=EnabledOutputMapping()):
    verdict = specs.check_ideal_stabilizing(program, mapping, spec)
    return verdict.holds, verdict.witness, verdict.notes


def no_mirror(monkeypatch):
    monkeypatch.setattr(explorer, "chain_mirror", lambda program, bound: None)


@pytest.mark.parametrize("make", [
    lambda: protocols.make_pif(4), lambda: protocols.make_pif(5),
    lambda: protocols.make_cm((1, 2, 3, 4)),
    lambda: protocols.make_cm((5, 4, 3, 2, 1)), protocols.make_abp])
def test_no_mirror_for_the_asymmetric_built_ins(make):
    bundle = make()
    assert explorer.chain_mirror(
        bundle.program, bundle.mapping.bind(bundle.program)) is None


@pytest.mark.parametrize("n", (4, 5, 6))
def test_an_asymmetric_guard_takes_the_old_path(n, monkeypatch):
    program = parse_protocol(ASYMMETRIC, n=n).unwrap()
    assert explorer.chain_mirror(
        program, EnabledOutputMapping().bind(program)) is None
    spec = specs.fdp_spec(n)
    found = ideal(program, spec)
    no_mirror(monkeypatch)
    assert ideal(program, spec) == found


@pytest.mark.parametrize("n", range(3, 13))
@pytest.mark.parametrize("policy", (None, kernel.DIVERGENCE_ALLOWED,
                                    kernel.DIVERGENCE_FORBIDDEN))
def test_mirror_pairs_give_the_notes_of_every_trim(n, policy, monkeypatch):
    bundle = protocols.make_alternator(n)
    spec = bundle.ideal_spec if policy is None \
        else bundle.ideal_spec.with_policy(policy)
    trims = []
    trim = explorer.trim
    monkeypatch.setattr(explorer, "trim",
                        lambda *args: trims.append(1) or trim(*args))
    found = ideal(bundle.program, spec)
    asked = len(trims)
    no_mirror(monkeypatch)
    assert ideal(bundle.program, spec) == found
    assert len(trims) - 2 * asked == n // 2  # one trim saved per pair


# --------------------------------------------------------------------------
# Random programs: whenever a mirror is found, it maps the edges onto
# themselves and keeps the enabled-output partition.

def _mirrored(node):
    """The node with every reference's left and right swapped."""
    if isinstance(node, VarRef):
        return VarRef(-node.offset, node.name)
    if isinstance(node, tuple):
        return tuple(map(_mirrored, node))
    if hasattr(node, "_fields"):
        return kernel.replace(node, **{f: _mirrored(getattr(node, f))
                                      for f in node._fields})
    return node


@st.composite
def mirrored_programs(draw):
    """Programs equal to their own reversal: position n+1-k declares k's
    variables and runs k's actions with left and right swapped; a middle
    position runs its actions both ways."""
    n = draw(st.integers(3, 6))
    half = range(1, (n + 1) // 2 + 1)
    decls = {}
    for pos in half:
        decls[pos] = decls[n + 1 - pos] = (draw(st.sampled_from((
            VariableDecl("x", BOOL), VariableDecl("y", D3)))),)
    acts = {}
    for pos in half:
        refs = [(offset, d.name, d.domain) for offset in (-1, 0, 1)
                for d in decls.get(pos + offset, ())]
        acts[pos] = tuple(
            Action("a%d" % k, _guard(draw, refs),
                   _block(draw, refs, 1, 1) + _block(draw, refs, 0, 1))
            for k in range(draw(st.integers(0, 2))))
        back = tuple(kernel.replace(a, name="b" + a.name[1:],
                                    guard=_mirrored(a.guard),
                                    command=_mirrored(a.command))
                     for a in acts[pos])
        acts[n + 1 - pos] = acts[pos] + back if 2 * pos == n + 1 else back
    return Program("mirrored", [Process(p, p, decls[p], acts[p])
                                for p in range(1, n + 1)])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(programs(), mirrored_programs()))
def test_a_found_mirror_maps_the_transitions_onto_themselves(program):
    bound = EnabledOutputMapping().bind(program)
    pis = explorer.chain_mirror(program, bound)
    if program.name == "mirrored":
        assert pis is not None
    if pis is None:
        return
    ts = explorer.build_transition_system(program)
    sigma = mirror_ids(program.signature, pis)
    assert sorted(sigma) == list(range(ts.size))
    edges = edge_set(ts.sources)
    assert {(sigma[v], sigma[w]) for v, w in edges} == edges
    n, image = program.n, list(map(bound.id_of, range(ts.size)))
    for p in range(1, n + 1):  # in at p and its mirror's in at n+1-p
        pairs = {(image[v] >> (n - p) & 1, image[sigma[v]] >> (p - 1) & 1)
                 for v in range(ts.size)}
        assert len(pairs) == len({a for a, _ in pairs}) \
            == len({b for _, b in pairs})
