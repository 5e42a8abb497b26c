"""Transition systems, components, cycles, simulation, images, DOT."""
import random
from array import array

import pytest

import helpers
from stabiliq import explorer, kernel, protocols, specs
from stabiliq.kernel import Signature, UniverseCapError
from stabiliq.mapping import IdenticalMapping


def test_transition_system_counts():
    # states: products of the domain sizes; edges: counted by hand for the
    # always-enabled flips, by the reference move tables for the rest
    cm4 = protocols.make_cm((2, 1, 3, 4)).program
    ts = explorer.build_transition_system(cm4)
    assert (ts.size, ts.edge_count()) == (16, 16 * 4)
    cm2 = protocols.make_cm((1, 2)).program
    ts = explorer.build_transition_system(cm2)
    assert (ts.size, ts.edge_count()) == (4, 8)

    for n in (3, 4, 5):
        prog = protocols.make_pif(n).program
        ts = explorer.build_transition_system(prog)
        assert ts.size == 2 * 3 ** (n - 2) * 2
        want = sum(len(helpers.pif_reference_moves(helpers.state_values(s)))
                   for s in prog.signature.states())
        assert ts.edge_count() == want

    abp = protocols.make_abp().program
    ts = explorer.build_transition_system(abp)
    want = sum(len(helpers.abp_reference_moves(helpers.state_values(s)))
               for s in abp.signature.states())
    assert (ts.size, ts.edge_count()) == (36, want)

    for n in (3, 4, 5):
        prog = protocols.make_alternator(n).program
        ts = explorer.build_transition_system(prog)
        want = sum(len(helpers.la_reference_enabled(helpers.state_values(s)))
                   for s in prog.signature.states())
        assert (ts.size, ts.edge_count()) == (2 ** n, want)


def test_transition_system_matches_the_kernel_successors():
    prog = protocols.make_pif(4).program
    ts = explorer.build_transition_system(prog)
    succ = helpers.successor_table(prog)
    for i in range(ts.size):
        assert sorted({t for _, _, t in ts.edges(i)}) == succ[i]


def test_build_decodes_no_state(monkeypatch):
    # the CSR the interpreter gives, state by state, built before decoding
    # is switched off; the build must reproduce it from ids alone
    programs = [protocols.make_cm((2, 1, 3)).program,
                protocols.make_alternator(6).program,
                protocols.make_pif(5).program,
                protocols.make_abp().program]
    expected = []
    for prog in programs:
        offsets, targets, actions = [0], [], []
        for s in prog.signature.states():
            for pos, name in kernel.enabled_actions(prog, s):
                targets.append(kernel.apply(prog, s, pos, name).index)
                actions.append(prog.action_order.index((pos, name)))
            offsets.append(len(targets))
        expected.append((offsets, targets, actions))

    def refuse(*args):
        raise AssertionError("a state was decoded")

    monkeypatch.setattr(Signature, "states", refuse)
    monkeypatch.setattr(Signature, "state_at", refuse)
    for prog, csr in zip(programs, expected):
        ts = explorer.build_transition_system(prog)
        assert (list(ts.offsets), list(ts.targets), list(ts.actions)) == csr
        assert ts.size == prog.signature.size


def test_transition_system_respects_the_cap():
    prog = protocols.make_alternator(5).program
    with pytest.raises(UniverseCapError):
        explorer.build_transition_system(prog, cap=31)


def test_edges_match_an_independent_wave_reference():
    # every edge of the feedback wave system, against a from-scratch
    # restatement of the seven actions
    prog = protocols.make_pif(4).program
    ts = explorer.build_transition_system(prog)
    sig = prog.signature
    for i, s in enumerate(ts.states):
        got = sorted((p, a, t) for p, a, t in ts.edges(i))
        ref = sorted(
            (p, a, sig.state({(q, "st"): v
                              for q, v in enumerate(nv, start=1)}).index)
            for p, a, nv in helpers.pif_reference_moves(helpers.state_values(s)))
        assert got == ref, s.text()


def test_condensation_structure():
    prog = protocols.make_abp().program
    ts = explorer.build_transition_system(prog)
    cond = explorer.condense(ts)
    # every state is in exactly one component
    assert sorted(i for comp in cond.components for i in comp) == \
        list(range(ts.size))
    for c, comp in enumerate(cond.components):
        for i in comp:
            assert cond.comp_of[i] == c
    # components come out in reverse topological order: edges point from
    # higher component ids to lower ones
    for c, targets in enumerate(cond.comp_edges):
        for t in targets:
            assert t < c
    # bottoms have no outgoing edges
    for c in cond.bottoms:
        assert not cond.comp_edges[c]
    # agreement with the quadratic reachability oracle
    succ = helpers.successor_table(prog)
    assert sorted(map(sorted, helpers.brute_sccs(succ))) == \
        sorted(map(sorted, (sorted(c) for c in cond.components)))
    assert sorted(map(sorted, helpers.brute_bottom_sccs(succ))) == \
        sorted(sorted(cond.components[c]) for c in cond.bottoms)


def test_condensation_on_every_small_builtin_agrees_with_the_oracle():
    programs = [
        protocols.make_cm((2, 1, 3, 4)).program,
        protocols.make_alternator(4).program,
        protocols.make_pif(4).program,
    ]
    for prog in programs:
        ts = explorer.build_transition_system(prog)
        cond = explorer.condense(ts)
        succ = helpers.successor_table(prog)
        assert sorted(map(sorted, helpers.brute_sccs(succ))) == \
            sorted(map(sorted, (sorted(c) for c in cond.components))), prog.name


def test_terminals():
    # the wave protocol never blocks
    pif = protocols.make_pif(4).program
    assert explorer.terminals(explorer.build_transition_system(pif)) == []
    # a single process comparing against a constant can block
    from stabiliq.dsl import parse_protocol
    prog = parse_protocol("""
      protocol oneshot() {
        process only in 1..1 {
          var x: bool;
          go: self.x = false -> self.x := true;
        }
      }
    """).unwrap()
    ts = explorer.build_transition_system(prog)
    terms = explorer.terminals(ts)
    assert [t.text() for t in terms] == ["x=true"]


def test_find_cycle_replayable_and_filtered():
    abp = protocols.make_abp().program
    ts = explorer.build_transition_system(abp)
    cycle = explorer.find_cycle(ts, range(ts.size))
    assert cycle is not None
    k = len(cycle.states)
    assert k >= 1 and len(cycle.labels) == k
    # the labels replay around the cycle
    from stabiliq import kernel
    for i in range(k):
        pos, name = cycle.labels[i]
        assert kernel.apply(abp, cycle.states[i], pos, name) == \
            cycle.states[(i + 1) % k]
    # forbidding every edge leaves no cycle
    assert explorer.find_cycle(ts, range(ts.size),
                               edge_ok=bytes(ts.edge_count())) is None


def oracle_has_cycle(succ, nodes, kept_edge) -> bool:
    """A cycle among the nodes over the edges (v, i) with kept_edge(v, i),
    i indexing succ[v], from helpers.brute_sccs."""
    inside = set(nodes)
    kept = [sorted({t for i, t in enumerate(out) if v in inside
                    and t in inside and kept_edge(v, i)})
            for v, out in enumerate(succ)]
    return any(len(c) > 1 or min(c) in kept[min(c)]
               for c in helpers.brute_sccs(kept))


def csr(succ):
    offsets = array("q", [0])
    for out in succ:
        offsets.append(offsets[-1] + len(out))
    return offsets, array("q", [t for out in succ for t in out])


@pytest.fixture
def peels(monkeypatch):
    """One entry per run of the Kahn finisher."""
    calls = []
    peel = explorer.EdgeGroups._peel
    monkeypatch.setattr(explorer.EdgeGroups, "_peel",
                        lambda *args: calls.append(1) or peel(*args))
    return calls


def test_peel_agrees_with_the_component_oracle(peels):
    # 0 -> ... -> 6 outlasts ceil(sqrt(9)) rounds, 7 <-> 8 is a cycle, and
    # 9..11 lie outside the set with in-edges only from a survivor
    succ = [[1], [2], [3], [4, 9, 10, 11], [5], [6], [7], [8], [7], [], [], []]
    offsets, targets = csr(succ)
    assert explorer.EdgeGroups(offsets, targets).has_cycle(range(9))
    assert peels
    rng = random.Random(6)
    for _ in range(400):
        n = rng.randint(1, 12)
        # self-loops and parallel edges (same target, other key) included
        succ = [sorted(rng.choices(range(n), k=rng.randint(0, 4)))
                for _ in range(n)]
        if rng.random() < 0.3:  # a long chain outlasts the round budget
            succ = [out + [v + 1] if v + 1 < n else out
                    for v, out in enumerate(succ)]
        offsets, targets = csr(succ)
        first = offsets.tolist()
        nodes = sorted(rng.sample(range(n), rng.randint(0, n)))
        edge_ok = bytes(rng.random() < 0.7 for _ in targets)
        for ok in (None, edge_ok):
            cyclic = oracle_has_cycle(succ, nodes, lambda v, i: ok is None
                                      or ok[first[v] + i])
            groups = explorer.EdgeGroups(offsets, targets, ok)
            assert groups.has_cycle(nodes) == cyclic
            assert groups.has_cycle(iter(nodes)) == cyclic
        # one grouping answers every selection of keys
        keys = [rng.randrange(4) for _ in targets]
        groups = explorer.EdgeGroups(offsets, targets, keys)
        for chosen in ({0}, {1, 2}, {0, 1, 2, 3}, set()):
            cyclic = oracle_has_cycle(succ, nodes, lambda v, i:
                                      keys[first[v] + i] in chosen)
            assert groups.has_cycle(nodes, chosen.__contains__) == cyclic
    assert peels  # the Kahn finisher ran on some survivors


@pytest.mark.parametrize("back_edge", [False, True])
def test_long_path_outlasts_the_round_budget(peels, back_edge):
    # 0 -> 1 -> ... -> n-1, optionally closed by n-1 -> n/2: either way the
    # first half peels one node a round, far past ceil(sqrt(n)) rounds
    n = 100_000
    succ_of = list(range(1, n)) + [n // 2] * back_edge
    offsets = array("q", range(len(succ_of) + 1))
    offsets.extend([len(succ_of)] * (n + 1 - len(offsets)))
    targets = array("q", succ_of)
    groups = explorer.EdgeGroups(offsets, targets)
    assert groups.has_cycle(range(n)) == back_edge
    assert peels == [1]
    assert groups.has_cycle(range(n // 2, n)) == back_edge


def test_cycles_outside_predicate():
    pif = protocols.make_pif(4).program
    ts = explorer.build_transition_system(pif)
    # nothing cycles outside the wave states
    outside = [i for i, s in enumerate(ts.states) if not specs.pif_wave(s)]
    assert explorer.find_cycle(ts, outside) is None
    # with no states excluded, the wave cycle itself is found
    cyc = explorer.find_cycle(ts, range(ts.size))
    assert cyc is not None and len(cyc.states) >= 2


def test_run_round_robin_wave_trace():
    pif = protocols.make_pif(4).program
    start = pif.signature.parse_state("st.p1=i st.p2=i st.p3=i st.p4=i")
    comp = explorer.run(pif, start, steps=12, policy="round-robin")
    texts = [s.text() for s in comp.states]
    assert texts[:5] == [
        "st.p1=i st.p2=i st.p3=i st.p4=i",
        "st.p1=rq st.p2=i st.p3=i st.p4=i",
        "st.p1=rq st.p2=rq st.p3=i st.p4=i",
        "st.p1=rq st.p2=rq st.p3=rq st.p4=i",
        "st.p1=rq st.p2=rq st.p3=rq st.p4=rp",
    ]
    # the full wave returns to all-idle after 10 steps and closes a lasso
    assert comp.lasso_start == 0
    assert len(comp.states) == 11
    assert texts[-1] == texts[0]
    assert comp.maximal and not comp.hit_terminal


def test_run_is_deterministic_per_seed():
    abp = protocols.make_abp().program
    start = abp.signature.state_at(0)
    a = explorer.run(abp, start, steps=30, seed=7)
    b = explorer.run(abp, start, steps=30, seed=7)
    assert a.states == b.states and a.labels == b.labels
    # a program with real branching separates seeds
    cm = protocols.make_cm((2, 1, 3, 4)).program
    runs = {explorer.run(cm, cm.signature.state_at(0), steps=12,
                         seed=seed).labels for seed in range(6)}
    assert len(runs) > 1


def test_run_rejects_unknown_policy():
    abp = protocols.make_abp().program
    with pytest.raises(Exception):
        explorer.run(abp, abp.signature.state_at(0), steps=5, policy="nope")


def test_run_stops_at_terminals():
    from stabiliq.dsl import parse_protocol
    prog = parse_protocol("""
      protocol oneshot() {
        process only in 1..1 {
          var x: bool;
          go: self.x = false -> self.x := true;
        }
      }
    """).unwrap()
    comp = explorer.run(prog, prog.signature.parse_state("x=false"), steps=10)
    assert comp.hit_terminal and len(comp.states) == 2
    assert comp.maximal


def test_image_removes_stutters_and_flags_divergence():
    bundle = protocols.make_cm((2, 1, 3, 4))
    prog = bundle.program
    sig = prog.signature
    # drive the two-state loop whose image never moves: <T,F,F,F> <-> <T,T,F,F>
    s = sig.parse_state(
        "access.p1=true access.p2=false access.p3=false access.p4=false")
    comp = explorer.Computation(
        program=prog,
        states=(s, sig.parse_state("access.p1=true access.p2=true "
                                   "access.p3=false access.p4=false"), s),
        labels=((2, "flip"), (2, "flip")),
        lasso_start=0,
        hit_terminal=False)
    seq = explorer.image(comp, bundle.mapping)
    assert [t.text() for t in seq.states] == [
        "in.p1=true in.p2=false in.p3=false in.p4=false"]
    assert seq.stutter_divergent


def test_image_of_a_moving_run_is_not_divergent():
    pif = protocols.make_pif(4)
    start = pif.program.signature.parse_state("st.p1=i st.p2=i st.p3=i st.p4=i")
    comp = explorer.run(pif.program, start, steps=12, policy="round-robin")
    seq = explorer.image(comp, pif.mapping)
    assert len(seq.states) == 11
    assert not seq.stutter_divergent


def test_induced_specification_drops_stutter_edges():
    cm = protocols.make_cm((2, 1, 3, 4))
    induced = explorer.induced_specification(cm.program, cm.mapping)
    # the image universe: conflict-free patterns reachable as images
    for s, t in induced.edges:
        assert s != t
    assert all(n in induced.nodes for e in induced.edges for n in e)
    # identity mapping induces exactly the non-loop program edges
    abp = protocols.make_abp()
    ind2 = explorer.induced_specification(abp.program, abp.mapping)
    ts = explorer.build_transition_system(abp.program)
    plain = {(ts.state(i), ts.state(t))
             for i in range(ts.size) for _, _, t in ts.edges(i)
             if i != t}
    assert ind2.edges == frozenset(plain)


def test_dot_output_shapes():
    cm2 = protocols.make_cm((2, 1)).program
    ts = explorer.build_transition_system(cm2)
    dot = explorer.to_dot(ts, name="cm2")
    assert dot.startswith("digraph cm2 {")
    assert dot.count(" -> ") == 8
    assert dot.count("label=") == 4 + 8
    colored = explorer.to_dot(
        ts, color_pred=lambda s: s.value(1, "access") == "true")
    assert colored.count("fillcolor") == 2
    cond_dot = explorer.condensation_to_dot(ts, explorer.condense(ts))
    assert "peripheries=2" in cond_dot
