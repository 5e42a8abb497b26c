"""Transition systems, components, cycles, simulation, DOT."""
import itertools
import random
import re
from collections import defaultdict

import pytest

import helpers
from stabiliq import explorer, kernel, protocols, simulation, specs, text
from stabiliq.dsl import parse_protocol
from stabiliq.kernel import Signature, UniverseCapError


@pytest.mark.parametrize("size,count", [
    (0, 0), (1, 1), (64, 1), (64, 2), (64, 64), (1000, 10), (1000, 31),
    (1000, 32), (1000, 500), (26244, 64), (26244, 1023), (100000, 1023),
    (100000, 1024), (100000, 5000)])
def test_members_peel_a_sparse_set_and_read_a_dense_one(size, count):
    # members, which reads the set's text, against the compress form over
    # every index, on sparse sets and dense ones
    rng = random.Random(size * 7919 + count)
    chosen = rng.sample(range(size), count)
    bits = sum(1 << v for v in chosen)
    want = list(itertools.compress(range(size), (
        bits >> v & 1 for v in range(size))))
    assert want == sorted(chosen)
    assert explorer.members(bits) == want


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
    # the edges the interpreter gives, state by state, listed before
    # decoding is switched off; the relation must reproduce them from ids
    programs = [protocols.make_cm((2, 1, 3)).program,
                protocols.make_alternator(6).program,
                protocols.make_pif(5).program,
                protocols.make_abp().program]
    expected = []
    for prog in programs:
        expected.append([[(pos, name, kernel.apply(prog, s, pos, name).index)
                          for pos, name in kernel.enabled_actions(prog, s)]
                         for s in prog.signature.states()])

    def refuse(*args):
        raise AssertionError("a state was decoded")

    monkeypatch.setattr(Signature, "states", refuse)
    monkeypatch.setattr(Signature, "state_at", refuse)
    for prog, edges in zip(programs, expected):
        ts = explorer.build_transition_system(prog)
        assert [list(ts.edges(i)) for i in range(ts.size)] == edges
        assert ts.edge_count() == sum(map(len, edges))
        assert ts.size == prog.signature.size
        # the bitsets hold exactly the (source, target) pairs
        assert {(v, v + d) for d, src in ts.sources.items()
                for v in range(ts.size) if src >> v & 1} == \
            {(v, t) for v, out in enumerate(edges) for _, _, t in out}
        assert ts.terminal == helpers.bits(
            v for v, out in enumerate(edges) if not out)


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
    # the alternating-bit system whole, and on its legitimate states, a set
    # no edge leaves: components, their order and the DOT writer's DAG
    # against the quadratic reachability oracle
    bundle = protocols.make_abp()
    ts = explorer.build_transition_system(bundle.program)
    succ = helpers.successor_table(bundle.program)
    legitimate = specs.abp_legitimate
    inside = [s.index for s in ts.states if legitimate(s)]
    assert 0 < len(inside) < ts.size
    for nodes in (None, inside):
        cond = assert_condensation_matches_the_oracle(
            succ, nodes, ts, lambda text: ts.program.signature.parse_state(
                text).index)
        # every state of the set is in exactly one component
        assert sorted(i for comp in cond.components for i in comp) == \
            sorted(range(ts.size) if nodes is None else nodes)


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
    assert explorer.build_transition_system(pif).terminal == 0
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
    assert [ts.state(i).text() for i in explorer.members(ts.terminal)] == \
        ["x=true"]


def test_find_cycle_replayable_and_filtered():
    abp = protocols.make_abp().program
    ts = explorer.build_transition_system(abp)
    cycle = explorer.find_cycle(ts, ts.full)
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
    assert explorer.find_cycle(ts, ts.full, explorer.edges_where(
        ts, ts.full, lambda s, t: False)) is None


@pytest.mark.parametrize("make", [
    protocols.make_abp, lambda: protocols.make_pif(4),
    lambda: protocols.make_cm((2, 1, 3)), lambda: protocols.make_alternator(4)])
def test_find_cycle_witnesses_replay_on_random_subgraphs(make):
    # random node sets and edge selections of a real transition system: a
    # witness exactly when the oracle trim is not empty, inside the nodes,
    # along edges of the relation, and replayable through the kernel
    program = make().program
    ts = explorer.build_transition_system(program)
    succ = [[t for _, _, t in ts.edges(v)] for v in range(ts.size)]
    rng = random.Random(ts.size)
    for _ in range(60):
        nodes = rng.sample(range(ts.size), rng.randint(0, ts.size))
        keys = {(v, t): rng.randrange(3) for v, out in enumerate(succ)
                for t in out}
        chosen = set(rng.sample(range(3), rng.randint(1, 3)))
        selected = explorer.edges_where(
            ts, helpers.bits(nodes), lambda s, t: keys[s, t] in chosen)
        for rel, kept in ((None, lambda v, i: True),
                          (selected,
                           lambda v, i: keys[v, succ[v][i]] in chosen)):
            cycle = explorer.find_cycle(ts, helpers.bits(nodes), rel)
            assert (cycle is None) == (not oracle_trim(succ, nodes, kept))
            if cycle is None:
                continue
            k = len(cycle.states)
            for i, (pos, name) in enumerate(cycle.labels):
                s, t = cycle.states[i], cycle.states[(i + 1) % k]
                assert s.index in nodes
                assert kernel.apply(program, s, pos, name) == t
                assert (rel or ts.sources).get(t.index - s.index, 0) \
                    >> s.index & 1


def oracle_trim(succ, nodes, kept_edge) -> set:
    """The nodes that a cycle reaches and that reach a cycle, among the
    nodes over the edges (v, i) with kept_edge(v, i), i indexing succ[v];
    the cycles from helpers.brute_sccs."""
    inside = set(nodes)
    kept = [sorted({t for i, t in enumerate(out) if v in inside
                    and t in inside and kept_edge(v, i)})
            for v, out in enumerate(succ)]
    preds = [[u for u, out in enumerate(kept) if v in out]
             for v in range(len(kept))]

    def reached(step):
        seen = {v for c in helpers.brute_sccs(kept)
                if len(c) > 1 or min(c) in kept[min(c)] for v in c}
        todo = list(seen)
        while todo:
            for w in step[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen
    return reached(kept) & reached(preds)


def relation(succ, kept_edge=lambda v, i: True) -> dict:
    """Per delta t - v, the bitset of the sources v of the kept edges."""
    sources = defaultdict(list)
    for v, out in enumerate(succ):
        for i, t in enumerate(out):
            if kept_edge(v, i):
                sources[t - v].append(v)
    return {d: helpers.bits(vs) for d, vs in sources.items()}


class Graph:
    """A successor table with what condense and the cycle questions read
    of a transition system."""

    def __init__(self, succ):
        self.succ, self.size = succ, len(succ)
        self.full = (1 << self.size) - 1
        self.sources = relation(succ)
        self.terminal = helpers.bits(v for v, out in enumerate(succ)
                                     if not out)

    def edges(self, v):
        return [(v, "e%d" % i, t) for i, t in enumerate(self.succ[v])]

    def state(self, v):
        return Node(v)


class Node(int):
    """A Graph state: its id, with the text a DOT label shows."""

    def text(self):
        return str(int(self))


def assert_cycle_of(succ, nodes, rel, cycle):
    """The witness is a cycle of the subgraph: distinct states in the
    nodes, and each label (v, "e<i>") names edge i of v, whose target is
    the next state and whose delta the relation keeps for v."""
    k = len(cycle.states)
    assert k == len(cycle.labels) == len(set(cycle.states)) >= 1
    for i, (v, (pos, name)) in enumerate(zip(cycle.states, cycle.labels)):
        t = cycle.states[(i + 1) % k]
        assert v in nodes and pos == v and succ[v][int(name[1:])] == t
        assert rel.get(t - v, 0) >> v & 1


@pytest.fixture
def peels(monkeypatch):
    """One entry per run of the linear finisher."""
    calls = []
    peel = explorer._peel
    monkeypatch.setattr(explorer, "_peel",
                        lambda *args: calls.append(1) or peel(*args))
    return calls


def test_peel_agrees_with_the_component_oracle(peels):
    # 0 -> ... -> 6 outlasts ceil(sqrt(9)) rounds, 7 <-> 8 is a cycle, and
    # 9..11 lie outside the set with in-edges only from a survivor
    succ = [[1], [2], [3], [4, 9, 10, 11], [5], [6], [7], [8], [7], [], [], []]
    assert explorer.trim(helpers.bits(range(9)), relation(succ))
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
        nodes = sorted(rng.sample(range(n), rng.randint(0, n)))
        edge_ok = [[rng.random() < 0.7 for _ in out] for out in succ]
        for ok in (None, edge_ok):
            def kept(v, i):
                return ok is None or ok[v][i]
            trimmed = oracle_trim(succ, nodes, kept)
            rel = relation(succ, kept)
            assert explorer.trim(helpers.bits(nodes), rel) == \
                helpers.bits(trimmed)
            # a witness exactly when the trim is not empty, and a cycle of
            # the subgraph
            cycle = explorer.find_cycle(Graph(succ), helpers.bits(nodes), rel)
            assert (cycle is None) == (not trimmed)
            if cycle is not None:
                assert_cycle_of(succ, nodes, rel, cycle)
        # each selection of keys is one edge filter; a key belongs to a
        # (source, target) pair, so parallel edges share it
        keys = {(v, t): rng.randrange(4)
                for v, out in enumerate(succ) for t in out}
        for chosen in ({0}, {1, 2}, {0, 1, 2, 3}, set()):
            cyclic = bool(oracle_trim(succ, nodes, lambda v, i:
                                      keys[v, succ[v][i]] in chosen))
            rel = explorer.edges_where(Graph(succ), helpers.bits(nodes),
                                       lambda s, t: keys[s, t] in chosen)
            assert bool(explorer.trim(helpers.bits(nodes), rel)) == cyclic
            cycle = explorer.find_cycle(Graph(succ), helpers.bits(nodes), rel)
            assert (cycle is None) == (not cyclic)
            if cycle is not None:
                assert_cycle_of(succ, nodes, rel, cycle)
    assert peels  # the linear finisher ran on some survivors


def closed_under(succ, seeds) -> list:
    """The nodes the seeds reach, themselves included: a set no edge
    leaves."""
    seen, todo = set(seeds), list(seeds)
    while todo:
        for t in succ[todo.pop()]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return sorted(seen)


def assert_condensation_matches_the_oracle(succ, nodes=None, ts=None,
                                           id_of=int):
    """condense(ts, nodes) against helpers.brute_sccs restricted to the
    nodes, a set no edge leaves (every node when None): its components,
    bottoms, bitsets and trivial components, the order of `components`
    (the bottoms, then the rest, each by least state id), and the DAG that
    condensation_to_dot draws. ts defaults to Graph(succ); id_of reads a
    state id off the sample state of a DOT label."""
    ts = Graph(succ) if ts is None else ts
    cond = explorer.condense(ts, None if nodes is None
                             else helpers.bits(nodes))
    inside = set(range(len(succ)) if nodes is None else nodes)
    comps = [c for c in helpers.brute_sccs(succ) if c <= inside]
    bottoms = [c for c in helpers.brute_bottom_sccs(succ) if c <= inside]
    by_least = sorted(map(sorted, bottoms)) + sorted(
        sorted(c) for c in comps if c not in bottoms)
    assert cond.components == list(map(tuple, by_least))
    assert cond.count == len(comps)
    assert cond.bottoms == tuple(range(len(bottoms)))
    assert [cond.bits(c) for c in cond.bottoms] == \
        [helpers.bits(c) for c in by_least[:len(bottoms)]]
    # the trivial components are one state each, without a self-loop
    trivial = [min(c) for c in comps if len(c) == 1
               and min(c) not in succ[min(c)]]
    assert cond.singles == helpers.bits(trivial)
    assert sorted(cond.cores) == sorted(
        helpers.bits(c) for c in comps if min(c) not in trivial)
    assert_dot_matches_the_oracle(ts, cond, succ, comps, bottoms, id_of)
    return cond


def assert_dot_matches_the_oracle(ts, cond, succ, comps, bottoms, id_of):
    """condensation_to_dot draws one node per component, labeled with its
    size and least state, a double border exactly on the bottoms, and one
    edge per pair of components that some edge joins, each named here by
    its least state."""
    least = {v: min(c) for c in comps for v in c}
    name, nodes, edges, doubled = {}, set(), [], set()
    for line in text.condensation_to_dot(ts, cond).splitlines()[3:-1]:
        node = re.fullmatch(r'  c(\d+) \[label="(\d+) states?\\n(.*)"'
                            r'(, peripheries=2)?\];', line)
        if node:
            name[node[1]] = id_of(node[3])
            nodes.add((name[node[1]], int(node[2])))
            if node[4]:
                doubled.add(name[node[1]])
        else:
            edges.append(re.fullmatch(r"  c(\d+) -> c(\d+);", line).groups())
    assert len(name) == len(comps)
    assert nodes == {(min(c), len(c)) for c in comps}
    assert doubled == {min(c) for c in bottoms}
    assert sorted((name[c], name[t]) for c, t in edges) == sorted(
        {(least[v], least[t]) for v in least for t in succ[v]
         if least[t] != least[v]})


def test_condensation_agrees_with_the_oracle_on_random_graphs():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 14)
        # self-loops and parallel edges included, sparse to dense
        succ = [sorted(rng.choices(range(n), k=rng.randint(0, 3)))
                for _ in range(n)]
        assert_condensation_matches_the_oracle(succ)
        # on the nodes that a few seeds reach
        assert_condensation_matches_the_oracle(succ, closed_under(
            succ, rng.sample(range(n), rng.randint(0, min(n, 3)))))
    # many disjoint 2-cycles, alone and linked one way into a chain
    pairs = [[v ^ 1] for v in range(1000)]
    assert_condensation_matches_the_oracle(pairs)
    assert explorer.find_cycle(Graph(pairs), (1 << 1000) - 1).states == (0, 1)
    assert_condensation_matches_the_oracle(
        [out + [v + 1] if v % 2 and v + 1 < 1000 else out
         for v, out in enumerate(pairs)])


def test_condensation_agrees_with_the_oracle_on_self_loops_and_long_runs():
    # forward-backward search follows each delta's runs by doubling; a
    # self-loop's run never ends, so self-loops sit beside long runs of
    # one delta here: a looped cycle, and random runs closed by back edges
    assert_condensation_matches_the_oracle(
        [[v, (v + 1) % 200] for v in range(200)])
    rng = random.Random(19)
    for _ in range(12):
        n = rng.randint(40, 160)
        succ = [[v] if rng.random() < 0.5 else [] for v in range(n)]
        for d in rng.sample([1, 2, 3, -1, -4], 3):
            start = rng.randrange(n)
            for v in range(start, start + rng.randint(n // 4, n)):
                if 0 <= v < n and 0 <= v + d < n:
                    succ[v].append(v + d)
        for _ in range(rng.randint(0, 3)):
            succ[rng.randrange(n)].append(rng.randrange(n))
        succ = [sorted(out) for out in succ]
        assert_condensation_matches_the_oracle(succ)
        assert_condensation_matches_the_oracle(
            succ, closed_under(succ, [rng.randrange(n)]))


@pytest.mark.parametrize("back_edge", [False, True])
def test_long_path_outlasts_the_round_budget(peels, back_edge):
    # 0 -> 1 -> ... -> n-1, optionally closed by n-1 -> n/2: either way the
    # first half peels one node a round, far past ceil(sqrt(n)) rounds
    n = 100_000
    rel = {1: (1 << n - 1) - 1}
    if back_edge:
        rel[n // 2 - (n - 1)] = 1 << n - 1
    assert bool(explorer.trim((1 << n) - 1, rel)) == back_edge
    assert peels == [1]
    assert bool(explorer.trim(helpers.bits(range(n // 2, n)),
                              rel)) == back_edge
    # the witness walks the whole closed half, one edge per node
    succ = [[v + 1] for v in range(n - 1)] + [[n // 2] if back_edge else []]
    cycle = explorer.find_cycle(Graph(succ), (1 << n) - 1)
    assert (cycle and cycle.states) == (tuple(range(n // 2, n)) if back_edge
                                        else None)
    # n trivial components on the path, the last a terminal bottom; the
    # closed path's second half is one component, its only bottom
    cond = explorer.condense(Graph(succ))
    assert len(cond.components) == (n // 2 + 1 if back_edge else n)
    assert cond.bottoms == (0,)
    assert cond.components[0] == (tuple(range(n // 2, n)) if back_edge
                                  else (n - 1,))
    assert cond.singles == (1 << n // 2 if back_edge else 1 << n) - 1


def test_a_cycle_question_reads_only_the_edges_of_its_nodes():
    # the stutter question of stabilizing-pif10 asks about the 64 states
    # of its invariant; the edge filter must see no other source. The
    # invariant is closed, its complement is not: neither filter may see an
    # edge that leaves its set
    bundle = protocols.make_pif(10)
    ts = explorer.build_transition_system(bundle.program)
    inv = bundle.invariants[bundle.default_invariant]
    inside = [i for i, s in enumerate(ts.states) if inv(s)]
    assert len(inside) == 64
    outside = sorted(set(range(ts.size)) - set(inside))
    for nodes in (inside, outside):
        seen = []

        def stutter(s, t):
            seen.append((s, t))
            return s == t

        rel = explorer.edges_where(ts, helpers.bits(nodes), stutter)
        assert seen and {v for e in seen for v in e} <= set(nodes)
        assert explorer.find_cycle(ts, helpers.bits(nodes), rel) is None


def test_cycles_outside_predicate():
    pif = protocols.make_pif(4).program
    ts = explorer.build_transition_system(pif)
    # nothing cycles outside the wave states
    outside = helpers.bits(i for i, s in enumerate(ts.states)
                           if not specs.pif_wave(s))
    assert explorer.find_cycle(ts, outside) is None
    # with no states excluded, the wave cycle itself is found
    cyc = explorer.find_cycle(ts, ts.full)
    assert cyc is not None and len(cyc.states) >= 2


def test_run_round_robin_wave_trace():
    pif = protocols.make_pif(4).program
    start = pif.signature.parse_state("st.p1=i st.p2=i st.p3=i st.p4=i")
    comp = simulation.run(pif, start, steps=12, policy="round-robin")
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


SIMULATED = {
    "cm": lambda: protocols.make_cm((2, 1, 3, 4)).program,
    "la": lambda: protocols.make_alternator(6).program,
    "pif": lambda: protocols.make_pif(5).program,
    "abp": lambda: protocols.make_abp().program,
    "cm.gcp": lambda: sample_program("cm.gcp", 4),
    "alternator.gcp": lambda: sample_program("alternator.gcp", 5),
    "pif.gcp": lambda: sample_program("pif.gcp", 4),
    "abp.gcp": lambda: sample_program("abp.gcp"),
}


def sample_program(name, n=None):
    return parse_protocol(protocols.sample_source(name), n=n).unwrap()


@pytest.mark.parametrize("name", sorted(SIMULATED))
def test_run_steps_like_the_interpreter(monkeypatch, name):
    # every start form of `simulate` that applies (a seeded random state,
    # all-idle, all-false), both policies, seeds 0-4, zero and 40 steps;
    # the tables alone must give the interpreter's run
    program = SIMULATED[name]()
    cases = []
    for text in ("random", "all-idle", "all-false"):
        for seed in range(5):
            try:
                start = simulation.start_state(program, text, seed)
            except kernel.ModelError:
                continue
            for policy in kernel.POLICIES:
                cases += [(start, 0, seed, policy), (start, 40, seed, policy)]
    expected = [helpers.reference_run(program, *case) for case in cases]
    assert any(labels for _, labels, _, _ in expected)

    def refuse(*args):
        raise AssertionError("the interpreter was called")

    monkeypatch.setattr(kernel, "enabled_actions", refuse)
    monkeypatch.setattr(kernel, "apply", refuse)
    for case, want in zip(cases, expected):
        comp = simulation.run(program, *case)
        assert (comp.states, comp.labels, comp.lasso_start,
                comp.hit_terminal) == want, case


def moves_reference_run(program, start, steps: int, seed: int,
                        policy: str) -> tuple:
    """(state ids, labels, lasso_start, hit_terminal) of simulation.run's
    daemon, each step's moves read afresh off every window code of the
    state id (explorer._moves)."""
    rng, order, pointer = random.Random(seed), program.action_order, 0
    ids, labels, seen = [start.index], [], {start.index: 0}
    while len(labels) < steps:
        moves = explorer._moves(program, ids[-1])
        if not moves:
            return ids, labels, None, True
        if policy == "uniform-random":
            action, target = rng.choice(moves)
        else:
            action, target = min(moves,
                                 key=lambda m: (m[0] - pointer) % len(order))
            pointer = (action + 1) % len(order)
        ids.append(target)
        labels.append(order[action])
        if target in seen:
            return ids, labels, seen[target], False
        seen[target] = len(ids) - 1
    return ids, labels, None, False


#: Tokens hop to a free neighbor: each move writes a neighbor's slot.
RELAY = """
protocol relay(N) {
  process first in 1..1 {
    var t: bool;
    pass: self.t = true && right.t = false -> self.t := false; right.t := true;
  }
  process middle in 2..N-1 {
    var t: bool;
    pass: self.t = true && right.t = false -> self.t := false; right.t := true;
    back: self.t = true && left.t = false -> self.t := false; left.t := true;
  }
  process last in N..N {
    var t: bool;
    back: self.t = true && left.t = false -> self.t := false; left.t := true;
  }
}
"""


@pytest.mark.parametrize("make", [
    lambda: protocols.make_alternator(40).program,
    lambda: protocols.make_pif(40).program,
    lambda: protocols.make_cm(range(30, 0, -1)).program,
    lambda: protocols.make_abp().program,
    lambda: parse_protocol(RELAY, n=40).unwrap()],
    ids=["la", "pif", "cm", "abp", "relay"])
def test_run_keeps_the_window_codes_a_fresh_read_gives(make):
    # run recomputes only the codes of the windows a move wrote into; on
    # long chains every step must still see the moves of every position
    program = make()
    for seed in range(5):
        start = simulation.start_state(program, "random", seed)
        for policy in kernel.POLICIES:
            comp = simulation.run(program, start, 200, seed, policy)
            assert ([s.index for s in comp.states], list(comp.labels),
                    comp.lasso_start, comp.hit_terminal) == \
                moves_reference_run(program, start, 200, seed, policy)


def test_run_decodes_no_state_id(monkeypatch):
    # run builds each state from the values it steps on: decoding a state
    # id costs one division of the whole id per slot
    program = protocols.make_pif(200).program
    start = simulation.start_state(program, "random", 0)
    want = [simulation.run(program, start, 50, 0, policy)
            for policy in kernel.POLICIES]

    def refuse(*args):
        raise AssertionError("a state id was decoded")

    monkeypatch.setattr(Signature, "state_at", refuse)
    for policy, comp in zip(kernel.POLICIES, want):
        assert simulation.run(program, start, 50, 0, policy) == comp
        assert len(comp.states) > 1


def test_run_is_deterministic_per_seed():
    abp = protocols.make_abp().program
    start = abp.signature.state_at(0)
    a = simulation.run(abp, start, steps=30, seed=7)
    b = simulation.run(abp, start, steps=30, seed=7)
    assert a.states == b.states and a.labels == b.labels
    # a program with real branching separates seeds
    cm = protocols.make_cm((2, 1, 3, 4)).program
    runs = {simulation.run(cm, cm.signature.state_at(0), steps=12,
                         seed=seed).labels for seed in range(6)}
    assert len(runs) > 1


def test_run_rejects_unknown_policy():
    abp = protocols.make_abp().program
    with pytest.raises(Exception):
        simulation.run(abp, abp.signature.state_at(0), steps=5, policy="nope")


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
    comp = simulation.run(prog, prog.signature.parse_state("x=false"), steps=10)
    assert comp.hit_terminal and len(comp.states) == 2
    assert comp.maximal


def test_dot_output_shapes():
    cm2 = protocols.make_cm((2, 1)).program
    ts = explorer.build_transition_system(cm2)
    dot = text.to_dot(ts, name="cm2")
    assert dot.startswith("digraph cm2 {")
    assert dot.count(" -> ") == 8
    assert dot.count("label=") == 4 + 8
    colored = text.to_dot(
        ts, color_pred=lambda s: s.value(1, "access") == "true")
    assert colored.count("fillcolor") == 2
    cond_dot = text.condensation_to_dot(ts, explorer.condense(ts))
    assert "peripheries=2" in cond_dot
