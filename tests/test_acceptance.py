"""The acceptance gate: nine end-to-end checks, each exact.

Every check here verifies a headline property of the workbench against
independent evidence: hand-built reference tables, brute-force enumerators,
or verbatim worked examples. The conftest hook prints one PASS/FAIL line
per check after the run.
"""
import json
import random

import acceptance_report
import helpers
from helpers import map_state

from stabiliq import cli, explorer, kernel, protocols
from stabiliq.merge import (check_ideal_possibility, check_merge_symmetry,
                            merge_closure)
from stabiliq.specs import (abp_legitimate, check_convergence,
                            check_ideal_stabilizing, pif_wave, udp_spec)

R = acceptance_report


def in_bits(state):
    return tuple(state.value(p, "in") == "true" for p in state.sig.positions)


def no_adjacent(bits):
    return all(not (a and b) for a, b in zip(bits, bits[1:]))


R.register("test_conflict_manager_grants_stay_exclusive",
           "conflict manager: mapped grants stay exclusive")


def test_conflict_manager_grants_stay_exclusive():
    for ids in ((2, 1, 3, 4), (2, 1, 3, 5, 4)):
        bundle = protocols.make_cm(ids)
        program = bundle.program
        assert program.universe_size == 2 ** len(ids)
        # exhaustive: no universe state maps to adjacent grants
        for s in program.signature.states():
            assert no_adjacent(in_bits(map_state(bundle.mapping, program, s)))
        # every bottom component moves some access bit
        ts = explorer.build_transition_system(program)
        cond = explorer.condense(ts)
        for c in cond.bottoms:
            comp = cond.components[c]
            assert any(ts.state(i).values != ts.state(t).values
                       for i in comp for _, _, t in ts.edges(i))
        # divergence findings are reported under the documented policy
        verdict = check_ideal_stabilizing(program, bundle.mapping,
                                          udp_spec(), ts=ts)
        assert verdict.holds
        assert verdict.notes[0] == "stutter policy: divergence-allowed"
        assert any(n.startswith("stutter divergence: a computation may "
                                "cycle") for n in verdict.notes)
    R.note("test_conflict_manager_grants_stay_exclusive",
           "exhaustive at 16 and 32 states")


R.register("test_alternator_neighborhoods_enable_at_most_one",
           "alternator: neighborhoods enable at most one process")


def test_alternator_neighborhoods_enable_at_most_one():
    starving = []
    for n in (3, 4, 5):
        bundle = protocols.make_alternator(n)
        program = bundle.program
        bound = bundle.mapping.bind(program)
        for s in program.signature.states():
            enabled = sorted(p for p, _ in kernel.enabled_actions(program, s))
            assert all(b - a > 1 for a, b in zip(enabled, enabled[1:])), \
                s.text()
            bits = in_bits(bound(s))
            assert no_adjacent(bits)
            assert [p for p, b in enumerate(bits, start=1) if b] == enabled
        # fairness analysis: does every bottom-component cycle toggle every
        # grant? Reported, not gated: the unfair daemon may disagree.
        ts = explorer.build_transition_system(program)
        cond = explorer.condense(ts)
        mapped = [bound(s) for s in ts.states]
        for c in cond.bottoms:
            comp = helpers.bits(cond.components[c])
            for j in range(n):
                cycle = explorer.find_cycle(ts, comp, explorer.edges_where(
                    ts, comp, lambda s, t:
                    mapped[s].values[j] == mapped[t].values[j]))
                if cycle is not None:
                    starving.append((n, j + 1))
    if starving:
        R.note("test_alternator_neighborhoods_enable_at_most_one",
               "fairness flagged: constant-grant cycles at %s"
               % ", ".join("N=%d p%d" % pair for pair in starving[:4]))
    else:
        R.note("test_alternator_neighborhoods_enable_at_most_one",
               "fairness analysis: every bottom cycle toggles every grant")


R.register("test_wave_chain_stabilizes_to_the_strict_cycle",
           "wave chain: closed, convergent, bottom equals wave cycle")


def test_wave_chain_stabilizes_to_the_strict_cycle(tmp_path):
    wave_sizes = {}
    for n in (3, 4, 5):
        program = protocols.make_pif(n).program
        ts = explorer.build_transition_system(program)
        wave = [pif_wave(s) for s in ts.states]
        # (a) closed: zero escaping edges, counted directly
        escapes = sum(1 for i in range(ts.size) if wave[i]
                      for _, _, t in ts.edges(i) if not wave[t])
        assert escapes == 0
        # (b) convergent: no terminal, no cycle outside the family
        assert ts.terminal == 0
        assert explorer.find_cycle(
            ts, helpers.bits(i for i in range(ts.size) if not wave[i])) is None
        assert check_convergence(program, pif_wave, ts=ts).holds
        # (c) the unique bottom component is exactly the wave family
        cond = explorer.condense(ts)
        assert len(cond.bottoms) == 1
        comp = set(cond.components[cond.bottoms[0]])
        assert comp == {i for i in range(ts.size) if wave[i]}
        wave_sizes[n] = len(comp)
    assert wave_sizes == {3: 8, 4: 13, 5: 19}
    # (d) the relaxed-coverage check runs and its gap reaches the report
    report = tmp_path / "coverage.json"
    code = cli.main(["verify", "--check", "pif-coverage", "--protocol",
                     "pif", "--n", "4", "--json", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    (verdict,) = payload["verdicts"]
    assert verdict["stats"] == {"states": 36, "covered": 31, "uncovered": 5}
    assert any("st.p1=rq st.p2=rp st.p3=i st.p4=rp" in note
               for note in verdict["notes"])
    R.note("test_wave_chain_stabilizes_to_the_strict_cycle",
           "wave cycles of 8, 13, 19 states; coverage gap reported")


R.register("test_handshake_reaches_one_legitimate_loop",
           "handshake: 8-state closed invariant, unique 4-state loop")


def abp_reference_loop(start):
    """Follow the single hand-restated move from `start` until a state
    repeats; return the cycle that closes, as a set of value tuples."""
    path = [start]
    while True:
        (move,) = helpers.abp_reference_moves(path[-1])
        successor = move[2]
        if successor in path:
            return frozenset(path[path.index(successor):])
        path.append(successor)


def test_handshake_reaches_one_legitimate_loop():
    bundle = protocols.make_abp()
    program = bundle.program
    ts = explorer.build_transition_system(program)
    assert ts.size == 36
    cond = explorer.condense(ts)
    # exactly one bottom component
    assert len(cond.bottoms) == 1
    comp = sorted(cond.components[cond.bottoms[0]])
    in_comp = set(comp)
    # reached on every maximal path: no terminals, no cycles elsewhere
    assert ts.terminal == 0
    assert explorer.find_cycle(
        ts, helpers.bits(i for i in range(ts.size)
                         if i not in in_comp)) is None
    # every loop state carries exactly one in-flight message whose bit
    # matches the sender's sequence number, checked by direct inspection
    for i in comp:
        s = ts.state(i)
        data = s.value(1, "chpq")
        ack = s.value(2, "chqp")
        flying = [m for m in (data, ack) if m != "empty"]
        assert len(flying) == 1, s.text()
        assert flying[0][-1] == s.value(1, "ns"), s.text()
        assert abp_legitimate(s)
    # the eight bit-matching one-message states form a closed invariant
    values = [helpers.state_values(s) for s in ts.states]
    legit = {i for i in range(ts.size) if abp_legitimate(ts.state(i))}
    assert len(legit) == 8
    for i in legit:
        assert all(t in legit for _, _, t in ts.edges(i)), values[i]
    # the loop inside it, derived from the hand-restated action table: a
    # legitimate state enables exactly one move, and delivery writes nr, so
    # every legitimate start ends in the same four-state cycle
    loops = {abp_reference_loop(values[i]) for i in legit}
    assert loops == {frozenset({("0", "d0", "1", "empty"),
                                ("0", "empty", "0", "a0"),
                                ("1", "d1", "0", "empty"),
                                ("1", "empty", "1", "a1")})}
    (loop,) = loops
    assert {values[i] for i in comp} == loop
    # the other four legitimate states sit just above the loop: no edge
    # from the loop enters them, and each reaches the loop within two moves
    off_loop = legit - in_comp
    assert len(off_loop) == 4
    assert not [t for i in comp for _, _, t in ts.edges(i) if t in off_loop]
    for i in off_loop:
        frontier = {i}
        for _ in range(2):
            frontier = {t for j in frontier for _, _, t in ts.edges(j)}
        assert frontier <= in_comp, values[i]
    # the off-loop ack states (ns=b, a_b, nr=not b) have no legitimate
    # predecessor at all
    off_acks = {i for i in off_loop if values[i][3] != "empty"}
    assert len(off_acks) == 2
    assert not [t for i in legit for _, _, t in ts.edges(i) if t in off_acks]
    R.note("test_handshake_reaches_one_legitimate_loop",
           "loop of %d inside %d legitimate states, rest join within 2 moves"
           % (len(comp), len(legit)))


R.register("test_merged_contenders_force_two_leaders",
           "leader election: merged contenders force two leaders")


def test_merged_contenders_force_two_leaders():
    for n in (4, 5):
        fx = protocols.make_le(n)
        closure = merge_closure(frozenset(fx.forced), fx.signature)
        merged = [s for s in closure if s in fx.disallowed]
        assert merged, n
        assert any(sum(1 for p in fx.signature.positions
                       if s.value(p, "leader") == "true") >= 2
                   for s in merged)
        result = check_ideal_possibility(fx.allowed, fx.disallowed,
                                         fx.signature)
        assert not result.possible
        assert result.witness is not None
        assert result.witness in fx.disallowed
    R.note("test_merged_contenders_force_two_leaders",
           "impossible at N=4 and N=5 with concrete witnesses")


R.register("test_merge_engine_agrees_with_brute_force",
           "merge engine: brute-force agreement and closure laws")


def test_merge_engine_agrees_with_brute_force():
    rng = random.Random(1789)
    for _ in range(200):
        sig, states = helpers.random_spec_instance(rng, max_slots=12)
        assert merge_closure(states, sig) == \
            helpers.brute_merge_closure(sig, states)
    rng = random.Random(1790)
    for _ in range(1000):
        sig, states = helpers.random_spec_instance(rng, max_slots=12)
        closure = merge_closure(states, sig)
        assert states <= closure
        assert merge_closure(closure, sig) == closure
        bigger = frozenset(
            list(states) + [sig.state_at(rng.randrange(sig.size))])
        assert closure <= merge_closure(bigger, sig)
    R.note("test_merge_engine_agrees_with_brute_force",
           "200 brute-force agreements, laws on 1000 instances")


R.register("test_convergence_checker_matches_path_enumeration",
           "convergence checker: path-enumeration oracle agreement")


def test_convergence_checker_matches_path_enumeration():
    programs = [
        protocols.make_cm((2, 1, 3, 4)).program,
        protocols.make_cm((2, 1, 3, 5, 4)).program,
        protocols.make_alternator(3).program,
        protocols.make_alternator(4).program,
        protocols.make_alternator(5).program,
        protocols.make_pif(3).program,
        protocols.make_pif(4).program,
        protocols.make_pif(5).program,
        protocols.make_abp().program,
    ]
    bundles = {
        "cm": protocols.make_cm((2, 1, 3, 4)),
        "pif": protocols.make_pif(4),
        "abp": protocols.make_abp(),
    }
    rng = random.Random(505)
    checked = 0
    for program in programs:
        assert program.universe_size <= 300
        preds = [lambda s: True, lambda s: False]
        bundle = bundles.get(program.name)
        if bundle is not None and bundle.program.n == program.n:
            preds.extend(bundle.invariants.values())
        for _ in range(2):
            chosen = frozenset(rng.randrange(program.universe_size)
                               for _ in range(program.universe_size // 3))
            preds.append(lambda s, chosen=chosen: s.index in chosen)
        for pred in preds:
            verdict = check_convergence(program, pred)
            assert verdict.holds == helpers.oracle_converges(program, pred), \
                (program.name, program.n)
            checked += 1
    R.note("test_convergence_checker_matches_path_enumeration",
           "%d program/predicate pairs agreed" % checked)


R.register("test_merge_symmetry_of_the_conflict_manager_mapping",
           "merge symmetry: conflict manager mapping and end grants")


def test_merge_symmetry_of_the_conflict_manager_mapping():
    bundle = protocols.make_cm((2, 1, 3, 4))
    assert check_merge_symmetry(bundle.program, bundle.mapping) is None
    # the worked end-grant example, verbatim
    sig = bundle.mapping.bind(bundle.program).signature
    s1 = sig.parse_state("in.p1=true in.p2=false in.p3=false in.p4=false")
    s2 = sig.parse_state("in.p1=false in.p2=false in.p3=false in.p4=true")
    s3 = sig.parse_state("in.p1=true in.p2=false in.p3=false in.p4=true")
    assert s3 in merge_closure(frozenset([s1, s2]), sig)
    preimage = bundle.program.signature.parse_state(
        "access.p1=true access.p2=false access.p3=false access.p4=true")
    assert map_state(bundle.mapping, bundle.program, preimage) == s3
    R.note("test_merge_symmetry_of_the_conflict_manager_mapping",
           "no violation; end grants merge to the both-ends state")


R.register("test_samples_round_trip_onto_the_builtins",
           "samples: render round trip keeps the transition system")


def test_samples_round_trip_onto_the_builtins():
    from stabiliq.dsl import parse_protocol
    from stabiliq.text import render
    pairs = [
        ("cm.gcp", 4, protocols.make_cm((1, 2, 3, 4)).program),
        ("alternator.gcp", 4, protocols.make_alternator(4).program),
        ("pif.gcp", 4, protocols.make_pif(4).program),
        ("abp.gcp", None, protocols.make_abp().program),
    ]
    for filename, n, builtin in pairs:
        source = protocols.sample_source(filename)
        parsed = parse_protocol(source, n=n).unwrap()
        again = parse_protocol(render(builtin), n=n).unwrap()
        assert again == parsed, filename
        ts_a = explorer.build_transition_system(parsed)
        ts_b = explorer.build_transition_system(again)
        assert ts_a.size == ts_b.size
        assert [sorted(ts_a.edges(i)) for i in range(ts_a.size)] == \
            [sorted(ts_b.edges(i)) for i in range(ts_b.size)], filename
    R.note("test_samples_round_trip_onto_the_builtins",
           "four samples rebuilt from their rendering at N=4")
