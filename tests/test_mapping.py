"""State mappings, merge closure, merge symmetry, possibility analysis."""
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import format_spec_states, map_state
from stabiliq import explorer, protocols
from stabiliq.dsl import parse_protocol
from stabiliq.kernel import (BOOL, ChainAutomaton, ChainPredicate, Domain,
                             ModelError, Signature, UniverseCapError)
from stabiliq.mapping import (BoundMapping, EnabledOutputMapping,
                              HighestIdMapping, IdenticalMapping, MappingError,
                              ProjectionMapping)
from stabiliq.merge import (accepted_states, check_ideal_possibility,
                            check_merge_symmetry, merge_closure,
                            read_spec_state_sets)

KNOWN_ANSWERS = Path(__file__).resolve().parents[1] / "bench" / \
    "known_answers.json"


def cm_state(bundle, bits):
    sig = bundle.program.signature
    return sig.state({(p, "access"): "true" if b else "false"
                      for p, b in enumerate(bits, start=1)})


def in_bits(state):
    return tuple(state.value(p, "in") == "true"
                 for p in state.sig.positions)


def _enabled_outputs(values):
    enabled = helpers.la_reference_enabled(values)
    return {(p, "in"): str(p in enabled).lower()
            for p in range(1, len(values) + 1)}


def _highest_id_outputs(values, pids=(2, 1, 3, 4)):
    on = [v == "true" for v in values]
    return {(p + 1, "in"): str(on[p] and not any(
        0 <= q < len(on) and on[q] and pids[q] > pids[p]
        for q in (p - 1, p + 1))).lower() for p in range(len(on))}


# A conflict manager whose processes hold a tri-valued variable before the
# access bit, with ids out of order: the highest-id table reads access from
# inside a window of six slots, not one
CM_TRI = """
protocol cmt(N) {
  domain tri = { lo, mid, hi };
  ids = [2, 1, 3, 4];
  process p in 1..N {
    var t: tri;
    var access: bool;
    flip: true -> self.access := !self.access;
    turn: self.t = lo -> self.t := mid;
  }
}
"""


def _cm_tri():
    return parse_protocol(CM_TRI, n=4).unwrap()


IDS_CASES = {
    "highest-cm-tri": (_cm_tri, HighestIdMapping(),
                       lambda v: _highest_id_outputs(v[1::2])),
    "enabled-la5": (lambda: protocols.make_alternator(5).program,
                    EnabledOutputMapping(), _enabled_outputs),
    "highest-cm2134": (lambda: protocols.make_cm((2, 1, 3, 4)).program,
                       HighestIdMapping(), _highest_id_outputs),
    "projection-abp": (lambda: protocols.make_abp().program,
                       ProjectionMapping(("ns", "nr")),
                       lambda v: {(1, "ns"): v[0], (2, "nr"): v[2]}),
    "identity-pif4": (lambda: protocols.make_pif(4).program,
                      IdenticalMapping(),
                      lambda v: {(p, "st"): x
                                 for p, x in enumerate(v, start=1)}),
}


@pytest.mark.parametrize("name", sorted(IDS_CASES))
def test_bound_ids_match_an_oracle_on_every_state(name):
    build, mapping, oracle = IDS_CASES[name]
    program = build()
    bound = mapping.bind(program)
    ids = bound.ids(explorer.build_transition_system(program))
    states = list(program.signature.states())
    assert len(ids) == len(states)
    for i, s in enumerate(states):
        want = bound.signature.state(oracle(helpers.state_values(s)))
        assert ids[i] == want.index, s.text()
        assert bound(s) == want, s.text()


def test_the_image_skips_one_value_slots_and_reads_whole_tables():
    # a slot of one value adds no digit to a state id but keeps its own
    # slot range, and a table over every slot reads the whole state
    one = Domain("one", ("x",))
    sig = Signature([(1, "a", BOOL), (1, "u", one), (2, "u", one),
                     (2, "b", Domain("d3", ("0", "1", "2"))), (3, "u", one)])
    for keep in ((0,), (1,), (0, 3), (1, 2, 4), tuple(range(5))):
        image = Signature(sig.slots[i] for i in keep)
        copy = BoundMapping(image, digits=[
            (i, i + 1, range(sig.radices[i])) for i in keep], source=sig)
        whole = BoundMapping(image, digits=[
            (0, len(sig.slots), [s.values[i] for s in sig.states()])
            for i in keep], source=sig)
        for s in sig.states():
            want = tuple(s.values[i] for i in keep)
            assert copy(s).values == want, (keep, s)
            assert whole(s).values == want, (keep, s)
            assert copy.id_of(s.index) == whole.id_of(s.index) == \
                copy(s).index, (keep, s)


def test_digit_tables_without_their_source_are_refused():
    # a table's slot range means nothing without the signature it reads,
    # so a binding given tables and no source is refused, not read off
    # the image signature's place values
    sig = Signature([(1, "a", BOOL), (2, "b", BOOL)])
    image = Signature([(1, "a", BOOL)])
    with pytest.raises(MappingError, match="source"):
        BoundMapping(image, digits=[(0, 1, range(2))])
    assert BoundMapping(image, digits=[(0, 1, range(2))],
                        source=sig).source is sig


SLOT_BITS_CASES = {
    **{"cm%s" % "".join(map(str, ids)): (
        lambda ids=ids: protocols.make_cm(ids).program, HighestIdMapping())
       for ids in ((1, 2, 3), (2, 1, 3, 4), (1, 2, 3, 4, 5, 6))},
    **{"la%d" % n: (lambda n=n: protocols.make_alternator(n).program,
                    EnabledOutputMapping()) for n in range(3, 13)},
    **{"pif%d" % n: (lambda n=n: protocols.make_pif(n).program,
                     IdenticalMapping()) for n in range(3, 9)},
    "abp": (lambda: protocols.make_abp().program, IdenticalMapping()),
    "projection-abp": (lambda: protocols.make_abp().program,
                       ProjectionMapping(("ns", "chqp"))),
    "cm-tri": (_cm_tri, HighestIdMapping()),
}


@pytest.mark.parametrize("name", sorted(SLOT_BITS_CASES))
def test_slot_bits_are_the_images_of_every_state(name):
    # per slot and value, the program states whose image shows that value
    # there, built from periodic patterns without mapping a state; the
    # same mapping written as one table per slot over every program slot
    # builds the same sets
    build, mapping = SLOT_BITS_CASES[name]
    program = build()
    bound = mapping.bind(program)
    size = program.signature.size
    images = [bound.signature.state_at(bound.id_of(i)).values
              for i in range(size)]
    want = [[helpers.bits(i for i, v in enumerate(images) if v[k] == a)
             for a in range(radix)]
            for k, radix in enumerate(bound.signature.radices)]
    assert bound.slot_bits() == want
    bare = BoundMapping(bound.signature, [
        (0, len(program.signature.slots), [v[k] for v in images])
        for k in range(len(want))], source=program.signature)
    assert bare.slot_bits() == want
    assert list(map(bare.id_of, range(size))) == \
        list(map(bound.id_of, range(size)))


def test_highest_id_mapping_worked_example():
    # identifiers 2,1,3,4: with p1 and p2 both accessing, p1 wins (2 > 1);
    # p3 loses to p4 in the same way when both access
    bundle = protocols.make_cm((2, 1, 3, 4))
    prog = bundle.program
    cases = [
        ((True, True, False, False), (True, False, False, False)),
        ((False, False, False, True), (False, False, False, True)),
        ((True, False, False, True), (True, False, False, True)),
        ((True, True, True, True), (True, False, False, True)),
        ((False, False, False, False), (False, False, False, False)),
        ((False, True, True, False), (False, False, True, False)),
    ]
    for access, expected in cases:
        mapped = map_state(bundle.mapping, prog, cm_state(bundle, access))
        assert in_bits(mapped) == expected, access


def test_highest_id_mapping_never_yields_adjacent_access():
    bundle = protocols.make_cm((2, 1, 3, 4))
    for s in bundle.program.signature.states():
        bits = in_bits(map_state(bundle.mapping, bundle.program, s))
        assert not any(a and b for a, b in zip(bits, bits[1:]))


def test_enabled_output_mapping_on_the_alternator():
    bundle = protocols.make_alternator(4)
    prog = bundle.program
    sig = prog.signature

    def x_state(bits):
        return sig.state({(p, "x"): "true" if b else "false"
                          for p, b in enumerate(bits, start=1)})

    # x = <F,F,F,F>: only the first process sees equality on its right
    mapped = map_state(bundle.mapping, prog, x_state((False,) * 4))
    assert in_bits(mapped) == (True, False, False, False)
    # x = <T,T,F,F>: processes 1 and 3 are enabled
    mapped = map_state(bundle.mapping, prog, x_state((True, True, False, False)))
    assert in_bits(mapped) == (True, False, True, False)
    # agreement with the hand-written enabling table everywhere
    for s in sig.states():
        want = helpers.la_reference_enabled(helpers.state_values(s))
        got = [p for p, b in enumerate(in_bits(map_state(
            bundle.mapping, prog, s)), start=1) if b]
        assert got == want, s.text()


def test_identity_and_projection_mappings():
    abp = protocols.make_abp()
    s = abp.program.signature.parse_state("ns=1 nr=0 chpq=d1 chqp=empty")
    assert map_state(IdenticalMapping(), abp.program, s).text() == s.text()
    proj = ProjectionMapping(("ns", "nr"))
    assert map_state(proj, abp.program, s).text() == "ns=1 nr=0"
    with pytest.raises(MappingError):
        map_state(ProjectionMapping(("nosuch",)), abp.program, s)
    # identity demands a fully external program
    cm = protocols.make_cm((1, 2))
    with pytest.raises(MappingError):
        map_state(IdenticalMapping(), cm.program, cm.program.signature.state_at(0))


def spec_sig(n):
    return Signature([(p, "in", BOOL) for p in range(1, n + 1)])


def spec_state(sig, bits):
    return sig.state({(p, "in"): "true" if b else "false"
                      for p, b in enumerate(bits, start=1)})


def test_merge_closure_worked_example():
    # the two single-access patterns merge into the both-ends pattern
    sig = spec_sig(4)
    s1 = spec_state(sig, (True, False, False, False))
    s2 = spec_state(sig, (False, False, False, True))
    s3 = spec_state(sig, (True, False, False, True))
    closure = merge_closure(frozenset([s1, s2]), sig)
    assert s1 in closure and s2 in closure
    assert s3 in closure
    # one merge step from the input already holds the whole closure
    assert helpers.brute_merge_round(sig, {s1, s2}) | {s1, s2} == closure
    # each window of the merged state has a donor: left window from s1,
    # right window from s2, middle windows from either all-false flank
    assert spec_state(sig, (False, False, False, False)) in closure


def test_merge_closure_agrees_with_the_brute_enumerator():
    rng = random.Random(20260818)
    for _ in range(120):
        sig, states = helpers.random_spec_instance(rng)
        assert merge_closure(states, sig) == \
            helpers.brute_merge_closure(sig, states)


def test_merge_closure_laws():
    rng = random.Random(7)
    for _ in range(300):
        sig, states = helpers.random_spec_instance(rng, max_slots=8)
        closure = merge_closure(states, sig)
        assert states <= closure  # extensive
        assert merge_closure(closure, sig) == closure  # idempotent
        extra = frozenset(
            list(states) + [sig.state_at(rng.randrange(sig.size))])
        assert closure <= merge_closure(extra, sig)  # monotone


def test_merge_closure_empty_and_singleton():
    sig = spec_sig(3)
    assert merge_closure(frozenset(), sig) == frozenset()
    s = spec_state(sig, (True, False, True))
    assert merge_closure(frozenset([s]), sig) == frozenset([s])
    with pytest.raises(ModelError):
        merge_closure(frozenset())  # no signature to work over


def test_merge_symmetry_of_the_conflict_manager():
    bundle = protocols.make_cm((2, 1, 3, 4))
    assert check_merge_symmetry(bundle.program, bundle.mapping) is None


def test_merge_symmetry_violation_is_reported():
    # the conflict manager never shows two adjacent grants, so a base set
    # containing <F,F,T,T> already violates symmetry at generation zero;
    # the first violation in canonical order is that base state itself
    bundle = protocols.make_cm((2, 1, 3, 4))
    sig = bundle.mapping.bind(bundle.program).signature
    base = frozenset([
        spec_state(sig, (True, False, True, False)),
        spec_state(sig, (False, False, True, True))])
    witness = check_merge_symmetry(bundle.program, bundle.mapping,
                                   spec_states=base)
    assert witness is not None
    assert witness.text() == \
        "in.p1=false in.p2=false in.p3=true in.p4=true"
    # the base also assembles a fresh violation one merge away
    assembled = spec_state(sig, (True, False, True, True))
    assert assembled in merge_closure(base, sig)
    image = {map_state(bundle.mapping, bundle.program, s)
             for s in bundle.program.signature.states()}
    assert assembled not in image


def test_merge_symmetry_honours_the_cap(monkeypatch):
    bundle = protocols.make_cm((2, 1, 3, 4))
    size = bundle.program.signature.size
    monkeypatch.setenv("STABILIQ_STATE_CAP", str(size - 1))
    with pytest.raises(UniverseCapError):
        check_merge_symmetry(bundle.program, bundle.mapping)
    monkeypatch.setenv("STABILIQ_STATE_CAP", str(size))
    assert check_merge_symmetry(bundle.program, bundle.mapping) is None


@st.composite
def spec_instances(draw):
    """A signature of 2- and 3-valued slots over up to four positions, with
    gaps allowed and slots listed in any order, plus a nonempty state set."""
    positions = sorted(draw(st.sets(st.integers(1, 7), min_size=2,
                                    max_size=4)))
    slots = []
    for p in positions:
        for k in range(draw(st.integers(1, 2))):
            if len(slots) < 6:
                values = ("a", "b", "c")[:draw(st.sampled_from((2, 3)))]
                slots.append((p, "v%d" % k, Domain("d", values)))
    sig = Signature(draw(st.permutations(slots)))
    picks = draw(st.lists(st.integers(0, sig.size - 1), min_size=1,
                          max_size=12))
    return sig, frozenset(sig.state_at(i) for i in picks)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spec_instances())
def test_one_step_closure_against_the_brute_enumerator(instance):
    sig, states = instance
    brute = helpers.brute_merge_closure(sig, states)
    assert merge_closure(states, sig) == brute
    assert helpers.brute_merge_round(sig, states) | states == brute
    complement = frozenset(s for s in sig.states() if s not in states)
    result = check_ideal_possibility(states, None, sig)
    assert result == check_ideal_possibility(states, complement, sig)
    least = min(brute - states, key=lambda s: s.values, default=None)
    assert result.witness == least
    assert result.possible == (least is None)
    assert result.closure_size == len(brute)
    # the pruning pass counts the closure before listing it
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("STABILIQ_STATE_CAP", str(len(brute)))
        assert merge_closure(states, sig) == brute
        if len(brute) > 1:
            mp.setenv("STABILIQ_STATE_CAP", str(len(brute) - 1))
            with pytest.raises(UniverseCapError):
                merge_closure(states, sig)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_le_allowed_matches_the_universe_filter(n):
    fx = protocols.make_le(n)
    universe = frozenset(fx.signature.states())
    assert fx.allowed == frozenset(s for s in universe
                                   if helpers.le_allowed(s))
    assert fx.disallowed == universe - fx.allowed


def test_le_impossibility_never_walks_the_universe(monkeypatch):
    def refuse(self):
        raise AssertionError("the specification universe was enumerated")

    monkeypatch.setattr(Signature, "states", refuse)
    fx = protocols.make_le(9)
    result = check_ideal_possibility(fx.allowed, None, fx.signature)
    known = json.loads(KNOWN_ANSWERS.read_text())["impossibility-le9"]
    assert not result.possible
    assert result.closure_size == known["closure_size"] == 6144
    assert result.witness.text() == known["witness"]
    assert result.generation == 1
    assert (result.allowed_size, result.universe_size) == (2816, 262144)


def possibility_fields(result) -> dict:
    return {"possible": result.possible,
            "witness": None if result.witness is None
            else result.witness.text(),
            "generation": result.generation,
            "closure_size": result.closure_size,
            "allowed_size": result.allowed_size,
            "universe_size": result.universe_size}


@pytest.mark.parametrize("n", [4, 9, 64, 256])
def test_le_automaton_matches_the_closed_form(n):
    fx = protocols.make_le(n)
    assert possibility_fields(check_ideal_possibility(fx.automaton)) == \
        helpers.le_closed_form(n)


@pytest.mark.parametrize("n", range(4, 14))
def test_le_automaton_agrees_with_the_explicit_closure(n):
    fx = protocols.make_le(n)
    assert check_ideal_possibility(fx.automaton) == \
        check_ideal_possibility(fx.allowed, None, fx.signature)


@st.composite
def chain_automata(draw, width=1, gaps=False):
    """A random deterministic automaton over 3-6 positions (3-4 when
    width > 1), numbered 1..n or, with gaps, drawn from 1..9; `width`
    slots of 2 or 3 values per position, 2-5 states, dead moves
    included."""
    n = draw(st.integers(3, 6 if width == 1 else 4))
    positions = sorted(draw(st.sets(st.integers(1, 9), min_size=n,
                                    max_size=n))) if gaps else range(1, n + 1)
    sig = Signature((p, "v%d" % k, Domain("d", ("a", "b", "c")[:draw(
        st.sampled_from((2, 3)))])) for p in positions
        for k in range(width))
    states = draw(st.integers(2, 5))
    # a draw of `states` stands for a dead move
    moves = st.integers(0, states).map(lambda t: None if t == states else t)
    table = {(q, p, letter): draw(moves)
             for j, p in enumerate(sig.positions) for q in range(states)
             for letter in itertools.product(*map(
                 range, sig.radices[j * width:(j + 1) * width]))}
    accepting = frozenset(draw(st.sets(st.integers(0, states - 1),
                                       min_size=1)))
    return ChainAutomaton(sig, 0, lambda q, p, a: table[q, p, a], accepting)


def run_automaton(aut, state) -> bool:
    """Whether aut accepts state, read one position at a time: a letter is
    the position's values in slot order."""
    q = aut.initial
    for p in aut.signature.positions:
        letter = tuple(v for (at, _, _), v in zip(aut.signature.slots,
                                                  state.values) if at == p)
        q = None if q is None else aut.step(q, p, letter)
    return q in aut.accepting


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(chain_automata(), chain_automata(width=2),
                 chain_automata(gaps=True)))
def test_automaton_bits_are_the_states_it_accepts(aut):
    # gapped signatures included: each present position is read, and the
    # possibility check, whose letter windows would not be position
    # windows, refuses them
    sig = aut.signature
    states = list(sig.states())
    expected = [run_automaton(aut, s) for s in states]
    assert aut.bits() == explorer.bitset(expected)
    assert aut.bits(BoundMapping(sig).slot_bits()) == aut.bits()
    assert [ChainPredicate(lambda sig: aut)(s) for s in states] == expected
    assert accepted_states(aut) == frozenset(
        itertools.compress(states, expected))
    if sig.positions[-1] - sig.positions[0] >= len(sig.positions):
        with pytest.raises(ModelError):
            check_ideal_possibility(aut)


def test_an_automaton_with_no_accepting_run_has_no_bits():
    sig = Signature((p, name, BOOL) for p in range(1, 5)
                    for name in ("x", "y"))
    # 0 dies on any letter with a true slot, and 1, the accepting state,
    # is never reached
    aut = ChainAutomaton(sig, 0, lambda q, p, a: None if any(a) else 0,
                         frozenset([1]))
    assert aut.bits() == 0
    assert accepted_states(aut) == frozenset()
    assert not any(map(ChainPredicate(lambda sig: aut), sig.states()))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(chain_automata())
def test_automaton_path_agrees_with_the_listed_language(aut):
    sig = aut.signature
    accepted = frozenset(s for s in sig.states() if run_automaton(aut, s))
    assert accepted_states(aut) == accepted
    result = check_ideal_possibility(aut)
    assert result == check_ideal_possibility(accepted, None, sig)
    brute = helpers.brute_merge_closure(sig, accepted)
    least = min(brute - accepted, key=lambda s: s.values, default=None)
    assert (result.witness, result.closure_size, result.allowed_size) == \
        (least, len(brute), len(accepted))


def test_chain_automaton_needs_slots_in_chain_order():
    step = lambda q, p, a: q  # noqa: E731
    shuffled = Signature([(2, "x", BOOL), (1, "x", BOOL)])
    with pytest.raises(ModelError):
        ChainAutomaton(shuffled, 0, step, frozenset([0]))
    # a gap is read past, but the possibility check refuses it
    gapped = ChainAutomaton(Signature([(1, "x", BOOL), (3, "x", BOOL)]), 0,
                            step, frozenset([0]))
    assert gapped.bits() == 0b1111
    with pytest.raises(ModelError):
        check_ideal_possibility(gapped)
    fx = protocols.make_le(4)
    with pytest.raises(ModelError):
        check_ideal_possibility(fx.automaton, fx.disallowed)


def test_check_ideal_possibility_on_leader_election():
    for n in (4, 5):
        fx = protocols.make_le(n)
        result = check_ideal_possibility(fx.allowed, fx.disallowed,
                                         fx.signature)
        assert not result.possible
        assert result.witness in fx.disallowed
        leaders = [p for p in fx.signature.positions
                   if result.witness.value(p, "leader") == "true"]
        assert len(leaders) >= 2
        assert result.generation >= 1
        assert result.closure_size > result.allowed_size
        assert result.universe_size == fx.signature.size


def test_check_ideal_possibility_on_a_closed_set():
    # a complementary pair whose allowed side is merge-closed
    sig = spec_sig(3)
    allowed = frozenset(s for s in sig.states()
                        if s.value(1, "in") == "false")
    disallowed = frozenset(s for s in sig.states()
                           if s.value(1, "in") == "true")
    result = check_ideal_possibility(allowed, disallowed, sig)
    assert result.possible and result.witness is None
    assert result.closure_size == len(allowed)


def test_check_ideal_possibility_validates_the_partition():
    sig = spec_sig(3)
    states = list(sig.states())
    with pytest.raises(ModelError):  # overlap
        check_ideal_possibility(frozenset(states), frozenset(states[:1]), sig)
    with pytest.raises(ModelError):  # not a partition
        check_ideal_possibility(frozenset(states[:2]), frozenset(states[3:4]),
                                sig)


def test_spec_state_files_round_trip():
    fx = protocols.make_le(4)
    text = format_spec_states(fx.forced)
    sig, (back,) = read_spec_state_sets(text)
    assert back == frozenset(
        sig.state({(p, n): s.value(p, n) for p, n, _ in sig.slots})
        for s in fx.forced)


@pytest.mark.parametrize("values, order", [
    (["10", "-1", "2", "0", "-0"], ("-1", "-0", "0", "2", "10")),
    (["10", "2", "\u00b2"], ("10", "2", "\u00b2")),
    (["10", "2", "--1"], ("--1", "10", "2")),
])
def test_spec_state_values_order_by_number_then_text(values, order):
    sig, _ = read_spec_state_sets("".join("x.p1=%s\n" % v for v in values))
    assert sig.slots[0][2].values == order


def test_spec_state_value_order_does_not_follow_the_hash_seed():
    # 1, 01 and 001 are one int; set order, which the seed changes, once
    # decided their order
    code = ("from stabiliq.merge import read_spec_state_sets; "
            "sig, _ = read_spec_state_sets('x.p1=1\\nx.p1=01\\nx.p1=2\\n"
            "x.p1=001\\n'); print(sig.slots[0][2].values)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    orders = {subprocess.run([sys.executable, "-c", code],
                             env=dict(env, PYTHONHASHSEED=seed),
                             capture_output=True, text=True, timeout=60,
                             check=True).stdout for seed in ("3", "5")}
    assert orders == {"('001', '01', '1', '2')\n"}


def test_spec_state_files_infer_one_signature_for_all_sets():
    a = "x.p1=true x.p2=false\n"
    b = "x.p1=false x.p2=false\n# a comment\nx.p1=true, x.p2=true\n"
    sig, (sa, sb) = read_spec_state_sets(a, b)
    assert sig.size == 4
    assert len(sa) == 1 and len(sb) == 2
    with pytest.raises(ModelError):
        read_spec_state_sets("x.p1=true x.p2=false\nx.p1=true\n")
