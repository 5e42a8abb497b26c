"""Closure, convergence, stabilization verdicts, and the state classifiers."""
import functools
import gc
import json
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import abp_classify, pif_classify
from stabiliq import explorer, protocols, replace, specs
from stabiliq.dsl import parse_protocol
from stabiliq.kernel import (BOOL, ChainAutomaton, ChainPredicate, Signature,
                             le_allowed)
from stabiliq.mapping import (BoundMapping, IdenticalMapping,
                              ProjectionMapping, _same)
from stabiliq.specs import (Changes, CycleWithin, DIVERGENCE_ALLOWED,
                            DIVERGENCE_FORBIDDEN, STUTTER_POLICIES,
                            FiniteTerminal, Obligation, Recurrence,
                            Specification, abp_legitimate,
                            check_closed, check_convergence,
                            check_ideal_stabilizing, check_stabilizing,
                            every_state,
                            fdp_spec, iabp_spec, ipif_spec,
                            _pif_rp_strict, _pif_rq_prime, pif_coverage,
                            pif_prime, pif_wave, sabp_spec, spif_spec,
                            udp_spec)


def pif_state(n, *letters):
    sig = protocols.make_pif(n).program.signature
    return sig.state({(p, "st"): v for p, v in enumerate(letters, start=1)})


def abp_state(text):
    return protocols.make_abp().program.signature.parse_state(text)


def test_pif_classify_fixtures():
    # the quiescent chain is a wave state: an all-idle segment with an
    # empty request prefix and an empty reply suffix
    quiet = pif_classify(pif_state(4, "i", "i", "i", "i"))
    assert ("RQ", 0, 4) in quiet
    assert pif_wave(pif_state(4, "i", "i", "i", "i"))
    # a request front halfway down the chain
    assert pif_classify(pif_state(4, "rq", "i", "i", "rp")) == frozenset([
        ("RQ", 1, 3), ("RQ'", 1, 2), ("RQ'", 1, 3)])
    # a reply front coming back
    assert pif_classify(pif_state(4, "rq", "rq", "rp", "rp")) == frozenset([
        ("RP", 2), ("RP'", 2)])
    assert pif_classify(pif_state(4, "rq", "rq", "rq", "rp")) == frozenset([
        ("RP", 3), ("RP'", 3)])
    # the probe state sits outside both families: the reply at p2 is
    # followed by an idle process, so neither RP' nor RQ' matches
    probe = pif_state(4, "rq", "rp", "i", "rp")
    assert pif_classify(probe) == frozenset()
    assert not pif_wave(probe) and not pif_prime(probe)


def test_wave_family_counts():
    for n, count in ((3, 8), (4, 13), (5, 19)):
        sig = protocols.make_pif(n).program.signature
        assert sum(1 for s in sig.states() if pif_wave(s)) == count


def assert_words_match_the_classifier(state):
    tags = {tag for tag, *_ in pif_classify(state)}
    assert pif_wave(state) == bool(tags & {"RQ", "RP"}), state
    assert pif_prime(state) == bool(tags & {"RQ'", "RP'"}), state
    assert _pif_rq_prime(state) == ("RQ'" in tags), state
    assert _pif_rp_strict(state) == ("RP" in tags), state


@pytest.mark.parametrize("n", range(3, 10))
def test_wave_words_agree_with_the_classifier_everywhere(n):
    for state in protocols.make_pif(n).program.signature.states():
        assert_words_match_the_classifier(state)


@functools.lru_cache(maxsize=None)
def pif_signature(n):
    return protocols.make_pif(n).program.signature


@st.composite
def pif_states(draw):
    sig = pif_signature(draw(st.integers(3, 16)))
    return sig.state_at(draw(st.integers(0, sig.size - 1)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pif_states())
def test_wave_words_agree_with_the_classifier_on_long_chains(state):
    assert_words_match_the_classifier(state)


def test_a_second_equal_program_is_not_compared_slot_by_slot(monkeypatch):
    # the predicate pass over a second, equal pif program must find its
    # wave letters without comparing its signature with the first one
    first = protocols.make_pif(6).program.signature
    expected = [pif_wave(s) for s in first.states()]
    second = protocols.make_pif(6).program.signature
    assert second == first and second is not first

    def refuse(self, other):
        raise AssertionError("Signature.__eq__ was called")

    monkeypatch.setattr(Signature, "__eq__", refuse)
    assert [pif_wave(s) for s in second.states()] == expected


def _signature_of(subject: str) -> Signature:
    """pif<N> and le<N>: the program or fixture signature; abp; adj<N>:
    N boolean outputs, the signature the dining specifications read."""
    if subject == "abp":
        return protocols.make_abp().program.signature
    n = int(subject[len(subject.rstrip("0123456789")):])
    if subject.startswith("pif"):
        return pif_signature(n)
    if subject.startswith("le"):
        return protocols.make_le(n).signature
    return Signature((p, "in", BOOL) for p in range(1, n + 1))


PREDICATE_ORACLES = [
    *((name, "pif%d" % n, functools.partial(helpers.pif_word_matches, name))
      for n in range(3, 11) for name in helpers.PIF_REGEXES),
    ("abp_legitimate", "abp",
     lambda s: abp_classify(s) == "legitimate-SABP"),
    *(("_no_adjacent_true", "adj%d" % n, helpers.no_adjacent_true)
      for n in range(3, 13)),
    *(("le_allowed", "le%d" % n, helpers.le_allowed) for n in range(4, 8)),
    *(("every_state", subject, lambda s: True)
      for subject in ("pif3", "pif10", "abp", "adj12", "le7")),
]


@pytest.mark.parametrize("name, subject, oracle", PREDICATE_ORACLES,
                         ids=["%s-%s" % case[:2] for case in PREDICATE_ORACLES])
def test_built_in_predicates_agree_with_their_oracles(name, subject, oracle):
    # specs has no use for le_allowed, the leader-election fixture's
    pred = le_allowed if name == "le_allowed" else getattr(specs, name)
    assert isinstance(pred, ChainPredicate)
    sig = _signature_of(subject)
    expected = [oracle(s) for s in sig.states()]
    assert pred.bits(sig) == explorer.bitset(expected)
    assert [pred(s) for s in sig.states()] == expected


def test_every_built_in_predicate_is_a_chain_predicate():
    bundles = [protocols.make_cm((2, 1, 3)), protocols.make_alternator(4),
               protocols.make_pif(4), protocols.make_abp()]
    for bundle in bundles:
        for spec in (bundle.ideal_spec, bundle.strict_spec):
            if spec is not None:
                assert isinstance(spec.allowed_state, ChainPredicate)
                acceptance = getattr(spec.acceptance, "pred", None)
                assert acceptance is None or \
                    isinstance(acceptance, ChainPredicate)
        for pred in bundle.invariants.values():
            assert isinstance(pred, ChainPredicate)


def test_the_wave_invariant_is_decided_without_listing_states(monkeypatch):
    # stabilizing-pif10 with its rq-or-rp invariant, closure, convergence
    # and coverage: no predicate is run state by state
    bundle = protocols.make_pif(10)
    program, wave = bundle.program, bundle.invariants["rq-or-rp"]
    ts = explorer.build_transition_system(program)

    def refuse(self):
        raise AssertionError("a predicate was run on every state")

    with monkeypatch.context() as patched:
        patched.setattr(Signature, "states", refuse)
        verdict = check_stabilizing(program, bundle.mapping,
                                    bundle.strict_spec, wave, ts=ts)
        closed = check_closed(program, wave, ts)
        converges = check_convergence(program, wave, ts)
        coverage = pif_coverage(program)
    assert verdict.holds and verdict.stats["invariant_states"] == 64
    assert closed.holds and converges.holds
    assert coverage.stats["uncovered"] == sum(
        not helpers.pif_word_matches("pif_prime", s)
        for s in program.signature.states())
    # a plain callable goes through the per-state fallback to the same
    # verdicts
    plain = functools.partial(helpers.pif_word_matches, "pif_wave")
    assert _pinned(check_stabilizing(program, bundle.mapping,
                                     bundle.strict_spec, plain, ts=ts)) == \
        _pinned(verdict)
    assert _pinned(check_closed(program, plain, ts)) == _pinned(closed)
    assert _pinned(check_convergence(program, plain, ts)) == \
        _pinned(converges)


def test_a_plain_predicate_builds_no_image_ids(monkeypatch):
    # a program-side predicate is read through the identity binding, so a
    # plain callable's flags are already the program states' bitset
    def refuse(self, ts):
        raise AssertionError("an image id was built per state")

    monkeypatch.setattr(BoundMapping, "ids", refuse)
    program = protocols.make_alternator(4).program
    ts = explorer.build_transition_system(program)
    for pred in (lambda s: True, lambda s: s.value(1, "x") == "false"):
        inside = [pred(s) for s in ts.states]
        leaving = next(((i, t) for i in range(ts.size)
                        for _, _, t in ts.edges(i)
                        if inside[i] and not inside[t]), None)
        closed = check_closed(program, pred, ts)
        assert closed.stats["predicate_states"] == sum(inside)
        assert (closed.witness and (closed.witness["source"],
                                    closed.witness["target"])) == (
            leaving and tuple(ts.state(v).text() for v in leaving))
        succ = [[t for _, _, t in ts.edges(i)] for i in range(ts.size)]
        assert check_convergence(program, pred, ts).holds != \
            helpers.exists_path_avoiding(succ, [not ok for ok in inside])


@pytest.mark.parametrize("n", [4, 6])
def test_pif_coverage_lists_the_first_uncovered_states(n):
    program = protocols.make_pif(n).program
    uncovered = [s.text() for s in program.signature.states()
                 if not {tag for tag, *_ in pif_classify(s)} & {"RQ'", "RP'"}]
    size = program.signature.size
    verdict = pif_coverage(program)
    assert verdict.holds and verdict.witness is None
    assert verdict.stats == {"states": size,
                             "covered": size - len(uncovered),
                             "uncovered": len(uncovered)}
    assert [note[len("uncovered: "):] for note in verdict.notes
            if note.startswith("uncovered: ")] == uncovered[:20]
    more = "... and %d more" % (len(uncovered) - 20)
    assert (verdict.notes[-1] == more) == (len(uncovered) > 20)


def test_abp_classify_fixtures():
    legitimate = [
        "ns=0 chpq=d0 nr=1 chqp=empty",
        "ns=0 chpq=empty nr=0 chqp=a0",
        "ns=1 chpq=d1 nr=0 chqp=empty",
        "ns=1 chpq=empty nr=1 chqp=a1",
        "ns=0 chpq=d0 nr=0 chqp=empty",
    ]
    transient = [
        "ns=0 chpq=empty nr=0 chqp=empty",   # nothing in flight
        "ns=0 chpq=d0 nr=0 chqp=a0",         # two messages in flight
        "ns=1 chpq=d0 nr=0 chqp=empty",      # stale data bit
        "ns=0 chpq=empty nr=0 chqp=a1",      # stale acknowledgment
    ]
    for text in legitimate:
        assert abp_classify(abp_state(text)) == "legitimate-SABP", text
        assert abp_legitimate(abp_state(text))
    for text in transient:
        assert abp_classify(abp_state(text)) == "transient", text


def test_check_closed_holds_on_the_wave_family():
    bundle = protocols.make_pif(4)
    verdict = check_closed(bundle.program, pif_wave)
    assert verdict.holds and verdict.witness is None
    assert verdict.check == "closed"
    assert verdict.stats["states"] == 36
    assert verdict.stats["predicate_states"] == 13
    assert verdict.summary().splitlines()[0] == "closed: holds"


def test_check_closed_reports_the_escaping_edge():
    bundle = protocols.make_cm((2, 1, 3, 4))

    def pred(s):
        return s.value(1, "access") == "false"

    verdict = check_closed(bundle.program, pred)
    assert not verdict.holds
    w = verdict.witness
    assert w["kind"] == "edge"
    assert w["action"] == "1:flip"
    sig = bundle.program.signature
    assert pred(sig.parse_state(w["source"]))
    assert not pred(sig.parse_state(w["target"]))
    assert "edge %s --1:flip--> %s" % (w["source"], w["target"]) \
        in verdict.summary()


def test_check_convergence_to_the_wave_family():
    bundle = protocols.make_pif(4)
    verdict = check_convergence(bundle.program, pif_wave)
    assert verdict.holds
    assert verdict.stats["terminals"] == 0


def test_check_convergence_fails_with_a_cycle_witness():
    bundle = protocols.make_cm((2, 1, 3, 4))

    def pred(s):
        return s.value(1, "access") == "false"

    verdict = check_convergence(bundle.program, pred)
    assert not verdict.holds
    w = verdict.witness
    assert w["kind"] == "cycle"
    sig = bundle.program.signature
    for text in w["states"]:
        assert not pred(sig.parse_state(text))
    assert len(w["actions"]) == len(w["states"])


def test_check_convergence_fails_on_a_bad_terminal():
    src = """
    protocol oneshot() {
      process p in 1..1 {
        var x: bool;
        go: self.x = false -> self.x := true;
      }
    }
    """
    program = parse_protocol(src).unwrap()
    verdict = check_convergence(program, lambda s: s.value(1, "x") == "false")
    assert not verdict.holds
    assert verdict.witness == {"kind": "terminal", "state": "x=true"}


def test_terminal_and_cycling_bottoms_against_both_kinds_of_sequence():
    # two bottoms: the cycle x=false y=true <-> x=true y=true (least id 1)
    # and the terminal x=true y=false (id 2), reached from id 0
    program = parse_protocol("""
    protocol two() {
      process p in 1..1 {
        output x: bool;
        output y: bool;
        go: self.x = false && self.y = false -> self.x := true;
        spin: self.y = true -> self.x := !self.x;
      }
    }
    """).unwrap()
    # one bottom: the terminal x=true, reached from x=false
    one = parse_protocol("""
    protocol one() {
      process p in 1..1 {
        output x: bool;
        go: self.x = false -> self.x := true;
      }
    }
    """).unwrap()

    def verdict(acceptance, program=program):
        spec = Specification("two", lambda s: True, lambda s, t: True,
                             acceptance, DIVERGENCE_ALLOWED)
        return check_ideal_stabilizing(program, IdenticalMapping(), spec)

    infinite = verdict(CycleWithin(lambda s: True))
    assert (infinite.stats["components"],
            infinite.stats["bottom_components"]) == (3, 2)
    assert infinite.witness["component"] == ["x=true y=false"]
    assert infinite.witness["reason"] == (
        "bottom component of 1 state (least x=true y=false) is terminal, but "
        "the specification's sequences are infinite")
    assert verdict(FiniteTerminal(lambda s: True)).witness["reason"] == (
        "bottom component of 2 states (least x=false y=true) "
        "cycles forever, but the specification's sequences are finite")
    assert verdict(FiniteTerminal(lambda s: False), one).witness["reason"] == (
        "terminal state x=true does not satisfy the final-state condition")
    # both bottoms fail: the one with the least state id reports
    assert verdict(CycleWithin(lambda s: False)).witness["reason"] == (
        "bottom component of 2 states (least x=false y=true) "
        "contains x=false y=true, outside the target cycle family")
    assert verdict(CycleWithin(lambda s: False, "a family")
                   ).witness["reason"] == (
        "bottom component of 2 states (least x=false y=true) "
        "contains x=false y=true, outside the target cycle family (a family)")


def _spin():
    """x flips while y holds; y never changes, so every y=false state is
    terminal and the two y=true states form a cycle."""
    return parse_protocol("""
    protocol spin() {
      process p in 1..1 {
        output x: bool;
        output y: bool;
        flip: self.y = true -> self.x := !self.x;
      }
    }
    """).unwrap()


def _anything():
    return Specification("anything", lambda s: True, specs.every_edge,
                         CycleWithin(lambda s: True), DIVERGENCE_ALLOWED)


@pytest.mark.parametrize("program,spec,invariant,kind", [
    # fails at closure
    (lambda: protocols.make_pif(4).program, lambda: spif_spec(),
     specs.pif_root_idle, "edge"),
    # fails at convergence, on a cycle and on a terminal outside
    (_spin, _anything, lambda s: s.value(1, "y") == "false", "cycle"),
    (_spin, _anything, lambda s: s.value(1, "x") == "true"
     and s.value(1, "y") == "false", "terminal"),
    # fails at state conformance on the whole universe, and holds on a part
    (lambda: protocols.make_pif(4).program, lambda: spif_spec(),
     every_state, "disallowed-state"),
    (lambda: protocols.make_pif(4).program, lambda: spif_spec(), pif_wave,
     None),
    (lambda: protocols.make_abp().program, sabp_spec, abp_legitimate, None),
])
def test_a_verdict_counts_the_components_of_the_whole_universe(
        program, spec, invariant, kind):
    # past convergence only the invariant is condensed; the states outside
    # it still count, one trivial component each
    program = program()
    verdict = check_stabilizing(program, IdenticalMapping(), spec(),
                                invariant)
    assert (verdict.witness or {}).get("kind") == kind
    succ = helpers.successor_table(program)
    assert (verdict.stats["components"],
            verdict.stats["bottom_components"]) == (
        len(helpers.brute_sccs(succ)), len(helpers.brute_bottom_sccs(succ)))


def test_stabilizing_to_strict_waves():
    bundle = protocols.make_pif(4)
    verdict = check_stabilizing(bundle.program, bundle.mapping, spif_spec(),
                                pif_wave)
    assert verdict.holds and verdict.witness is None
    assert verdict.check == "stabilizing"
    assert verdict.stats["invariant_states"] == 13
    assert verdict.stats["bottom_components"] == 1
    assert "stutter policy: divergence-forbidden" in verdict.notes
    assert "stutter divergence: none" in verdict.notes


def test_stabilizing_to_the_strict_handshake():
    bundle = protocols.make_abp()
    verdict = check_stabilizing(bundle.program, bundle.mapping, sabp_spec(),
                                abp_legitimate)
    assert verdict.holds
    assert verdict.stats["states"] == 36
    assert verdict.stats["invariant_states"] == 8
    assert verdict.stats["bottom_components"] == 1


def test_ideal_handshake_holds():
    bundle = protocols.make_abp()
    verdict = check_ideal_stabilizing(bundle.program, bundle.mapping,
                                      iabp_spec())
    assert verdict.holds
    assert verdict.check == "ideal"
    assert verdict.stats["invariant_states"] == 36
    assert "stutter divergence: none" in verdict.notes


def test_ideal_wave_fails_on_an_uncovered_state():
    bundle = protocols.make_pif(4)
    verdict = check_ideal_stabilizing(bundle.program, bundle.mapping,
                                      ipif_spec())
    assert not verdict.holds
    w = verdict.witness
    assert w["kind"] == "disallowed-state"
    assert w["state"] == "st.p1=rq st.p2=rq st.p3=rp st.p4=i"
    assert not pif_prime(bundle.program.signature.parse_state(w["state"]))


def test_ideal_alternator_holds():
    for n in (3, 4, 5):
        bundle = protocols.make_alternator(n)
        verdict = check_ideal_stabilizing(bundle.program, bundle.mapping,
                                          bundle.ideal_spec)
        assert verdict.holds, n


def test_unfair_dining_holds_with_divergence_findings():
    bundle = protocols.make_cm((2, 1, 3, 4))
    verdict = check_ideal_stabilizing(bundle.program, bundle.mapping,
                                      udp_spec())
    assert verdict.holds and verdict.witness is None
    assert verdict.stats == {
        "states": 16, "edges": 64, "invariant_states": 16,
        "components": 1, "bottom_components": 1,
        "elapsed_ms": verdict.stats["elapsed_ms"]}
    assert verdict.notes[0] == "stutter policy: divergence-allowed"
    assert any(n.startswith("obligation 'output-activity' (not enforced "
                            "under divergence-allowed)")
               for n in verdict.notes)
    assert any(n.startswith("stutter divergence: a computation may cycle")
               and n.endswith("allowed by policy") for n in verdict.notes)


def test_fair_dining_reports_per_process_analysis():
    bundle = protocols.make_cm((2, 1, 3, 4))
    verdict = check_ideal_stabilizing(bundle.program, bundle.mapping,
                                      fdp_spec(4))
    assert verdict.holds
    for j in (1, 2, 3, 4):
        assert any(n.startswith("obligation 'activity-p%d' (analysis only)"
                                % j) for n in verdict.notes), j


def test_forbidding_divergence_turns_the_finding_into_a_failure():
    bundle = protocols.make_cm((2, 1, 3, 4))
    spec = udp_spec().with_policy(DIVERGENCE_FORBIDDEN)
    verdict = check_ideal_stabilizing(bundle.program, bundle.mapping, spec)
    assert not verdict.holds
    w = verdict.witness
    assert w["kind"] == "acceptance"
    assert "never discharges obligation 'output-activity'" in w["reason"]
    assert verdict.summary().splitlines()[1].startswith("  witness: cycle")


def test_stabilizing_rejects_an_open_invariant():
    bundle = protocols.make_cm((2, 1, 3, 4))
    verdict = check_stabilizing(
        bundle.program, bundle.mapping, udp_spec(),
        lambda s: s.value(1, "access") == "false")
    assert not verdict.holds
    assert verdict.witness["kind"] == "edge"
    assert "invariant is not closed" in verdict.notes


def test_verdicts_serialize_to_json():
    bundle = protocols.make_pif(4)
    ts = explorer.build_transition_system(bundle.program)
    verdicts = [
        check_closed(bundle.program, pif_wave, ts),
        check_ideal_stabilizing(bundle.program, bundle.mapping,
                                ipif_spec(), ts),
    ]
    for v in verdicts:
        payload = json.loads(json.dumps(v.to_dict()))
        assert payload["check"] == v.check
        assert payload["holds"] == v.holds
        assert set(payload) == {"check", "holds", "witness", "stats", "notes"}


def test_specification_validation():
    with pytest.raises(ValueError):
        Specification("x", lambda s: True, lambda s, t: True,
                      FiniteTerminal(lambda s: True),
                      stutter_policy="sometimes")
    with pytest.raises(ValueError):
        Obligation("o", lambda s, t: True, mode="maybe")
    with pytest.raises(ValueError):
        Specification("bad", lambda s: True, lambda s, t: True, object(),
                      DIVERGENCE_ALLOWED)
    spec = udp_spec()
    assert spec.stutter_policy == DIVERGENCE_ALLOWED
    assert spec.with_policy(DIVERGENCE_FORBIDDEN).stutter_policy == \
        DIVERGENCE_FORBIDDEN
    assert spec.with_policy(DIVERGENCE_FORBIDDEN).name == spec.name


def _pinned(verdict):
    """The verdict's dict without its timing."""
    payload = verdict.to_dict()
    del payload["stats"]["elapsed_ms"]
    return payload


def test_disallowed_edge_witness_is_pinned():
    bundle = protocols.make_alternator(4)
    spec = replace(bundle.ideal_spec, allowed_edge=lambda s, t: not (
        s.values[0] == 1 and t.values[0] == 0))
    verdict = check_ideal_stabilizing(bundle.program, bundle.mapping, spec)
    assert _pinned(verdict) == {
        "check": "ideal",
        "holds": False,
        "witness": {
            "kind": "disallowed-edge",
            "source": "x.p1=false x.p2=false x.p3=false x.p4=false",
            "target": "x.p1=true x.p2=false x.p3=false x.p4=false",
            "action": "1:step",
            "mapped_source": "in.p1=true in.p2=false in.p3=false "
                             "in.p4=false",
            "mapped_target": "in.p1=false in.p2=true in.p3=false "
                             "in.p4=false",
        },
        "stats": {"states": 16, "edges": 24, "invariant_states": 16,
                  "components": 1, "bottom_components": 1},
        "notes": ["stutter policy: divergence-allowed"],
    }


def test_stutter_cycle_witness_is_pinned():
    bundle = protocols.make_cm((1, 2, 3))
    spec = Specification("any", lambda s: True, lambda s, t: True,
                         Recurrence(()), DIVERGENCE_FORBIDDEN)
    verdict = check_ideal_stabilizing(bundle.program, bundle.mapping, spec)
    assert _pinned(verdict) == {
        "check": "ideal",
        "holds": False,
        "witness": {
            "kind": "stutter-cycle",
            "states": ["access.p1=false access.p2=true access.p3=true",
                       "access.p1=true access.p2=true access.p3=true"],
            "actions": ["1:flip", "1:flip"],
            "image": "in.p1=false in.p2=false in.p3=true",
        },
        "stats": {"states": 8, "edges": 24, "invariant_states": 8,
                  "components": 1, "bottom_components": 1},
        "notes": ["stutter policy: divergence-forbidden",
                  "stutter divergence: found, forbidden by policy"],
    }


def test_specification_callables_see_each_image_once():
    # la 8 has one 256-state bottom component; its 15 obligations used to
    # be evaluated on every edge of every cycle search
    bundle = protocols.make_alternator(8)
    calls = Counter()

    def counted(name, fn):
        def call(*images):
            calls[(name,) + tuple(s.index for s in images)] += 1
            return fn(*images)
        return call

    spec = bundle.ideal_spec
    obligations = spec.acceptance.obligations
    spec = replace(
        spec, allowed_state=counted("state", spec.allowed_state),
        allowed_edge=counted("edge", spec.allowed_edge),
        acceptance=Recurrence(tuple(
            replace(o, edge_pred=counted(o.name, o.edge_pred))
            for o in obligations)))
    verdict = check_ideal_stabilizing(bundle.program, bundle.mapping, spec)
    assert verdict.holds
    assert max(calls.values()) == 1
    assert {key[0] for key in calls} == \
        {"state", "edge"} | {o.name for o in obligations}


def test_the_stutter_question_reads_only_the_invariant_edges(monkeypatch):
    # stabilizing-pif10: the invariant holds 64 of 26,244 states. SPIF's
    # edge predicates are local forms read off the image bitsets, so the
    # check filters no edge; with plain callables it runs one edge filter,
    # which sees only edges leaving the 64 invariant states
    bundle = protocols.make_pif(10)
    inv = bundle.invariants[bundle.default_invariant]
    inside = {s.index for s in bundle.program.signature.states() if inv(s)}
    assert len(inside) == 64
    filters, keyed = [], []
    edges_where = explorer.edges_where

    def recording(ts, nodes, keep):
        filters.append(nodes)

        def seen(v, w):
            keyed.append(v)
            return keep(v, w)
        return edges_where(ts, nodes, seen)

    monkeypatch.setattr(explorer, "edges_where", recording)
    spec = bundle.strict_spec
    local = check_stabilizing(bundle.program, bundle.mapping, spec, inv)
    assert local.holds and filters == [] and keyed == []
    plain = replace(
        spec, allowed_state=lambda s: spec.allowed_state(s),
        allowed_edge=lambda s, t: spec.allowed_edge(s, t),
        acceptance=CycleWithin(lambda s: spec.acceptance.pred(s),
                               spec.acceptance.description))
    verdict = check_stabilizing(bundle.program, bundle.mapping, plain, inv)
    assert verdict.holds and verdict.notes == local.notes
    assert len(filters) == 1 and keyed and set(keyed) <= inside


@pytest.mark.parametrize("make, arg", [
    (protocols.make_cm, ids) for ids in ((1, 2, 3), (2, 1, 3, 4), (3, 1, 4, 2),
                                         tuple(range(1, 7)))] + [
    (protocols.make_alternator, n) for n in (3, 4, 5)])
def test_no_cycle_question_is_asked_twice(monkeypatch, make, arg):
    # the output-activity obligation, Changes(), asks of the whole-universe
    # bottom component what the stutter check asks of the invariant: one
    # answer serves both; a slot set is put to the proof once, and the
    # alternator's are all proven, so it trims only the convergence question
    bundle = make(arg)
    asked, find_cycle, frozen = [], explorer.find_cycle, explorer.frozen

    def asking(ts, nodes, rel=None):
        asked.append((nodes, None if rel is None else tuple(sorted(
            (d, r) for d, r in rel.items() if r))))
        return find_cycle(ts, nodes, rel)

    def proving(program, bound):
        proves = frozen(program, bound)
        return lambda slots: asked.append(slots) or proves(slots)

    monkeypatch.setattr(explorer, "find_cycle", asking)
    monkeypatch.setattr(explorer, "frozen", proving)
    verdict = check_ideal_stabilizing(bundle.program, bundle.mapping,
                                      bundle.ideal_spec)
    assert verdict.holds and verdict.notes[-1].startswith("stutter divergence")
    assert len(asked) == len(set(asked))
    trims = [a for a in asked if isinstance(a, tuple)]
    assert len(trims) == (1 if make is protocols.make_alternator else 2)


@pytest.mark.parametrize("n", (4, 7, 10))
def test_an_obligation_listed_twice_is_trimmed_once(monkeypatch, n):
    # FDP on the alternator with activity-p1 listed again right after
    # itself: the repeat reads the first answer, so the check puts as many
    # questions to the proof and the trim as FDP does and repeats only
    # activity-p1's note
    bundle = protocols.make_alternator(n)
    spec = bundle.ideal_spec
    obligations = spec.acceptance.obligations
    twice = replace(spec, acceptance=Recurrence(
        obligations[:2] + obligations[1:]))
    asked, find_cycle, frozen = [], explorer.find_cycle, explorer.frozen
    monkeypatch.setattr(explorer, "find_cycle",
                        lambda *args: asked.append(1) or find_cycle(*args))

    def proving(program, bound):
        proves = frozen(program, bound)
        return lambda slots: asked.append(1) or proves(slots)

    monkeypatch.setattr(explorer, "frozen", proving)
    once = check_ideal_stabilizing(bundle.program, bundle.mapping, spec)
    questions = len(asked)
    verdict = check_ideal_stabilizing(bundle.program, bundle.mapping, twice)
    # a convergence trim, and a proof per obligation (Changes() included)
    assert questions == n + 2 and len(asked) == 2 * questions
    first = next(i for i, note in enumerate(once.notes)
                 if "'activity-p1'" in note)
    assert verdict.notes == once.notes[:first + 1] + once.notes[first:]
    assert (verdict.holds, verdict.witness) == (once.holds, once.witness)


def _local_form_cases():
    """(program, mapping) per case: the built-in mappings on cm, la, pif
    and abp, and a projection."""
    cases = [(protocols.make_cm(ids), None) for ids in
             ((1, 2, 3), (2, 1, 3, 4), tuple(range(1, 7)))]
    cases += [(protocols.make_alternator(n), None) for n in range(3, 13)]
    cases += [(protocols.make_pif(n), None) for n in range(3, 9)]
    cases += [(protocols.make_abp(), None),
              (protocols.make_abp(), ProjectionMapping(("ns", "nr")))]
    for bundle, mapping in cases:
        yield bundle.program, mapping or bundle.mapping


def _as_plain(pred):
    return lambda s, t: pred(s, t)


def _relations(ts, bound, letters, inv, spec) -> tuple:
    unmet = specs._edge_relations(ts, bound, letters, inv)
    return unmet(specs.Changes()), unmet(spec.allowed_edge, stutter=True), [
        unmet(o.edge_pred) for o in spec.acceptance.obligations]


#: The first, and the last, letter's first value is 0: Leaves sets that
#: every case's image leaves somewhere.
_first_zero = ChainPredicate(lambda sig: ChainAutomaton(
    sig, "S", lambda q, p, a: not a[0] if q == "S" else q, (True,)))
_last_zero = ChainPredicate(lambda sig: ChainAutomaton(
    sig, "S", lambda q, p, a: not a[0], (True,)))


def test_local_edge_forms_agree_with_the_per_pair_grouping():
    # the stutter relation against an edge filter by image id; the
    # disallowed changes and every Changes, Leaves and every_edge obligation
    # against the same specifications with each form wrapped as a plain
    # callable, over the full invariant and one that is not closed
    leaves = (specs.Leaves(_first_zero, _last_zero),
              specs.Leaves(specs._no_adjacent_true, _last_zero))
    violated, cases = Counter(), 0
    for program, mapping in _local_form_cases():
        cases += 1
        ts = explorer.build_transition_system(program)
        bound = mapping.bind(program)
        letters, ids = bound.slot_bits(), bound.ids(ts)
        slots = tuple(range(len(bound.signature.slots)))
        forms = [specs.Changes(), *(specs.Changes((i,)) for i in slots),
                 specs.Changes(slots[::2]), *leaves, specs.every_edge]
        spec = Specification("local", every_state, specs.every_edge,
                             Recurrence(tuple(
                                 Obligation("o%d" % j, c)
                                 for j, c in enumerate(forms))))
        plain = replace(spec, acceptance=Recurrence(tuple(
            replace(o, edge_pred=_as_plain(o.edge_pred))
            for o in spec.acceptance.obligations)))
        for inv in (ts.full, ts.full & ~helpers.bits(range(0, ts.size, 3))):
            stutters = explorer.edges_where(
                ts, inv, lambda v, w: ids[v] == ids[w])
            local = _relations(ts, bound, letters, inv, spec)
            assert local == _relations(ts, bound, letters, inv, plain), \
                program.name
            # no edge misses every_edge, so it recurs on every cycle
            assert explorer.find_cycle(ts, inv, local[2][-1]) is None
            for allowed in (specs.every_edge, specs.Changes((0,)),
                            specs.Changes(slots[1:]), *leaves):
                got = _relations(ts, bound, letters, inv, replace(
                    spec, allowed_edge=allowed, acceptance=Recurrence(())))
                want = _relations(ts, bound, letters, inv, replace(
                    spec, allowed_edge=_as_plain(allowed),
                    acceptance=Recurrence(())))
                assert got == want, (program.name, allowed)
                assert got[0] == stutters, program.name
                if allowed in leaves:
                    violated[leaves.index(allowed), inv == ts.full] += \
                        bool(got[1])
    # every case leaves the first pair of sets over the full invariant, and
    # each form finds violating edges under both invariants
    assert violated[0, True] == cases
    assert len(violated) == 4 and all(violated.values())


def test_edge_relations_are_built_only_when_asked():
    # ideal la14: no edge leaves the whole universe, so the relations share
    # the system's own edges, and an obligation's relation (the stutters
    # too) exists only while its question is asked; what the call keeps,
    # `unmet`, and the disallowed changes it builds (none for every_edge)
    # are under twice the bytes of the system's edges
    bundle = protocols.make_alternator(14)
    ts = explorer.build_transition_system(bundle.program)
    bound = bundle.mapping.bind(bundle.program)
    letters = bound.slot_bits()
    edges = sum(map(sys.getsizeof, ts.sources.values()))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        unmet = specs._edge_relations(ts, bound, letters, ts.full)
        bad = unmet(bundle.ideal_spec.allowed_edge, stutter=True)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before <= 2 * edges
    assert bad == {} and callable(unmet)


def test_missed_edges_are_built_in_one_pass_on_the_systems_own_ints():
    # ideal cm16: the stutters, the edges that miss Changes(), are built
    # delta by delta, peaking under 1.5 times the bytes of the system's
    # edges; in the relation of Changes((0,)), a delta none of whose edges
    # moves slot 0 is the system's own int; and asking any form, with or
    # without stutter, returns a new relation and leaves the system's edges
    # as they were
    bundle = protocols.make_cm(tuple(range(1, 17)))
    ts = explorer.build_transition_system(bundle.program)
    bound = bundle.mapping.bind(bundle.program)
    unmet = specs._edge_relations(ts, bound, bound.slot_bits(),
                                  ts.full)
    edges = sum(map(sys.getsizeof, ts.sources.values()))
    sources = dict(ts.sources)
    gc.collect()
    tracemalloc.start()
    try:
        unmet(specs.Changes())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * edges
    root = unmet(specs.Changes((0,)))
    whole = [d for d, e in root.items() if e == ts.sources[d]]
    assert whole and all(root[d] is ts.sources[d] for d in whole)
    for form in (specs.every_edge, specs.Changes(), specs.Changes((0,)),
                 specs.Leaves(_first_zero, _last_zero),
                 _as_plain(specs.Changes((0,)))):
        for stutter in (False, True):
            assert unmet(form, stutter) is not ts.sources
    assert ts.sources == sources


def test_ipif_holds_on_image_bitsets_alone(monkeypatch):
    # IPIF's recovery rule is the local form Leaves(RQ', RP): under the
    # rq-or-rp invariant the check holds with no image id and no edge
    # filter, with the verdict and notes of its plain-callable wrapper
    def refuse(*args):
        raise AssertionError("a state was mapped or an edge filtered")

    for n in range(3, 11):
        bundle = protocols.make_pif(n)
        inv, spec = bundle.invariants["rq-or-rp"], ipif_spec()
        plain = check_stabilizing(bundle.program, bundle.mapping, replace(
            spec, allowed_edge=_as_plain(spec.allowed_edge)), inv)
        with monkeypatch.context() as patch:
            patch.setattr(BoundMapping, "ids", refuse)
            patch.setattr(explorer, "edges_where", refuse)
            local = check_stabilizing(bundle.program, bundle.mapping, spec,
                                      inv)
        assert local.holds, n
        assert (local.witness, local.notes) == (plain.witness, plain.notes)


def test_a_plain_edge_callable_under_the_identity_builds_no_image_ids(
        monkeypatch):
    # pif's mapping is the identity, so a plain allowed_edge is read over
    # the invariant's edges by their state ids, and its verdict is the one
    # of SPIF's local form every_edge
    def refuse(self, ts):
        raise AssertionError("an image id was built per state")

    pairs = []
    for n in range(3, 8):
        bundle = protocols.make_pif(n)
        inv, spec = bundle.invariants["rq-or-rp"], bundle.strict_spec
        assert spec.allowed_edge is specs.every_edge
        local = check_stabilizing(bundle.program, bundle.mapping, spec, inv)
        with monkeypatch.context() as patch:
            patch.setattr(BoundMapping, "ids", refuse)
            plain = check_stabilizing(bundle.program, bundle.mapping, replace(
                spec, allowed_edge=lambda s, t: not pairs.append((s, t))),
                inv)
        assert (plain.holds, plain.witness, plain.notes) == \
            (local.holds, local.witness, local.notes), n
    assert pairs  # the callable ran


def test_composed_predicates_agree_with_the_mapped_states():
    # allowed_state and the acceptance predicate as program bitsets, from
    # the automaton run over the image letters, against the predicate on
    # each image
    for program, mapping in _local_form_cases():
        ts = explorer.build_transition_system(program)
        bound = mapping.bind(program)
        letters = bound.slot_bits()
        preds = [specs._no_adjacent_true, every_state, lambda s: s.index % 3]
        if program.name == "pif":
            preds += [pif_wave, pif_prime]
        if program.name == "abp" and isinstance(mapping, IdenticalMapping):
            preds.append(abp_legitimate)
        for pred in preds:
            want = helpers.bits(i for i, s in enumerate(ts.states)
                                if pred(bound(s)))
            assert specs._holds(pred, bound, ts, letters) == want


def test_many_obligations_agree_with_the_component_oracle():
    # 70 obligations, past 32 and 64 mask bits: o(3i) is met by every
    # edge, o(3i+1) by none, and o(3i+2) by a scattering of image pairs
    bundle = protocols.make_cm((1, 2, 3))
    program = bundle.program
    ts = explorer.build_transition_system(program)
    bound = bundle.mapping.bind(program)

    def met(j, s, t):
        return (j % 3 == 0 or j % 3 == 2
                and (s.index * 7 + t.index * 13 + j) % 5 < 4)

    def spec(enforced):
        return Specification("many", lambda s: True, lambda s, t: True,
                             Recurrence(tuple(Obligation(
                                 "o%d" % j, functools.partial(met, j),
                                 "enforce" if j in enforced else "analyze")
                                 for j in range(70))), DIVERGENCE_ALLOWED)

    comp = range(ts.size)  # the one bottom component
    assert explorer.condense(ts).bottoms == (0,)

    def undischarged(j):
        """Per state id, the targets of its edges that miss obligation j."""
        return [[t for _, _, t in ts.edges(v)
                 if not met(j, bound(ts.state(v)), bound(ts.state(t)))]
                for v in comp]

    def assert_cycle_in(j, texts):
        ids = [program.signature.parse_state(x).index for x in texts]
        succ = undischarged(j)
        assert all(b in succ[a] for a, b in zip(ids, ids[1:] + ids[:1]))

    verdict = check_ideal_stabilizing(program, bundle.mapping, spec(()))
    assert verdict.holds
    notes = {n.split("'")[1]: n for n in verdict.notes
             if n.startswith("obligation")}
    assert len(notes) == 70
    cyclic = set()
    for j in range(70):
        note = notes["o%d" % j]
        if any(len(c) > 1 or min(c) in undischarged(j)[min(c)]
               for c in helpers.brute_sccs(undischarged(j))):
            cyclic.add(j)
            head = "obligation 'o%d' (analysis only): not discharged on " \
                   "cycle " % j
            assert note.startswith(head)
            assert_cycle_in(j, note[len(head):].split(" -> "))
        else:
            assert note.startswith("obligation 'o%d': recurs on every "
                                   "cycle of bottom component" % j)
    assert {j for j in range(70) if j % 3 == 1} <= cyclic
    assert not {j for j in range(70) if j % 3 == 0} & cyclic
    assert {j for j in cyclic if j % 3 == 2} and \
        {j for j in range(70) if j % 3 == 2} - cyclic

    # the first enforced obligation that fails, o34, decides the verdict
    verdict = check_ideal_stabilizing(program, bundle.mapping,
                                      spec({33, 34, 67}))
    assert not verdict.holds
    reason = verdict.witness["reason"]
    assert reason.startswith("cycle ") and \
        reason.endswith(" never discharges obligation 'o34'")
    assert_cycle_in(34, reason[len("cycle "):-len(
        " never discharges obligation 'o34'")].split(" -> "))
    assert [n.split("'")[1] for n in verdict.notes
            if n.startswith("obligation")] == ["o%d" % j for j in range(34)]


def _every_variable(program):
    """The projection onto every variable: the identity's images, read
    through letters, since the binding is not the identity."""
    return ProjectionMapping(dict.fromkeys(
        name for _, name, _ in program.signature.slots))


@pytest.fixture
def identity_letters(monkeypatch):
    """Counts the times the letters are built under the identity binding."""
    built, slot_bits = Counter(), BoundMapping.slot_bits

    def counted(self):
        built["identity"] += self.id_of is _same
        return slot_bits(self)

    monkeypatch.setattr(BoundMapping, "slot_bits", counted)
    return built


_IDENTITY_CASES = [(n, kind, name, policy)
                   for n in range(3, 8) for kind in ("strict", "ideal")
                   for name in ("rq-or-rp", "root-idle", "true")
                   for policy in STUTTER_POLICIES] + [
    (None, kind, name, policy) for kind in ("strict", "ideal")
    for name in ("legitimate", "true") for policy in STUTTER_POLICIES]


@pytest.mark.parametrize("n, kind, name, policy", _IDENTITY_CASES)
def test_identity_bound_checks_read_no_image_letters(identity_letters, n,
                                                     kind, name, policy):
    # pif and abp expose every variable, so their images are their own
    # states: the check reads its specification on the state ids, with no
    # letter built, and agrees with the projection onto every variable,
    # which reads the same images through letters
    bundle = protocols.make_abp() if n is None else protocols.make_pif(n)
    program, inv = bundle.program, bundle.invariants[name]
    spec = getattr(bundle, kind + "_spec").with_policy(policy)
    projection = _every_variable(program)
    assert projection.bind(program).id_of is not _same
    want = check_stabilizing(program, projection, spec, inv)
    got = check_stabilizing(program, bundle.mapping, spec, inv)
    assert _pinned(got) == _pinned(want)
    assert identity_letters["identity"] == 0


def test_an_identity_obligation_on_some_slots_builds_the_letters_once(
        identity_letters):
    # a Changes over some of the slots reads letters even under the
    # identity: they are built on its first question, and only once
    for n in range(3, 8):
        bundle = protocols.make_pif(n)
        program = bundle.program
        spec = Specification("ends", every_state, specs.every_edge,
                             Recurrence((
                                 Obligation("root", Changes((0,)), "analyze"),
                                 Obligation("leaf", Changes((n - 1,)),
                                            "analyze"),
                                 Obligation("any", Changes()))))
        identity_letters.clear()
        got = check_ideal_stabilizing(program, bundle.mapping, spec)
        assert identity_letters["identity"] == 1, n
        want = check_ideal_stabilizing(program, _every_variable(program), spec)
        assert _pinned(got) == _pinned(want), n
        assert sum(note.startswith("obligation") for note in got.notes) == 3
