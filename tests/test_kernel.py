"""Kernel semantics: domains, signatures, state encoding, action firing."""
import pytest

from stabiliq import explorer, kernel, protocols, replace, specs
from stabiliq.kernel import (BOOL, DisabledActionError, Domain, ModelError,
                             Signature, UniverseCapError)
from stabiliq.program import (Action, And, Assign, BoolLit, Cmp, If, Lit,
                              NotRef, Or, Process, Program, ProgramError,
                              VarRef, VariableDecl)
from stabiliq.specs import Verdict

ST3 = Domain("st3", ("i", "rq", "rp"))


def tiny_program(command, guard=BoolLit(True), domain=BOOL, kind="internal",
                 extra_vars=()):
    """One process, one variable x, one action with the given command."""
    proc = Process(
        index=1, pid=1,
        vars=(VariableDecl("x", domain, kind),) + tuple(extra_vars),
        actions=(Action("go", guard, command),))
    return Program("tiny", (proc,))


def test_domain_lookup_and_membership():
    assert "rq" in ST3 and "xx" not in ST3
    assert ST3.index("rp") == 2
    assert len(ST3) == 3
    with pytest.raises(ModelError):
        Domain("bad", ("a", "a"))
    with pytest.raises(ModelError):
        Domain("empty", ())


def test_signature_encoding_is_mixed_radix_with_last_slot_fastest():
    sig = Signature([(1, "st", Domain("r", ("i", "rq"))),
                     (2, "st", ST3),
                     (3, "st", Domain("l", ("i", "rp")))])
    assert sig.size == 12
    states = list(sig.states())
    assert [s.index for s in states] == list(range(12))
    # last slot varies fastest
    assert states[0].values == (0, 0, 0)
    assert states[1].values == (0, 0, 1)
    assert states[2].values == (0, 1, 0)
    # round-trip through the integer encoding
    for s in states:
        assert sig.state_at(s.index) == s


def test_state_text_uses_qualified_names_only_when_needed():
    cm = protocols.make_cm((2, 1, 3)).program
    s = cm.signature.state_at(5)
    assert s.text() == "access.p1=true access.p2=false access.p3=true"
    abp = protocols.make_abp().program
    t = abp.signature.parse_state("ns=0 nr=0 chpq=empty chqp=empty")
    assert t.text() == "ns=0 chpq=empty nr=0 chqp=empty"
    assert abp.signature.parse_state(t.text()) == t


def test_parse_state_rejects_junk():
    abp = protocols.make_abp().program
    sig = abp.signature
    with pytest.raises(ModelError):
        sig.parse_state("ns=0 nr=0 chpq=empty")  # missing a slot
    with pytest.raises(ModelError):
        sig.parse_state("ns=0 nr=0 chpq=empty chqp=empty bogus=1")
    with pytest.raises(ModelError):
        sig.parse_state("ns=7 nr=0 chpq=empty chqp=empty")
    with pytest.raises(ModelError):
        sig.parse_state("ns=0 ns=1 nr=0 chpq=empty chqp=empty")


def test_enabled_actions_canonical_order():
    pif = protocols.make_pif(4).program
    # request wave about to reflect: only the leaf moves
    s = pif.signature.parse_state("st.p1=rq st.p2=rq st.p3=rq st.p4=i")
    assert kernel.enabled_actions(pif, s) == [(4, "reflect")]
    # all idle: only the root moves
    idle = pif.signature.parse_state("st.p1=i st.p2=i st.p3=i st.p4=i")
    assert kernel.enabled_actions(pif, idle) == [(1, "request")]
    cm = protocols.make_cm((2, 1, 3, 4)).program
    every = cm.signature.state_at(0)
    assert kernel.enabled_actions(cm, every) == [
        (1, "flip"), (2, "flip"), (3, "flip"), (4, "flip")]


def test_apply_rejects_disabled_action():
    pif = protocols.make_pif(4).program
    idle = pif.signature.parse_state("st.p1=i st.p2=i st.p3=i st.p4=i")
    with pytest.raises(DisabledActionError):
        kernel.apply(pif, idle, 2, "forward")
    stepped = kernel.apply(pif, idle, 1, "request")
    assert stepped.text() == "st.p1=rq st.p2=i st.p3=i st.p4=i"


@pytest.mark.parametrize("pos, name", [(2, "nosuch"), (9, "forward"),
                                       (0, "forward")])
def test_apply_names_an_unknown_action(pos, name):
    # a position past either chain end has no action either, whatever its
    # name; forward is an action of the inner positions
    pif = protocols.make_pif(4).program
    idle = pif.signature.parse_state("st.p1=i st.p2=i st.p3=i st.p4=i")
    with pytest.raises(ModelError,
                       match=r"^process %d has no action '%s'$" % (pos, name)):
        kernel.apply(pif, idle, pos, name)


def test_wave_steps_match_the_action_definitions():
    pif = protocols.make_pif(4).program
    sig = pif.signature
    # the reply wave travels back
    s = sig.parse_state("st.p1=rq st.p2=rq st.p3=rq st.p4=rp")
    assert kernel.apply(pif, s, 3, "back").text() == \
        "st.p1=rq st.p2=rq st.p3=rp st.p4=rp"
    # stop cleans up behind an idle left neighbor
    s = sig.parse_state("st.p1=i st.p2=rp st.p3=rp st.p4=rp")
    assert kernel.apply(pif, s, 2, "stop").text() == \
        "st.p1=i st.p2=i st.p3=rp st.p4=rp"


def test_alternating_bit_steps_worked_by_hand():
    abp = protocols.make_abp().program
    sig = abp.signature

    def step(text, pos, action):
        return kernel.apply(abp, sig.parse_state(text), pos, action).text()

    # matching ack: consume, flip the bit, send the next message
    assert step("ns=1 chpq=empty nr=1 chqp=a1", 1, "next") == \
        "ns=0 chpq=d0 nr=1 chqp=empty"
    # reply with a full ack channel: the fresh ack is lost
    assert step("ns=0 chpq=d1 nr=1 chqp=a0", 2, "reply") == \
        "ns=0 chpq=empty nr=1 chqp=a0"
    # reply adopts the incoming bit and acknowledges it
    assert step("ns=1 chpq=d1 nr=0 chqp=empty", 2, "reply") == \
        "ns=1 chpq=empty nr=1 chqp=a1"
    # timeout resends the current bit
    assert step("ns=0 chpq=empty nr=0 chqp=empty", 1, "timeout") == \
        "ns=0 chpq=d0 nr=0 chqp=empty"
    # stale ack: consumed, nothing else changes
    assert step("ns=1 chpq=d1 nr=0 chqp=a0", 1, "next") == \
        "ns=1 chpq=d1 nr=0 chqp=empty"


def test_commands_read_their_own_writes_in_order():
    # x := !x; y := x  must copy the new x into y
    x = VarRef(0, "x")
    y = VarRef(0, "y")
    prog = tiny_program(
        (Assign(x, NotRef(x)), Assign(y, x)),
        extra_vars=(VariableDecl("y", BOOL, "internal"),))
    start = prog.signature.parse_state("x=false y=false")
    assert kernel.apply(prog, start, 1, "go").text() == "x=true y=true"
    # the compiled transition system follows the same sequential semantics
    ts = explorer.build_transition_system(prog)
    ((_, _, target),) = ts.edges(start.index)
    assert ts.state(target).text() == "x=true y=true"


def test_if_branches_follow_the_condition():
    x = VarRef(0, "x")
    prog = tiny_program(
        (If(Cmp(x, "=", Lit("false")),
            then=(Assign(x, Lit("true")),),
            orelse=(Assign(x, Lit("false")),)),))
    sig = prog.signature
    assert kernel.apply(prog, sig.parse_state("x=false"), 1, "go").text() == "x=true"
    assert kernel.apply(prog, sig.parse_state("x=true"), 1, "go").text() == "x=false"


def test_successors_are_distinct_and_encoded_ascending():
    cm = protocols.make_cm((2, 1, 3, 4)).program
    s = cm.signature.state_at(0)
    succ = kernel.successors(cm, s)
    assert [t.index for t in succ] == [1, 2, 4, 8]
    # a self-loop shows up as a successor equal to the state
    x = VarRef(0, "x")
    loop = tiny_program((Assign(x, x),))
    s0 = loop.signature.state_at(0)
    assert kernel.successors(loop, s0) == [s0]


def test_extended_state_covers_the_window_only():
    cm = protocols.make_cm((2, 1, 3, 4)).program
    sig = cm.signature
    s = sig.parse_state(
        "access.p1=true access.p2=false access.p3=false access.p4=true")

    def window(pos):
        return {sig.slots[i][:2]: sig.slots[i][2].values[s.values[i]]
                for i in sig.window_slots(pos)}

    assert window(2) == {
        (1, "access"): "true", (2, "access"): "false", (3, "access"): "false"}
    assert window(1) == {
        (1, "access"): "true", (2, "access"): "false"}
    assert window(4) == {
        (3, "access"): "false", (4, "access"): "true"}
    # no process sits at position 5: its window holds only its neighbor
    assert 5 not in sig.positions
    assert window(5) == {(4, "access"): "true"}


def test_program_validation_rejects_bad_constructions():
    # the codes are the ones parse_protocol reports for the same mistakes;
    # the two literals case is kernel-only (the parser rejects it first)
    x = VarRef(0, "x")
    with pytest.raises(ModelError, match=r"^action 'go' of process 1: input "
                       r"variable 'x' cannot be assigned \[ASSIGN_TO_INPUT\]$"):
        tiny_program((Assign(x, Lit("true")),), kind="input")
    # literal outside the domain
    with pytest.raises(ModelError, match=r"\[VALUE_OUTSIDE_DOMAIN\]$"):
        tiny_program((Assign(x, Lit("maybe")),))
    # negation of a non-boolean
    with pytest.raises(ModelError, match=r"\[NOT_BOOL\]$"):
        tiny_program((Assign(x, NotRef(x)),), domain=ST3)
    # comparing two literals
    with pytest.raises(ModelError, match=r"\[LITERAL_COMPARISON\]$"):
        tiny_program((Assign(x, x),), guard=Cmp(Lit("a"), "=", Lit("a")))
    # no left neighbor at position 1
    with pytest.raises(ModelError, match=r"\[NON_NEIGHBOR_REF\]$"):
        tiny_program((Assign(VarRef(-1, "x"), Lit("true")),))
    # undeclared variable
    with pytest.raises(ModelError, match=r"\[UNDECLARED_VAR\]$"):
        tiny_program((Assign(VarRef(0, "nope"), Lit("true")),))
    # wider domain flows into narrower
    with pytest.raises(ModelError, match=r"\[VALUE_OUTSIDE_DOMAIN\]$"):
        wide = VariableDecl("w", ST3, "internal")
        tiny_program((Assign(x, VarRef(0, "w")),), extra_vars=(wide,))
    # a literal where a variable reference belongs
    with pytest.raises(ProgramError, match=r": malformed assignment target "
                       r"Lit\(value='x'\) \[MALFORMED_NODE\]$"):
        tiny_program((Assign(Lit("x"), Lit("true")),))
    with pytest.raises(ProgramError, match=r": malformed negation operand "
                       r"Lit\(value='true'\) \[MALFORMED_NODE\]$"):
        tiny_program((Assign(x, NotRef(Lit("true"))),))


def test_program_problems_follow_the_walk_through_if_branches():
    # per position: the guard, the condition, both branches, then the
    # statement after the if; position 1 has no left neighbor, and position
    # 4 no right one, which the action does not read
    st = Domain("st", ("a", "b", "c"))
    go = Action("go", Cmp(VarRef(0, "nope"), "=", Lit("true")), (
        If(Cmp(VarRef(-1, "x"), "=", Lit("true")),
           then=(Assign(VarRef(0, "s"), Lit("q")),),
           orelse=(Assign(VarRef(0, "u"), Lit("true")),)),
        Assign(VarRef(0, "x"), NotRef(VarRef(0, "s")))))
    decls = (VariableDecl("x", BOOL), VariableDecl("s", st),
             VariableDecl("u", BOOL, "input"))
    # positions 2 and 3 share a window form (the same action between two
    # neighbors that declare alike), and each reports its own problems
    with pytest.raises(ProgramError) as caught:
        Program("if", [Process(p, p, decls, (go,)) for p in range(1, 5)])
    rest = ["value 'q' is not in domain st ('a', 'b', 'c') "
            "[VALUE_OUTSIDE_DOMAIN]",
            "input variable 'u' cannot be assigned [ASSIGN_TO_INPUT]",
            "negation needs boolean variables; 's' is st [NOT_BOOL]"]
    at = "action 'go' of process %d: ".__mod__
    assert [str(p) for p in caught.value.problems] == [
        at(1) + "no variable 'nope' at position 1 [UNDECLARED_VAR]",
        at(1) + "position 1 has no left neighbor [NON_NEIGHBOR_REF]",
        *(at(1) + text for text in rest),
        *(line for p in (2, 3, 4) for line in [
            at(p) + "no variable 'nope' at position %d [UNDECLARED_VAR]" % p,
            *(at(p) + text for text in rest)])]


def test_program_positions_and_pids_validated():
    decl = (VariableDecl("x", BOOL, "internal"),)
    act = (Action("go", BoolLit(True), (Assign(VarRef(0, "x"), Lit("true")),)),)
    with pytest.raises(ModelError):  # positions must be contiguous from 1
        Program("p", (Process(index=2, pid=1, vars=decl, actions=act),))
    with pytest.raises(ModelError):  # duplicate pids
        Program("p", (Process(index=1, pid=7, vars=decl, actions=act),
                      Process(index=2, pid=7, vars=decl, actions=act)))


def test_universe_cap_and_env_override(monkeypatch):
    la = protocols.make_alternator(5).program
    assert len(list(la.signature.states())) == 32
    kernel.check_cap(la.signature.size, cap=32)
    with pytest.raises(UniverseCapError):
        kernel.check_cap(la.signature.size, cap=31)
    monkeypatch.setenv("STABILIQ_STATE_CAP", "16")
    assert kernel.state_cap() == 16
    with pytest.raises(UniverseCapError):
        kernel.check_cap(la.signature.size)
    monkeypatch.setenv("STABILIQ_STATE_CAP", "not-a-number")
    with pytest.raises(ModelError):
        kernel.state_cap()


def test_universe_iterates_every_state_once():
    pif = protocols.make_pif(3).program
    seen = [s.index for s in pif.signature.states()]
    assert seen == list(range(12))
    assert pif.signature.size == 12


# --------------------------------------------------------------------------
# Value classes (kernel.record).

def _guard():
    return Cmp(VarRef(0, "x"), "=", Lit("true"))


def test_equal_frozen_records_are_equal_and_hash_the_same():
    a, b = And((_guard(),)), And((_guard(),))
    assert a is not b and a == b and hash(a) == hash(b)
    assert And((_guard(), BoolLit(True))) != a
    assert If(BoolLit(True), ()) == If(cond=BoolLit(True), then=(), orelse=())


def test_records_of_different_classes_are_unequal():
    # the same field tuple in another class compares unequal
    assert And((_guard(),)) != Or((_guard(),))
    assert And((_guard(),)).__eq__(Or((_guard(),))) is NotImplemented
    assert len({And((_guard(),)), Or((_guard(),))}) == 2


def test_frozen_records_refuse_assignment():
    ref = VarRef(0, "x")
    with pytest.raises(AttributeError, match="cannot assign to field 'name'"):
        ref.name = "y"
    with pytest.raises(AttributeError):
        del ref.offset
    with pytest.raises(AttributeError):
        ref.extra = 1
    assert ref == VarRef(0, "x")


def test_mutable_records_get_fresh_defaults_and_no_hash():
    first = Verdict("closed", True, None, {"states": 2})
    second = Verdict("closed", True, None, {"states": 2})
    first.notes.append("a note")
    assert (first.notes, second.notes) == (["a note"], [])
    second.holds = False
    assert first != second
    with pytest.raises(TypeError):
        hash(first)
    # to_dict copies every container
    out = first.to_dict()
    out["notes"].append("more")
    out["stats"]["states"] = 3
    assert first.notes == ["a note"] and first.stats == {"states": 2}


def test_record_arguments_by_position_keyword_and_default():
    decl = VariableDecl("x", BOOL)
    assert decl.kind == "internal"
    assert decl == VariableDecl(domain=BOOL, name="x", kind="internal")
    with pytest.raises(TypeError):
        VariableDecl("x")  # domain missing
    with pytest.raises(TypeError):
        VariableDecl("x", BOOL, "internal", "extra")
    with pytest.raises(TypeError):
        VariableDecl("x", BOOL, name="y")  # name given twice
    with pytest.raises(ModelError):  # __post_init__ runs
        VariableDecl("x", BOOL, "secret")


def test_replace_runs_the_checks_again():
    spec = specs.udp_spec()
    renamed = replace(spec, name="other")
    assert (renamed.name, renamed.allowed_state) == \
        ("other", spec.allowed_state)
    assert spec.name == "UDP"
    with pytest.raises(ValueError, match="unknown stutter policy 'bogus'"):
        replace(spec, stutter_policy="bogus")
    with pytest.raises(TypeError):
        replace(spec, no_such_field=1)


def test_record_repr_has_the_dataclass_form():
    assert repr(VarRef(0, "x")) == "VarRef(offset=0, name='x')"
    assert repr(Assign(VarRef(1, "x"), Lit("true"))) == (
        "Assign(target=VarRef(offset=1, name='x'), value=Lit(value='true'))")
    assert repr(BoolLit(True)) == "BoolLit(value=True)"
