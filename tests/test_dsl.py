"""Protocol language: parsing, diagnostics, rendering, round-trips."""
import time
from pathlib import Path

import pytest
from hypothesis import given, settings

from stabiliq import dsl, explorer, protocols
from stabiliq.dsl import DslError, parse_protocol
from stabiliq.text import render
from test_windows import programs

GOOD = """
protocol demo(N) {
  domain st = { a, b, c };
  process ends in 1..1 {
    var x: bool;
    output s: st;
    go: self.x = right.x -> self.x := !self.x;
  }
  process rest in 2..N {
    var x: bool;
    output s: st;
    go: self.x != left.x -> self.s := a;
  }
}
"""


OFF_THE_END = """
    protocol p(N) {
      process a in 1..N {
        var x: bool;
        go: self.x = left.x -> self.x := !self.x;
      }
    }
    """

ASSIGNS_INPUT = """
    protocol p() {
      process a in 1..1 {
        input x: bool;
        go: true -> self.x := true;
      }
    }
    """

NARROWING = """
    protocol p() {
      domain big = { a, b, c };
      domain small = { a, b };
      process a in 1..1 {
        var u: big;
        var v: small;
        go: self.u = a -> self.v := self.u;
      }
    }
    """

NEGATES_DOMAIN = """
    protocol p() {
      domain st = { a, b };
      process a in 1..1 {
        var u: st;
        go: self.u = a -> self.u := !self.u;
      }
    }
    """

TWO_PROBLEMS = """
    protocol p() {
      process a in 1..1 {
        input x: bool;
        go: self.y = true -> self.x := true;
      }
    }
    """


def codes(result):
    return sorted(d.code for d in result.diagnostics)


def parse_err(source, n=None):
    result = parse_protocol(source, n=n)
    assert result.program is None and not result.ok
    return codes(result)


def test_parse_a_valid_source():
    result = parse_protocol(GOOD, n=4)
    assert result.ok and not result.diagnostics
    prog = result.program
    assert prog.name == "demo"
    assert prog.n == 4
    assert [p.pid for p in prog.processes] == [1, 2, 3, 4]
    assert prog.signature.size == (2 * 3) ** 4
    assert [a.name for a in prog.processes[0].actions] == ["go"]


def test_unwrap_raises_with_the_diagnostics():
    result = parse_protocol("protocol x() {", n=None)
    with pytest.raises(DslError) as err:
        result.unwrap()
    assert "SYNTAX" in str(err.value)


def test_cm_ids_land_in_order_on_the_positions():
    # the one thing make_cm adds to its sample: the caller's identifiers
    for ids in ((2, 1, 3, 4), (1, 2), (9, 4, 7)):
        program = protocols.make_cm(ids).program
        assert program.name == "cm"
        assert [p.index for p in program.processes] == \
            list(range(1, len(ids) + 1))
        assert tuple(p.pid for p in program.processes) == ids


def test_render_round_trip_on_every_builtin():
    programs = [
        protocols.make_cm((2, 1, 3, 4)).program,
        protocols.make_cm((1, 2)).program,
        protocols.make_alternator(3).program,
        protocols.make_alternator(6).program,
        protocols.make_pif(5).program,
        protocols.make_abp().program,
    ]
    for prog in programs:
        text = render(prog)
        needs_n = "(N)" in text.splitlines()[0]
        back = parse_protocol(text, n=prog.n if needs_n else None)
        assert back.ok, (prog.name, [str(d) for d in back.diagnostics])
        assert back.program == prog


def test_render_is_deterministic():
    prog = protocols.make_pif(4).program
    assert render(prog) == render(prog)


def test_render_emits_ids_only_when_they_differ_from_positions():
    with_ids = render(protocols.make_cm((2, 1, 3, 4)).program)
    assert "ids = [2, 1, 3, 4];" in with_ids
    without = render(protocols.make_cm((1, 2, 3, 4)).program)
    assert "ids" not in without


def test_render_uses_symbolic_bounds_on_long_chains():
    text = render(protocols.make_alternator(5).program)
    assert "in 1..1" in text
    assert "in 2..N-1" in text
    assert "in N..N" in text
    short = render(protocols.make_cm((1, 2)).program)
    assert "in 1..2" in short and "N" not in short


def _transitions(program):
    ts = explorer.build_transition_system(program)
    return [list(ts.edges(i)) for i in range(ts.size)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(programs())
def test_random_programs_round_trip_through_the_parser(program):
    # render flattens nested And/Or, so only the reparsed program is a
    # fixed point; the original agrees with it on every transition
    first = parse_protocol(render(program), n=program.n)
    assert first.ok and not first.diagnostics
    assert _transitions(first.program) == _transitions(program)
    again = parse_protocol(render(first.program), n=program.n)
    assert again.ok and again.program == first.program


def test_sample_sources_are_canonical_modulo_comments():
    # parse -> render -> parse is the identity on the parsed program
    for fname, n in [("cm.gcp", 4), ("alternator.gcp", 5),
                     ("pif.gcp", 4), ("abp.gcp", None)]:
        first = parse_protocol(protocols.sample_source(fname), n=n)
        assert first.ok
        again = parse_protocol(render(first.program),
                               n=n if "(N)" in render(first.program) else None)
        assert again.ok and again.program == first.program


def test_missing_parameter_is_reported():
    assert parse_err("protocol p(N) { process a in 1..N { var x: bool; "
                     "go: true -> self.x := !self.x; } }") == ["MISSING_PARAM"]


def test_undeclared_variable():
    bad = GOOD.replace("self.x != left.x", "self.x != left.y")
    assert parse_err(bad, n=4) == ["UNDECLARED_VAR"]


def test_non_neighbor_chain_reference():
    bad = GOOD.replace("self.x != left.x", "self.x != left.left")
    assert parse_err(bad, n=4) == ["NON_NEIGHBOR_REF"]


def test_reference_off_the_chain_end():
    assert parse_err(OFF_THE_END, n=3) == ["NON_NEIGHBOR_REF"]


def test_assignment_to_an_input():
    assert parse_err(ASSIGNS_INPUT) == ["ASSIGN_TO_INPUT"]


def test_value_outside_domain():
    bad = GOOD.replace("self.s := a", "self.s := q")
    assert parse_err(bad, n=4) == ["VALUE_OUTSIDE_DOMAIN"]
    bad = GOOD.replace("self.x = right.x", "self.s = q")
    assert parse_err(bad, n=4) == ["VALUE_OUTSIDE_DOMAIN"]


def test_assignment_across_incompatible_domains():
    assert parse_err(NARROWING) == ["VALUE_OUTSIDE_DOMAIN"]


def test_negation_needs_booleans():
    assert parse_err(NEGATES_DOMAIN) == ["NOT_BOOL"]


def test_group_coverage_must_partition_the_chain():
    overlap = """
    protocol p(N) {
      process a in 1..2 { var x: bool; go: true -> self.x := !self.x; }
      process b in 2..N { var x: bool; go: true -> self.x := !self.x; }
    }
    """
    assert "GROUP_RANGE" in parse_err(overlap, n=4)
    gap = """
    protocol p(N) {
      process a in 1..1 { var x: bool; go: true -> self.x := !self.x; }
      process b in 3..N { var x: bool; go: true -> self.x := !self.x; }
    }
    """
    assert "GROUP_RANGE" in parse_err(gap, n=4)


def test_group_range_reports_each_group_once_from_its_bounds():
    # the bounds are compared, no position is walked: a group of 100,000
    # positions on a chain of 4 is one diagnostic
    wide = """
    protocol p(N) {
      process a in 1..100000 { var x: bool; go: true -> self.x := !self.x; }
    }
    """
    assert [str(d) for d in parse_protocol(wide, n=4).diagnostics] == [
        "3:15: error: group 'a' covers positions 1..100000, outside 1..4 "
        "[GROUP_RANGE]"]
    # a group that starts inside one that starts first is named once, at
    # the first position they share, whatever the order of declaration
    nested = """
    protocol p(N) {
      process c in N..N { var x: bool; go: true -> self.x := !self.x; }
      process b in 2..3 { var x: bool; go: true -> self.x := !self.x; }
      process a in 1..N { var x: bool; go: true -> self.x := !self.x; }
    }
    """
    assert [str(d) for d in parse_protocol(nested, n=4).diagnostics] == [
        "3:15: error: groups 'a' and 'c' both cover position 4 "
        "[GROUP_RANGE]",
        "4:15: error: groups 'a' and 'b' both cover position 2 "
        "[GROUP_RANGE]"]


def test_uncovered_positions_are_written_as_ranges():
    group = "process %s in %s { var x: bool; go: true -> self.x := !self.x; }"
    one = "protocol p(N) { %s }" % group % ("a", "1..1")
    text = [str(d) for d in parse_protocol(one, n=100000).diagnostics]
    assert text == [
        "1:1: error: no group covers positions 2..100000 [GROUP_RANGE]"]
    assert len(text[0]) < 100
    assert [str(d) for d in parse_protocol(one, n=2).diagnostics] == [
        "1:1: error: no group covers position 2 [GROUP_RANGE]"]
    three = "protocol p(N) { %s %s %s }" % (
        group % ("a", "1..1"), group % ("c", "7..N"), group % ("b", "3..4"))
    assert [str(d) for d in parse_protocol(three, n=9).diagnostics] == [
        "1:1: error: no group covers positions 2, 5..6 [GROUP_RANGE]"]


@pytest.mark.parametrize("bounds,n", [
    ("1..%s" % ("9" * 3000), None),
    ("1..N", int("9" * 3000)),
    ("N-%s..N" % ("9" * 3000), 4),
    ("1..10000001", None),
], ids=["3000-digit literal", "3000-digit n", "3000-digit offset",
        "one past the cap"])
def test_a_chain_longer_than_the_state_cap_is_refused_at_once(
        monkeypatch, bounds, n):
    # one process is built per position, so the bounds are checked first
    monkeypatch.delenv("STABILIQ_STATE_CAP", raising=False)
    source = "protocol p(%s) { process a in %s { var x: bool; " \
        "go: true -> self.x := !self.x; } }" % ("N" * ("N" in bounds), bounds)
    start = time.perf_counter()
    result = parse_protocol(source, n=n)
    assert time.perf_counter() - start < 0.1
    assert [str(d) for d in result.diagnostics] == [
        "1:1: error: the chain length and every position bound must be at "
        "most the state cap, 10000000: one process is built per position "
        "[GROUP_RANGE]"]


def test_ids_must_match_the_chain():
    src = """
    protocol p(N) {
      ids = [3, 1];
      process a in 1..N { var x: bool; go: true -> self.x := !self.x; }
    }
    """
    assert parse_err(src, n=3) == ["IDS_MISMATCH"]
    dup = src.replace("[3, 1]", "[1, 2, 2]")
    assert parse_err(dup, n=3) == ["IDS_MISMATCH"]


def test_a_protocol_needs_some_variable():
    empty = ("protocol p(N) {\n  process a in 1..1 { }\n"
             "  process b in 2..N { }\n}\n")
    assert [str(d) for d in parse_protocol(empty, n=3).diagnostics] == [
        "2:11: error: no process of protocol 'p' declares a variable "
        "[NO_VARIABLES]"]
    # empty groups are fine as long as some process owns a variable
    partly = empty.replace("2..N { }", "2..N { var x: bool; }")
    program = parse_protocol(partly, n=3).unwrap()
    assert [len(p.vars) for p in program.processes] == [0, 1, 1]
    # at N = 1 the group that declares one covers no position
    assert [str(d) for d in parse_protocol(partly, n=1).diagnostics] == [
        "2:11: error: no process of protocol 'p' declares a variable "
        "[NO_VARIABLES]"]


def test_duplicate_names_are_rejected():
    dup_var = """
    protocol p() {
      process a in 1..1 {
        var x: bool;
        var x: bool;
        go: true -> self.x := !self.x;
      }
    }
    """
    assert parse_err(dup_var) == ["DUPLICATE_NAME"]
    dup_action = """
    protocol p() {
      process a in 1..1 {
        var x: bool;
        go: true -> self.x := !self.x;
        go: true -> self.x := !self.x;
      }
    }
    """
    assert parse_err(dup_action) == ["DUPLICATE_NAME"]
    dup_domain = """
    protocol p() {
      domain d = { a, b };
      domain d = { c };
      process a in 1..1 { var x: d; go: self.x = a -> self.x := b; }
    }
    """
    assert parse_err(dup_domain) == ["DUPLICATE_NAME"]


def test_unknown_domain():
    src = """
    protocol p() {
      process a in 1..1 { var x: nosuch; go: true -> self.x := a; }
    }
    """
    assert parse_err(src) == ["UNKNOWN_DOMAIN"]


def test_syntax_errors_carry_positions():
    result = parse_protocol("protocol p() {\n  process a in 1..1 {\n"
                            "    var x bool;\n  }\n}")
    assert not result.ok
    d = result.diagnostics[0]
    assert d.code == "SYNTAX" and d.line == 3
    assert "3:" in str(d)


GROUP = "protocol p() { process a in 1..1 { var x: bool; go: "


@pytest.mark.parametrize("source, expected", [
    ("protocol", "1:9: error: expected protocol name, found end of input"),
    ("protocol p(",
     "1:12: error: expected parameter name, found end of input"),
    ("protocol p() { ids = [",
     "1:23: error: expected an integer, found end of input"),
    ("protocol p() { domain d = {",
     "1:28: error: expected a value, found end of input"),
    ("protocol p() { process a in",
     "1:28: error: expected a position bound, found end of input"),
    (GROUP + "self", "1:57: error: expected '.', found end of input"),
    (GROUP + "true -> self.x := !",
     "1:72: error: expected self, left, or right, found end of input"),
    (GROUP + "self.x",
     "1:59: error: expected '=' or '!=' in comparison, found end of input"),
    (GROUP + "self.x =",
     "1:61: error: expected a variable or value, found end of input"),
])
def test_the_end_of_the_source_is_named_end_of_input(source, expected):
    assert [str(d) for d in parse_protocol(source).diagnostics] == [
        expected + " [SYNTAX]"]


@pytest.mark.parametrize("path", sorted(
    (Path(protocols.__file__).parent / "samples").glob("*.gcp")),
    ids=lambda path: path.name)
def test_every_truncation_of_a_sample_is_diagnosed(path):
    source = path.read_text()
    for end in range(len(source.rstrip())):
        result = parse_protocol(source[:end], n=4)
        assert result.program is None and result.diagnostics, end
        assert all("'end of input'" not in str(d)
                   for d in result.diagnostics), end


def test_parentheses_and_a_literal_first_compile_like_the_plain_guard():
    def windows(guard):
        return parse_protocol(GOOD.replace("self.x != left.x", guard),
                              n=4).unwrap().windows

    plain = windows("self.s != a")
    assert any(any(row) for table in plain for row in table.rows)
    for guard in ("(self.s != a)", "((self.s != a))", "a != self.s",
                  "(a != self.s)"):
        assert windows(guard) == plain, guard


def test_comparison_of_two_literals_is_rejected():
    src = """
    protocol p() {
      process a in 1..1 { var x: bool; go: true = true -> self.x := true; }
    }
    """
    assert parse_err(src) == ["SYNTAX"]


def test_multiple_semantic_diagnostics_in_one_pass():
    result = parse_protocol(TWO_PROBLEMS)
    assert codes(result) == ["ASSIGN_TO_INPUT", "UNDECLARED_VAR"]


SPANNING_GROUP = """
    protocol p(N) {
      process a in 1..1 { var x: bool; go: true -> self.x := !self.x; }
      process b in 2..N { var x: bool; go: self.y = true -> self.x := !self.x; }
    }
    """

MIXED = """
    protocol p(N) {
      domain st = { a, b };
      process a in 1..N {
        var x: bool;
        var s: st;
        go: left.y = right.z && self.s = q -> self.s := !self.w;
      }
    }
    """

OUT_OF_ORDER = """
    protocol p(N) {
      process z in N..N { var x: bool; go: self.k = true -> self.x := true; }
      process a in 1..N-1 { var x: bool; go: left.x = true -> self.x := true; }
    }
    """


@pytest.mark.parametrize("source, n, expected", [
    (GOOD.replace("self.x != left.x", "self.x != left.y"), 4, [
        "12:24: error: no variable 'y' at position 1 [UNDECLARED_VAR]"]),
    (GOOD.replace("self.x != left.x", "self.x != left.left"), 4, [
        "12:24: error: a process can only read its immediate neighbors; "
        "left.left reaches further [NON_NEIGHBOR_REF]"]),
    (OFF_THE_END, 3, [
        "5:27: error: position 1 has no left neighbor [NON_NEIGHBOR_REF]"]),
    (ASSIGNS_INPUT, None, [
        "5:26: error: input variable 'x' cannot be assigned "
        "[ASSIGN_TO_INPUT]"]),
    (GOOD.replace("self.s := a", "self.s := q"), 4, [
        "12:39: error: value 'q' is not in domain st ('a', 'b', 'c') "
        "[VALUE_OUTSIDE_DOMAIN]"]),
    (GOOD.replace("self.x = right.x", "self.s = q"), 4, [
        "7:18: error: value 'q' is not in domain st ('a', 'b', 'c') "
        "[VALUE_OUTSIDE_DOMAIN]"]),
    (NARROWING, None, [
        "8:34: error: 'u' ranges over ('a', 'b', 'c'), which does not fit "
        "into ('a', 'b') [VALUE_OUTSIDE_DOMAIN]"]),
    (NEGATES_DOMAIN, None, [
        "6:34: error: negation needs boolean variables; 'u' is st "
        "[NOT_BOOL]"]),
    (TWO_PROBLEMS, None, [
        "5:18: error: no variable 'y' at position 1 [UNDECLARED_VAR]",
        "5:35: error: input variable 'x' cannot be assigned "
        "[ASSIGN_TO_INPUT]"]),
    # self.y fails at positions 2, 3 and 4 and is reported once, for the
    # first of them
    (SPANNING_GROUP, 4, [
        "4:49: error: no variable 'y' at position 2 [UNDECLARED_VAR]"]),
    # check order within an action (guard, then each assignment's target,
    # source and negation), then the later positions' new problems
    (MIXED, 3, [
        "7:18: error: position 1 has no left neighbor [NON_NEIGHBOR_REF]",
        "7:28: error: no variable 'z' at position 2 [UNDECLARED_VAR]",
        "7:42: error: value 'q' is not in domain st ('a', 'b') "
        "[VALUE_OUTSIDE_DOMAIN]",
        "7:63: error: no variable 'w' at position 1 [UNDECLARED_VAR]",
        "7:54: error: negation needs boolean variables; 's' is st "
        "[NOT_BOOL]",
        "7:18: error: no variable 'y' at position 1 [UNDECLARED_VAR]",
        "7:28: error: position 3 has no right neighbor [NON_NEIGHBOR_REF]"]),
    # groups are reported in the order they are declared
    (OUT_OF_ORDER, 3, [
        "3:49: error: no variable 'k' at position 3 [UNDECLARED_VAR]",
        "4:51: error: position 1 has no left neighbor [NON_NEIGHBOR_REF]"]),
    # the parser's own refusals
    (GOOD.replace("var x: bool;\n    output s: st;\n    go: self.x = right",
                  "var domain: bool;\n    output s: st;\n    go: self.x = "
                  "right"), 4, [
        "5:9: error: 'domain' is a reserved word [SYNTAX]"]),
    (GOOD.replace("{ a, b, c }", "{ a, b, a }"), 4, [
        "3:23: error: value 'a' repeats in domain 'st' [DUPLICATE_NAME]"]),
    (GOOD + "extra\n", 4, [
        "15:1: error: unexpected 'extra' after protocol body [SYNTAX]"]),
    (GOOD.replace("2..N", "2..M"), 4, [
        "9:22: error: 'M' is not a protocol parameter [SYNTAX]"]),
    (GOOD.replace("self.x = right.x", "a = b"), 4, [
        "7:11: error: a comparison needs at least one variable [SYNTAX]"]),
    (GOOD, 0, [
        "1:1: error: chain length must be at least 1; got 0 [GROUP_RANGE]"]),
])
def test_semantic_diagnostics_are_pinned(source, n, expected):
    result = parse_protocol(source, n=n)
    assert result.program is None
    assert [str(d) for d in result.diagnostics] == expected
