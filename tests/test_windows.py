"""Compiled window tables against the state-by-state operations.

The transition system and the enabled-output mapping read per-position
tables, built by running each window form's resolved actions over every
valuation of its window and shared by the form's positions; enabled_actions
and apply run the same resolved actions on one whole state at a time. Both
must agree on every state: the same edges in the same order, the same
enabled bits.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from stabiliq import explorer, kernel, protocols
from stabiliq.dsl import parse_protocol
from stabiliq.kernel import BOOL, Domain
from stabiliq.mapping import EnabledOutputMapping, HighestIdMapping
from stabiliq.program import (Action, And, Assign, BoolLit, Cmp, If, Lit, Not,
                              NotRef, Or, Process, Program, VarRef,
                              VariableDecl, compile_windows)


def interpreter_edges(program, state):
    return [(pos, name, kernel.apply(program, state, pos, name).index)
            for pos, name in kernel.enabled_actions(program, state)]


def interpreter_bits(program, state):
    enabled = {pos for pos, _ in kernel.enabled_actions(program, state)}
    return tuple(1 if p.index in enabled else 0 for p in program.processes)


def assert_tables_match_interpreter(program):
    ts = explorer.build_transition_system(program)
    bound = EnabledOutputMapping().bind(program)
    assert tuple(map(ts.state, range(ts.size))) == \
        tuple(program.signature.states())
    succ = helpers.successor_table(program)
    for i, s in enumerate(ts.states):
        assert list(ts.edges(i)) == interpreter_edges(program, s), s.text()
        assert sorted({t for _, _, t in ts.edges(i)}) == succ[i], s.text()
        assert bound(s).values == interpreter_bits(program, s), s.text()
    assert ts.edge_count() == sum(len(interpreter_edges(program, s))
                                  for s in program.signature.states())


def _sample(filename, n):
    return parse_protocol(protocols.sample_source(filename), n=n).unwrap()


def _silent_tail():
    """Positions 3 and 4 and their neighbors own no variables, so their
    windows are empty; position 4 still has an always-enabled no-op."""
    x = VarRef(0, "x")
    flip = Action("flip", BoolLit(True), (Assign(x, NotRef(x)),))
    noop = Action("noop", BoolLit(True), ())
    return Program("silent-tail", (
        Process(1, 1, (VariableDecl("x", BOOL),), (flip,)),
        Process(2, 2, (), ()),
        Process(3, 3, (), ()),
        Process(4, 4, (), (noop,))))


PROGRAMS = {
    "cm2": lambda: protocols.make_cm((1, 2)).program,
    "cm3": lambda: protocols.make_cm((3, 1, 2)).program,
    "cm4": lambda: protocols.make_cm((2, 1, 3, 4)).program,
    "cm5": lambda: protocols.make_cm((1, 2, 3, 4, 5)).program,
    "la3": lambda: protocols.make_alternator(3).program,
    "la5": lambda: protocols.make_alternator(5).program,
    "la8": lambda: protocols.make_alternator(8).program,
    "pif3": lambda: protocols.make_pif(3).program,
    "pif5": lambda: protocols.make_pif(5).program,
    "pif6": lambda: protocols.make_pif(6).program,
    "abp": lambda: protocols.make_abp().program,
    "cm.gcp": lambda: _sample("cm.gcp", 4),
    "alternator.gcp": lambda: _sample("alternator.gcp", 4),
    "pif.gcp": lambda: _sample("pif.gcp", 4),
    "abp.gcp": lambda: _sample("abp.gcp", None),
    "silent-tail": _silent_tail,
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_tables_match_the_interpreter_on_every_state(name):
    assert_tables_match_interpreter(PROGRAMS[name]())


def test_table_rows_hold_action_ids_and_code_deltas():
    pif = protocols.make_pif(4).program
    tables = compile_windows(pif)
    assert len(tables) == pif.n
    # one slot per position; a window is a position and its neighbors, so
    # chain ends cover two slots; root and leaf have two values, inner
    # positions three
    assert [(t.lo, t.hi) for t in tables] == [(0, 2), (0, 3), (1, 4), (2, 4)]
    assert [len(t.rows) for t in tables] == \
        [2 * 3, 2 * 3 * 3, 3 * 3 * 2, 3 * 2]
    # a row's k counts the position's own actions: first + k is the id
    assert [t.first for t in tables] == [0, 2, 5, 8]
    assert pif.action_order[tables[2].first:tables[3].first] == (
        (3, "forward"), (3, "back"), (3, "stop"))
    idle = pif.signature.parse_state("st.p1=i st.p2=i st.p3=i st.p4=i")
    code = lambda s, t: pif.signature.code(s.values, t.lo, t.hi)
    codes = [code(idle, t) for t in tables]
    ((k, delta),) = tables[0].rows[codes[0]]
    assert pif.action_order[tables[0].first + k] == (1, "request")
    stepped = kernel.apply(pif, idle, 1, "request")
    assert codes[0] + delta == code(stepped, tables[0])
    assert all(t.rows[c] == () for t, c in zip(tables[1:], codes[1:]))
    # at an i-rp-i window the middle position may only stop, its third
    # action: a row names it by its index in the position, not by its id
    window = pif.signature.parse_state("st.p1=rq st.p2=i st.p3=rp st.p4=i")
    ((k, _),) = tables[2].rows[code(window, tables[2])]
    assert (k, pif.action_order[tables[2].first + k]) == (2, (3, "stop"))


def window_forms(program) -> dict:
    """The positions of each window form: a position's actions and the
    declarations of its window's positions, None past a chain end."""
    decls = [None, *(p.vars for p in program.processes), None]
    forms: dict = {}
    for p in program.processes:
        key = (p.actions, *decls[p.index - 1:p.index + 2])
        forms.setdefault(key, []).append(p.index)
    return forms


def assert_forms_share_rows(program):
    # one rows object per form, shared by every position of the form
    tables = program.windows
    forms = window_forms(program).values()
    assert all(len({id(tables[p - 1].rows) for p in positions}) == 1
               for positions in forms)
    assert len({id(t.rows) for t in tables}) == len(forms)


@pytest.mark.parametrize("make, mapping, forms", [
    (protocols.make_pif, None, 5),
    (protocols.make_alternator, EnabledOutputMapping(), 3),
    (lambda n: protocols.make_cm(range(1, n + 1)), HighestIdMapping(), 3)])
def test_tables_stay_window_sized_on_long_chains(make, mapping, forms):
    # a row's delta moves a window code, not a state id, so it stays below
    # the table's code count however long the chain; a digit table of an
    # output rule names its position's window, as explorer.frozen reads it;
    # the 300 positions have 5, 3 and 3 window forms, each compiled once
    program = make(300).program
    sig, tables = program.signature, program.windows
    assert [(t.lo, t.hi) for t in tables] == [
        (w[0], w[-1] + 1) for w in map(sig.window_slots, sig.positions)]
    assert all(abs(delta) < len(t.rows)
               for t in tables for row in t.rows for _, delta in row)
    assert len(window_forms(program)) == forms
    assert_forms_share_rows(program)
    if mapping is not None:
        assert [d[:2] for d in mapping.bind(program).digits] == \
            [(t.lo, t.hi) for t in tables]


# --------------------------------------------------------------------------
# Random programs: 3 to 5 positions, a boolean x everywhere and a
# three-valued y on at most two positions, so universes stay below 300
# states. Commands mix literals, copies, negations and if/else, and run up
# to three statements, so later statements read earlier writes.

D3 = Domain("d3", ("a", "b", "c"))
OPS = st.sampled_from(("=", "!="))


def _ref(ref):
    return VarRef(ref[0], ref[1])


def _guard(draw, refs, depth=2):
    kind = draw(st.integers(0, 5 if depth else 2))
    if kind == 0:
        return BoolLit(draw(st.booleans()))
    if kind == 1:
        ref = draw(st.sampled_from(refs))
        value = Lit(draw(st.sampled_from(ref[2].values)))
        return Cmp(_ref(ref), draw(OPS), value)
    if kind == 2:
        return Cmp(_ref(draw(st.sampled_from(refs))), draw(OPS),
                   _ref(draw(st.sampled_from(refs))))
    if kind == 3:
        return Not(_guard(draw, refs, depth - 1))
    items = tuple(_guard(draw, refs, depth - 1)
                  for _ in range(draw(st.integers(1, 3))))
    return And(items) if kind == 4 else Or(items)


def _statement(draw, refs, depth=1):
    if depth and draw(st.integers(0, 3)) == 0:
        return If(_guard(draw, refs, 1),
                  _block(draw, refs, 1, depth - 1),
                  _block(draw, refs, 0, depth - 1))
    target = draw(st.sampled_from(refs))
    same = [r for r in refs if r[2] == target[2]]
    kind = draw(st.integers(0, 2 if target[2] == BOOL else 1))
    if kind == 0:
        value = Lit(draw(st.sampled_from(target[2].values)))
    elif kind == 1:
        value = _ref(draw(st.sampled_from(same)))
    else:
        value = NotRef(_ref(draw(st.sampled_from(same))))
    return Assign(_ref(target), value)


def _block(draw, refs, least, depth):
    return tuple(_statement(draw, refs, depth)
                 for _ in range(draw(st.integers(least, 2))))


@st.composite
def programs(draw):
    n = draw(st.integers(3, 5))
    with_y = set(draw(st.lists(st.integers(1, n), max_size=2, unique=True)))
    decls = {pos: (VariableDecl("x", BOOL, draw(st.sampled_from(
                       ("internal", "output")))),)
                  + ((VariableDecl("y", D3),) if pos in with_y else ())
             for pos in range(1, n + 1)}
    processes = []
    for pos in range(1, n + 1):
        refs = [(offset, d.name, d.domain) for offset in (-1, 0, 1)
                for d in decls.get(pos + offset, ())]
        actions = tuple(
            Action("a%d" % k, _guard(draw, refs),
                   _block(draw, refs, 1, 1) + _block(draw, refs, 0, 1))
            for k in range(draw(st.integers(0, 2))))
        processes.append(Process(pos, pos, decls[pos], actions))
    return Program("random", processes)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(programs())
def test_random_programs_compile_to_the_interpreter(program):
    assert_tables_match_interpreter(program)


# Grouped random programs: chains of the shape border · middle* · border,
# as the protocols are. The middle positions share declarations and
# actions, which read only what every middle position's neighbors declare,
# so on chains of 4 or 5 positions several positions share a window form.
# A three-valued y sits on the borders only, so universes stay below 300
# states.

def _common_refs(at, places):
    """The (offset, name, domain) references valid at every position in
    places; at(q) is position q's declarations, () past a chain end."""
    return [(offset, d.name, d.domain) for offset in (-1, 0, 1)
            for d in at(places[0] + offset)
            if all((d.name, d.domain) in {(e.name, e.domain)
                                          for e in at(q + offset)}
                   for q in places)]


@st.composite
def grouped_programs(draw):
    n = draw(st.integers(3, 5))
    role = [0, *[1] * (n - 2), 2]  # border, middle*, border
    x = VariableDecl("x", BOOL, draw(st.sampled_from(("internal", "output"))))
    with_y = set(draw(st.lists(st.sampled_from((0, 2)), max_size=2,
                               unique=True)))
    decls = [(x,) + ((VariableDecl("y", D3),) if r in with_y else ())
             for r in range(3)]
    at = lambda q: decls[role[q - 1]] if 1 <= q <= n else ()
    actions = []
    for r in range(3):
        refs = _common_refs(at, [q for q in range(1, n + 1) if role[q - 1] == r])
        actions.append(tuple(
            Action("a%d" % k, _guard(draw, refs),
                   _block(draw, refs, 1, 1) + _block(draw, refs, 0, 1))
            for k in range(draw(st.integers(0, 2)))))
    return Program("grouped", [Process(q, q, at(q), actions[role[q - 1]])
                               for q in range(1, n + 1)])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(grouped_programs())
def test_grouped_programs_share_forms_and_compile_to_the_interpreter(program):
    assert_forms_share_rows(program)
    assert_tables_match_interpreter(program)


def test_grouped_programs_repeat_their_middle_forms():
    # the strategy above draws chains whose positions share forms, not
    # only chains of distinct ones (21 of its 100 draws here, when y is on
    # neither border and the chain has 4 or 5 positions)
    shared = []

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(grouped_programs())
    def draw(program):
        shared.append(len(window_forms(program)) < program.n)

    draw()
    assert sum(shared) >= 10
