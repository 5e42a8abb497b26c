"""What each entry point loads: the package imports its modules on demand,
and the command line compiles the modules its command needs before argparse
and json."""
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import stabiliq
from stabiliq import replace
from stabiliq.kernel import every_state

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: The public names, as the package listed them when it imported every
#: module up front.
PUBLIC = {
    "Action", "BOOL", "Domain", "EnabledOutputMapping", "HighestIdMapping",
    "IdenticalMapping", "ModelError", "ParseResult", "Process", "Program",
    "ProjectionMapping", "Specification", "State", "Verdict",
    "build_transition_system", "check_closed", "check_convergence",
    "check_ideal_possibility", "check_ideal_stabilizing",
    "check_merge_symmetry", "check_stabilizing", "condense",
    "make_abp", "make_alternator", "make_cm", "make_le", "make_pif",
    "merge_closure", "parse_protocol", "render", "replace", "run",
    "VariableDecl", "__version__",
}


def fresh(code: str, *flags: str):
    """Run code in a fresh interpreter on this checkout's package and return
    the JSON value of its last output line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


LOADED = ("import json, sys; print(json.dumps(sorted(m for m in sys.modules "
          "if m in {names!r} or m.startswith('stabiliq.'))))")


def test_importing_the_package_loads_no_submodule():
    code = "import stabiliq; " + LOADED.format(names=set())
    assert fresh(code) == []


def test_the_leader_election_fixture_parses_nothing_and_explores_nothing():
    # without site, nothing preloads importlib.resources; a fixture is no
    # program and binds no mapping, so stabiliq.program and stabiliq.mapping
    # stay unloaded too, and so does the engine until a state set is read
    code = "import stabiliq; stabiliq.make_le(9); " + LOADED.format(
        names={"importlib.resources"})
    assert fresh(code, "-S") == ["stabiliq.kernel", "stabiliq.protocols"]
    code = "import stabiliq; stabiliq.make_le(4).allowed; " + LOADED.format(
        names=set())
    assert fresh(code, "-S") == ["stabiliq.kernel", "stabiliq.merge",
                                 "stabiliq.protocols"]


@pytest.mark.parametrize("call", ["make_cm((2, 1, 3))", "make_alternator(14)",
                                  "make_pif(10)", "make_abp()"])
def test_a_program_bundle_builds_without_the_explorer(call):
    # nor specs, which the bundle loads when a specification is first read,
    # nor the engine, nor importlib.resources, unloaded without site
    code = "import stabiliq; stabiliq.%s; " % call + LOADED.format(
        names={"importlib.resources"})
    assert fresh(code, "-S") == ["stabiliq.dsl", "stabiliq.kernel",
                                 "stabiliq.mapping", "stabiliq.program",
                                 "stabiliq.protocols"]


def bundles() -> list:
    return [stabiliq.make_cm((2, 1, 3)), stabiliq.make_alternator(5),
            stabiliq.make_pif(4), stabiliq.make_abp()]


def test_a_bundle_builds_its_specifications_once():
    for bundle in bundles():
        calls, make = [], bundle.make_specs
        bundle = replace(bundle, make_specs=lambda specs:
                         calls.append(1) or make(specs))
        first = bundle.ideal_spec, bundle.strict_spec, bundle.invariants
        assert len(calls) == 1
        second = bundle.invariants, bundle.strict_spec, bundle.ideal_spec
        assert all(a is b for a, b in zip(first, reversed(second)))
        assert bundle.spec is bundle.ideal_spec and len(calls) == 1


def test_the_specifications_read_are_the_ones_specs_builds():
    from stabiliq import specs
    cm, la, pif, abp = (
        (b.ideal_spec, b.strict_spec, b.invariants) for b in bundles())
    true = {"true": every_state}
    assert cm == (specs.udp_spec(), None, true)
    assert la == (specs.fdp_spec(5), None, true)
    assert la[0] != specs.fdp_spec(6)
    assert pif == (specs.ipif_spec(), specs.spif_spec(),
                   {"rq-or-rp": specs.pif_wave,
                    "root-idle": specs.pif_root_idle, **true})
    assert abp == (specs.iabp_spec(), specs.sabp_spec(),
                   {"legitimate": specs.abp_legitimate, **true})


#: Run one command in a fresh interpreter; print the modules loaded before
#: it, and every module in load order.
COMMAND = ("import sys; before = sorted({{'argparse', 'json'}} & "
           "set(sys.modules)); from stabiliq import cli; "
           "cli.main({argv!r}); order = list(sys.modules); import json; "
           "print(json.dumps([before, order]))")


def compile_order(*argv: str) -> list:
    """The command's load order, after checking that neither argparse nor
    json was loaded before it ran."""
    before, order = fresh(COMMAND.format(argv=list(argv)), "-S")
    assert before == []
    return order


def loaded_before_argparse_and_json(order: list) -> list:
    """The package modules other than cli loaded before argparse and json
    (a module moves to the end of sys.modules when its import finishes, so
    cli's place shows nothing)."""
    first = min(order.index("argparse"), order.index("json"))
    return sorted(m for m in order[:first]
                  if m.startswith("stabiliq.") and m != "stabiliq.cli")


def loaded(order: list) -> list:
    return sorted(m for m in order if m.startswith("stabiliq."))


def test_the_impossibility_command_compiles_only_what_merge_closure_needs():
    order = compile_order("impossibility", "--protocol", "le", "--n", "9")
    assert loaded_before_argparse_and_json(order) == [
        "stabiliq.kernel", "stabiliq.merge", "stabiliq.protocols"]
    # no binding module either: a fixture binds no mapping
    assert loaded(order) == ["stabiliq.cli", "stabiliq.kernel",
                             "stabiliq.merge", "stabiliq.protocols"]


@pytest.mark.parametrize("argv", [
    ("simulate", "--protocol", "cm", "--ids", "2,1,3", "--steps", "5"),
    ("simulate", "--protocol", "la", "--n", "5", "--steps", "5"),
    ("simulate", "--protocol", "pif", "--n", "5", "--steps", "5"),
    ("simulate", "--protocol", "abp", "--steps", "5")],
    ids=["cm", "la", "pif", "abp"])
def test_the_simulate_command_compiles_no_specification(argv):
    # nor the explorer, the engine or the Graphviz text
    order = compile_order(*argv)
    assert loaded_before_argparse_and_json(order) == [
        "stabiliq.dsl", "stabiliq.kernel", "stabiliq.mapping",
        "stabiliq.program", "stabiliq.protocols", "stabiliq.simulation"]
    assert loaded(order) == ["stabiliq.cli"] + \
        loaded_before_argparse_and_json(order)


#: What a check compiles: every module but merge closure (stabiliq.merge),
#: simulation and text output.
CHECKING = ["stabiliq.dsl", "stabiliq.explorer", "stabiliq.kernel",
            "stabiliq.mapping", "stabiliq.program", "stabiliq.protocols",
            "stabiliq.specs"]


#: What export-dot compiles first: the same, but text output for specs.
DRAWING = sorted(set(CHECKING) - {"stabiliq.specs"} | {"stabiliq.text"})


@pytest.mark.parametrize("argv, modules, later", [
    (("verify", "--check", "ideal", "--protocol", "la", "--n", "4"),
     CHECKING, []),
    (("verify", "--check", "stabilizing", "--protocol", "pif", "--n", "4"),
     CHECKING, []),
    (("verify", "--check", "ideal", "--protocol", "cm", "--ids", "2,1,3"),
     CHECKING, []),
    (("export-dot", "--protocol", "abp"), DRAWING, []),
    (("export-dot", "--protocol", "abp", "--color", "legitimate"),
     DRAWING, ["stabiliq.specs"]),
    ((), ["stabiliq.kernel", "stabiliq.protocols"], []),
    (("no-such-command",), ["stabiliq.kernel", "stabiliq.protocols"], [])],
    ids=["verify-la", "verify-pif", "verify-cm", "export-dot",
         "export-dot-color", "no-command", "unknown"])
def test_every_other_command_compiles_what_it_runs_first(argv, modules,
                                                         later):
    # export-dot compiles specs only when --color reads a predicate, and the
    # bundle loads it then
    order = compile_order(*argv)
    assert loaded_before_argparse_and_json(order) == sorted(modules)
    assert loaded(order) == sorted(["stabiliq.cli"] + modules + later)
    # a new module is placed in this table before the test passes again
    assert len(list(pkgutil.iter_modules(stabiliq.__path__))) == 12


def test_the_mapping_module_forwards_the_tracers_engine_functions():
    from stabiliq import mapping, merge
    assert mapping.check_ideal_possibility is merge.check_ideal_possibility
    assert mapping.merge_closure_generations is \
        merge.merge_closure_generations
    with pytest.raises(AttributeError, match="no attribute 'merge_closure'"):
        mapping.merge_closure


def test_every_public_name_resolves():
    assert set(stabiliq.__all__) == PUBLIC
    assert PUBLIC <= set(dir(stabiliq))
    for name in stabiliq.__all__:
        assert getattr(stabiliq, name) is not None
    assert stabiliq.make_le is stabiliq.protocols.make_le
    namespace = {}
    exec("from stabiliq import *", namespace)
    assert PUBLIC <= set(namespace)
    assert namespace["condense"] is stabiliq.explorer.condense
    assert namespace["run"] is stabiliq.simulation.run
    assert namespace["render"] is stabiliq.text.render
    assert namespace["merge_closure"] is stabiliq.merge.merge_closure
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        stabiliq.no_such_name
    with pytest.raises(ImportError):
        exec("from stabiliq import no_such_name", {})
