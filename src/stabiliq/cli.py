"""Command line front end.

Four subcommands share one protocol-selection vocabulary (a built-in via
--protocol, or a .gcp file via --file, sized with --n / --ids):

  verify         run a check: closed, convergence, stabilizing, ideal,
                 or pif-coverage; exit 0 iff every selected check holds
  impossibility  merge-closure analysis of a specification universe
  simulate       run the central daemon from a start state, print the
                 trace and its stutter-eliminated image
  export-dot     write the transition system (or its component DAG)
                 as Graphviz source

Exit codes: 0 all checks hold / command succeeded, 1 a check failed
(witness in the report), 2 usage or configuration error. JSON reports
carry a schema_version so downstream consumers can pin their parsers.
"""
from __future__ import annotations

from . import protocols
from .kernel import (DEFAULT_STATE_CAP, DIVERGENCE_ALLOWED,
                     DIVERGENCE_FORBIDDEN, POLICIES, DslError, ModelError,
                     UniverseCapError, every_state, state_cap)

import os
import sys
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # main loads it with the parser, unless merge closure runs
    from .program import Program

SCHEMA_VERSION = 1

CHECKS = ("closed", "convergence", "stabilizing", "ideal", "pif-coverage")
POLICY_WORDS = {"allowed": DIVERGENCE_ALLOWED,
                "forbidden": DIVERGENCE_FORBIDDEN}


class UsageError(ValueError):
    pass


# --------------------------------------------------------------------------
# Protocol selection.

def _add_protocol_options(sub: argparse.ArgumentParser, cap: bool = True):
    sub.add_argument("--protocol", choices=sorted(protocols.BUILDERS),
                     help="a built-in protocol")
    sub.add_argument("--file", metavar="PATH",
                     help="a .gcp protocol source file")
    sub.add_argument("--n", type=int, metavar="N",
                     help="chain length for sized protocols")
    sub.add_argument("--ids", metavar="I,J,...",
                     help="process identifiers for cm, highest priority wins")
    if cap:  # for the commands that list a universe
        sub.add_argument("--cap", type=int, metavar="STATES",
                         help="universe size cap (default %d, or the "
                              "STABILIQ_STATE_CAP environment variable)"
                              % DEFAULT_STATE_CAP)


def _parse_ids(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError("--ids wants a comma-separated list of integers, "
                         "got %r" % text)


def _load(args) -> tuple:
    """Resolve the protocol options to (program, bundle-or-None)."""
    if (args.protocol is None) == (args.file is None):
        raise UsageError("choose exactly one of --protocol and --file")
    if args.ids is not None and args.protocol != "cm":
        raise UsageError("--ids applies only to --protocol cm")
    if args.n is not None and (args.ids is not None or args.protocol == "abp"):
        raise UsageError("--n does not apply to %s" % (
            "--protocol abp" if args.protocol == "abp" else "--ids"))
    if args.n is not None and args.n > args.state_cap:
        raise UsageError("--n must be at most the state cap, %d: one process "
                         "is built per position" % args.state_cap)
    if args.file is not None:
        result = dsl.parse_protocol(_read(args.file), n=args.n)
        if not result.ok:
            raise UsageError("%s does not parse:\n%s" % (
                args.file, "\n".join(str(d) for d in result.diagnostics)))
        return result.program, None

    name = args.protocol
    if name == "cm":
        if args.ids is not None:
            ids = _parse_ids(args.ids)
        elif args.n is not None:
            ids = tuple(range(1, args.n + 1))
        else:
            raise UsageError("cm needs --ids (or --n for identity ids)")
        bundle = protocols.make_cm(ids)
    elif name == "abp":
        bundle = protocols.make_abp()
    else:
        if args.n is None:
            raise UsageError("%s needs --n" % name)
        bundle = protocols.BUILDERS[name](args.n)
    return bundle.program, bundle


def _resolve_predicate(bundle, name: Optional[str]):
    """The named predicate, or the protocol's default invariant when the
    name is empty; a protocol from a file has only "true"."""
    if bundle is None:
        table, default = {"true": every_state}, "true"
    else:
        table, default = bundle.invariants, bundle.default_invariant
    name = name or default
    if name not in table:
        raise UsageError("unknown predicate %r; available: %s"
                         % (name, ", ".join(sorted(table))))
    return table[name]


# --------------------------------------------------------------------------
# verify.

def _selected_check(args, program: Program, bundle):
    """The selected check as a function of the transition system. Every
    usage error is raised here, before the universe is built."""
    if args.check in ("closed", "convergence"):
        pred = _resolve_predicate(bundle, args.predicate)
        check = specs.check_closed if args.check == "closed" \
            else specs.check_convergence
        return lambda ts: check(program, pred, ts=ts)
    if bundle is None:
        raise UsageError("%s checks need a built-in protocol" % args.check)
    spec = bundle.ideal_spec if args.check == "ideal" \
        else bundle.strict_spec or bundle.ideal_spec
    if args.stutter_policy is not None:
        spec = spec.with_policy(POLICY_WORDS[args.stutter_policy])
    if args.check == "ideal":
        return lambda ts: specs.check_ideal_stabilizing(
            program, bundle.mapping, spec, ts=ts)
    invariant = _resolve_predicate(bundle, args.invariant)
    return lambda ts: specs.check_stabilizing(
        program, bundle.mapping, spec, invariant, ts=ts)


def cmd_verify(args) -> int:
    for flag, checks in (("predicate", ("closed", "convergence")),
                         ("invariant", ("stabilizing",)),
                         ("stutter_policy", ("stabilizing", "ideal"))):
        if getattr(args, flag) is not None and args.check not in checks:
            raise UsageError("--%s does not apply to --check %s"
                             % (flag.replace("_", "-"), args.check))
    program, bundle = _load(args)
    if args.check == "pif-coverage":
        if bundle is None or bundle.name != "pif":
            raise UsageError("pif-coverage applies to --protocol pif")
        verdict = specs.pif_coverage(program, args.cap)
    else:
        check = _selected_check(args, program, bundle)
        verdict = check(explorer.build_transition_system(program,
                                                         cap=args.cap))

    print("protocol %s  chain length %d  universe %d states"
          % (program.name, program.n, program.signature.size))
    print(verdict.summary())
    stats = "  ".join("%s=%s" % (k, v) for k, v in verdict.stats.items())
    print("  stats: %s" % stats)
    print("verify: %s" % ("ok" if verdict.holds else "FAILED"))

    if args.json:
        report = {
            "schema_version": SCHEMA_VERSION,
            "tool": "stabiliq",
            "command": "verify",
            "protocol": program.name,
            "n": program.n,
            "universe": program.signature.size,
            "ok": verdict.holds,
            "verdicts": [verdict.to_dict()],
        }
        _write_json(args.json, report)
    return 0 if verdict.holds else 1


# --------------------------------------------------------------------------
# impossibility.

def cmd_impossibility(args) -> int:
    if args.protocol and (args.allowed_file or args.disallowed_file):
        raise UsageError("give one of the two inputs: --protocol le with "
                         "--n, or --allowed-file and --disallowed-file")
    if args.protocol == "le":
        if args.n is None:
            raise UsageError("le needs --n")
        # refuse counts past Python's int-to-text digit limit, if it has
        # one; 4^n >= 16^limit > 10^limit once n >= 2·limit
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and 4 ** min(args.n, 2 * limit) >= 10 ** limit:
            raise UsageError(
                "le at N = %d has 4^%d states, a count of more than %d "
                "digits, Python's limit for printing an int "
                "(PYTHONINTMAXSTRDIGITS)" % (args.n, args.n, limit))
        fixture = protocols.make_le(args.n)
        sig = fixture.signature
        allowed, disallowed = fixture.automaton, None
        subject = "le chain length %d" % args.n
    elif args.allowed_file and args.disallowed_file:
        sig, (allowed, disallowed) = merge.read_spec_state_sets(
            _read(args.allowed_file), _read(args.disallowed_file))
        subject = "%s / %s" % (args.allowed_file, args.disallowed_file)
    else:
        raise UsageError("provide --protocol le with --n, or both "
                         "--allowed-file and --disallowed-file")

    result = merge.check_ideal_possibility(allowed, disallowed, sig)
    print("specification universe: %s  (%d states, %d allowed)"
          % (subject, result.universe_size, result.allowed_size))
    if result.possible:
        print("verdict: possible  (the allowed set is closed under merging; "
              "closure size %d)" % result.closure_size)
    else:
        print("verdict: impossible")
        print("  witness: %s" % result.witness.text())
        print("  merged into the allowed set at generation %d"
              % result.generation)
        print("  every program whose specification forces the allowed set "
              "can be driven into this disallowed state")
    if args.json:
        # the result's fields in order, the witness as text
        report = {"schema_version": SCHEMA_VERSION, "tool": "stabiliq",
                  "command": "impossibility", "subject": subject,
                  **vars(result), "witness": None if result.witness is None
                  else result.witness.text()}
        _write_json(args.json, report)
    return 0


# --------------------------------------------------------------------------
# simulate.

def cmd_simulate(args) -> int:
    program, bundle = _load(args)
    if args.steps < 0:
        raise UsageError("--steps must be nonnegative")
    start = simulation.start_state(program, args.start, args.seed)
    comp = simulation.run(program, start, steps=args.steps, seed=args.seed,
                          policy=args.policy)
    print("protocol %s  policy %s  seed %d" % (program.name, args.policy,
                                               args.seed))
    print("%6s  %-14s %s" % ("step", "action", "state"))
    print("%6d  %-14s %s" % (0, "-", comp.states[0].text()))
    for i, (pos, action) in enumerate(comp.labels):
        print("%6d  %-14s %s" % (i + 1, "p%d:%s" % (pos, action),
                                 comp.states[i + 1].text()))
    if comp.hit_terminal:
        print("terminal state: no action is enabled")
    elif comp.lasso_start is not None:
        print("lasso: the final state first appeared at step %d; the daemon "
              "can repeat the loop forever" % comp.lasso_start)
    else:
        print("step budget exhausted before a terminal or a revisit")

    # A protocol from a file maps identically, unless it has an internal
    # variable: then it has no image.
    try:
        mapping = bundle.mapping if bundle else mappingmod.IdenticalMapping()
        bound = mapping.bind(program)
    except mappingmod.MappingError:
        return 0
    print("specification image (stutters removed):")
    for since, image in simulation.stutter_free(map(bound, comp.states)):
        print("        %s" % image.text())
    if comp.lasso_start is not None and since <= comp.lasso_start:
        print("stutter divergence: the lasso leaves the image constant")
    return 0


# --------------------------------------------------------------------------
# export-dot.

def cmd_export_dot(args) -> int:
    if args.condensed and args.color is not None:
        raise UsageError("--color does not apply to --condensed")
    program, bundle = _load(args)
    ts = explorer.build_transition_system(program, cap=args.cap)
    color_pred = None
    if args.color:
        color_pred = _resolve_predicate(bundle, args.color)
    if args.condensed:
        out = text.condensation_to_dot(ts, explorer.condense(ts),
                                       name=program.name)
    else:
        out = text.to_dot(ts, color_pred=color_pred, name=program.name)
    if args.output:
        _write(args.output, out)
        print("wrote %s  (%d states, %d edges)"
              % (args.output, ts.size, ts.edge_count()))
    else:
        sys.stdout.write(out)
    return 0


# --------------------------------------------------------------------------
# Plumbing.

def _read(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(str(exc))
    except UnicodeDecodeError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc))


def _write(path: str, text: str):
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(str(exc))


def _write_json(path: str, report: dict):
    import json
    _write(path, json.dumps(report, indent=2) + "\n")
    print("json report: %s" % path)


def build_parser() -> argparse.ArgumentParser:
    import argparse
    import json  # noqa: F401, loaded with argparse, after every compile
    parser = argparse.ArgumentParser(
        prog="stabiliq",
        description="verification workbench for ideally stabilizing "
                    "chain protocols")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_verify = sub.add_parser(
        "verify", help="check a protocol against its specification")
    _add_protocol_options(p_verify)
    p_verify.add_argument("--check", choices=CHECKS, required=True)
    p_verify.add_argument("--predicate", metavar="NAME",
                          help="state predicate for closed/convergence "
                               "checks (default: the protocol's invariant)")
    p_verify.add_argument("--invariant", metavar="NAME",
                          help="invariant for the stabilizing check")
    p_verify.add_argument("--stutter-policy", choices=sorted(POLICY_WORDS),
                          help="override the specification's stutter "
                               "divergence policy")
    p_verify.add_argument("--json", metavar="PATH",
                          help="also write a JSON report")
    p_verify.set_defaults(func=cmd_verify)

    p_imp = sub.add_parser(
        "impossibility",
        help="merge-closure analysis of a specification universe")
    p_imp.add_argument("--protocol", choices=["le"],
                       help="a built-in specification fixture")
    p_imp.add_argument("--n", type=int, metavar="N")
    p_imp.add_argument("--allowed-file", metavar="PATH",
                       help="file of allowed spec states, one per line")
    p_imp.add_argument("--disallowed-file", metavar="PATH",
                       help="file of disallowed spec states, one per line")
    p_imp.add_argument("--json", metavar="PATH",
                       help="also write a JSON report")
    p_imp.set_defaults(func=cmd_impossibility)

    p_sim = sub.add_parser(
        "simulate", help="run the central daemon and print the trace")
    _add_protocol_options(p_sim, cap=False)
    p_sim.add_argument("--from", dest="start", default="random",
                       metavar="STATE",
                       help="start state: canonical var=value text, "
                            "all-idle, all-false, or random (default)")
    p_sim.add_argument("--policy", choices=POLICIES,
                       default="uniform-random")
    p_sim.add_argument("--steps", type=int, default=20)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_dot = sub.add_parser(
        "export-dot", help="write the transition system as Graphviz source")
    _add_protocol_options(p_dot)
    p_dot.add_argument("-o", "--output", metavar="PATH",
                       help="output file (default: standard output)")
    p_dot.add_argument("--condensed", action="store_true",
                       help="export the component DAG instead of the "
                            "full system")
    p_dot.add_argument("--color", metavar="NAME",
                       help="fill states satisfying this named predicate")
    p_dot.set_defaults(func=cmd_export_dot)
    return parser


def main(argv: Optional[list] = None) -> int:
    # Bind the command's modules, compiled before argparse and json load: a
    # compile after them leaves the memory it frees resident, about 0.75 MB
    # more peak RSS. No check compiles merge closure, simulation or text
    # output, merge closure no parser, mapping or explorer, simulate no
    # explorer or specs, and export-dot no specs until --color reads one.
    global dsl, explorer, mappingmod, merge, simulation, specs, text
    command = (sys.argv[1:] if argv is None else list(argv))[:1]
    if command == ["impossibility"]:
        from . import merge
    elif command == ["simulate"]:
        from . import dsl, mapping as mappingmod, simulation
    elif command == ["verify"]:
        from . import dsl, explorer, specs
    elif command == ["export-dot"]:
        from . import dsl, explorer, mapping as mappingmod, text
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 2
    try:
        # a malformed STABILIQ_STATE_CAP stops every command, merge closure too
        args.state_cap = state_cap()
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except (UsageError, UniverseCapError, ModelError, DslError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout at devnull keeps the last flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed early", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
