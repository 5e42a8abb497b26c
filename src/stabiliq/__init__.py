"""stabiliq: a verification workbench for ideally stabilizing chain
protocols.

The package builds guarded-command programs on chains of processes,
explores their full state universe under a central daemon, and decides
closure, convergence, stabilization, and ideal stabilization against
small executable specifications. A merge-closure engine answers whether
an ideally stabilizing implementation of a specification can exist at
all, and a tiny protocol language round-trips the built-in examples.
"""

from .dsl import ParseResult, parse_protocol, render
from .explorer import build_transition_system, condense, run
from .kernel import (BOOL, Action, Domain, ModelError, Process, Program,
                     State, VariableDecl, replace)
from .mapping import (EnabledOutputMapping, HighestIdMapping,
                      IdenticalMapping, ProjectionMapping,
                      check_ideal_possibility, check_merge_symmetry,
                      merge_closure)
from .protocols import make_abp, make_alternator, make_cm, make_le, make_pif
from .specs import (Specification, Verdict, check_closed, check_convergence,
                    check_ideal_stabilizing, check_stabilizing)

__version__ = "0.1.0"

__all__ = [
    "Action", "BOOL", "Domain", "EnabledOutputMapping", "HighestIdMapping",
    "IdenticalMapping", "ModelError", "ParseResult", "Process", "Program",
    "ProjectionMapping", "Specification", "State", "Verdict",
    "build_transition_system", "check_closed", "check_convergence",
    "check_ideal_possibility", "check_ideal_stabilizing",
    "check_merge_symmetry", "check_stabilizing", "condense",
    "make_abp", "make_alternator", "make_cm", "make_le", "make_pif",
    "merge_closure", "parse_protocol", "render", "replace", "run",
    "VariableDecl",
    "__version__",
]
