"""stabiliq: a verification workbench for ideally stabilizing chain
protocols.

The package builds guarded-command programs on chains of processes,
explores their full state universe under a central daemon, and decides
closure, convergence, stabilization, and ideal stabilization against
small executable specifications. A merge-closure engine answers whether
an ideally stabilizing implementation of a specification can exist at
all, and a tiny protocol language round-trips the built-in examples.
"""

__version__ = "0.1.0"

#: Each public name's module, imported on the name's first use (PEP 562).
_HOME = {name: module for module, names in {
    "dsl": "ParseResult parse_protocol",
    "explorer": "build_transition_system condense",
    "kernel": "BOOL Domain ModelError State replace",
    "mapping": "EnabledOutputMapping HighestIdMapping IdenticalMapping "
               "ProjectionMapping",
    "merge": "check_ideal_possibility check_merge_symmetry merge_closure",
    "program": "Action Process Program VariableDecl",
    "protocols": "make_abp make_alternator make_cm make_le make_pif",
    "simulation": "run",
    "specs": "Specification Verdict check_closed check_convergence "
             "check_ideal_stabilizing check_stabilizing",
    "text": "render",
}.items() for name in names.split()}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # from .module import name, which -X importtime times like any import
    module = __import__(_HOME[name], globals(), None, (name,), 1)
    return globals().setdefault(name, getattr(module, name))  # hook runs once


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
