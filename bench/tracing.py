"""The traced, in-process run: per-layer times and counts.

Each iteration calls the public functions of stabiliq in the command line's
order, then times standalone passes over single layers. Every call sits in
a perf_counter span (name, start, end, parent) recorded by the benchmark,
not by the program. Every workload walks the same stages: a stage whose
layer the workload does not use does nothing, so its span measures only
its own entry and exit, and its counts read 0.
"""
from __future__ import annotations

import gc
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

import speed
from workloads import SRC, Workload, mismatches

sys.path.insert(0, str(SRC))

from stabiliq import explorer, kernel, mapping, protocols, specs  # noqa: E402

MB = 1 << 20

# name -> unit, in report order.
LAYER_METRICS = {
    "traced.pipeline_s": "s",
    "protocols.build_s": "s",
    "explorer.build_s": "s",
    "explorer.states": "count",
    "explorer.edges": "count",
    "explorer.ts_mb": "MB",
    "explorer.condense_s": "s",
    "explorer.components": "count",
    "explorer.bottoms": "count",
    "kernel.step_s": "s",
    "kernel.guard_evals": "count",
    "kernel.enabled_ratio": "ratio",
    "mapping.map_s": "s",
    "mapping.images": "count",
    "specs.pred_s": "s",
    "specs.check_s": "s",
    "specs.check_self_s": "s",
    "mapping.merge_closure_s": "s",
    "mapping.candidates": "count",
    "mapping.closure_size": "count",
    "mapping.generations": "count",
}

COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS.items()
                      if unit in ("count", "ratio"))

# Span name -> metric; the metric is the median span duration.
SPAN_METRICS = {
    "pipeline": "traced.pipeline_s",
    "protocols.build": "protocols.build_s",
    "explorer.build_transition_system": "explorer.build_s",
    "explorer.condense": "explorer.condense_s",
    "kernel.step": "kernel.step_s",
    "mapping.map": "mapping.map_s",
    "specs.pred": "specs.pred_s",
    "specs.check": "specs.check_s",
    "mapping.merge_closure_generations": "mapping.merge_closure_s",
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def durations(self) -> dict:
        return {name: end - start for name, start, end, _ in self.spans}


def _invariant(workload: Workload, bundle):
    if workload.check == "ideal":
        return lambda s: True
    return bundle.invariants[bundle.default_invariant]


def _check(workload: Workload, bundle, ts) -> specs.Verdict:
    """The check `stabiliq verify` runs for this workload."""
    program = bundle.program
    if workload.check == "ideal":
        return specs.check_ideal_stabilizing(program, bundle.mapping,
                                             bundle.ideal_spec, ts=ts)
    return specs.check_stabilizing(
        program, bundle.mapping, bundle.strict_spec or bundle.ideal_spec,
        _invariant(workload, bundle), ts=ts)


def iteration(workload: Workload, tracer: Tracer) -> tuple:
    """One traced pass. Returns (answer fields, counts)."""
    verifies = workload.verifies
    builder = getattr(protocols, workload.builder)
    with tracer.span("pipeline"):
        with tracer.span("protocols.build"):
            subject = builder(workload.n)
        with tracer.span("explorer.build_transition_system"):
            ts = (explorer.build_transition_system(subject.program)
                  if verifies else None)
        with tracer.span("specs.check"):
            verdict = _check(workload, subject, ts) if verifies else None
        with tracer.span("mapping.check_ideal_possibility"):
            result = None if verifies else mapping.check_ideal_possibility(
                subject.allowed, subject.disallowed, subject.signature)

    counts = dict.fromkeys(COUNT_METRICS, 0)
    program = subject.program if verifies else None
    with tracer.span("kernel.step"):
        if verifies:
            enabled = 0
            for s in ts.states:
                moves = kernel.enabled_actions(program, s)
                for pos, name in moves:
                    kernel.apply(program, s, pos, name)
                enabled += len(moves)
            # enabled_actions evaluates every action's guard at every state
            evals = ts.size * sum(len(p.actions) for p in program.processes)
            counts["kernel.guard_evals"] = evals
            counts["kernel.enabled_ratio"] = enabled / evals
    with tracer.span("explorer.condense"):
        cond = explorer.condense(ts) if verifies else None
    with tracer.span("mapping.map"):
        if verifies:
            bound = subject.mapping.bind(program)
            mapped = [bound(s) for s in ts.states]
    with tracer.span("specs.pred"):
        if verifies:
            invariant = _invariant(workload, subject)
            inside = [invariant(s) for s in ts.states]
    with tracer.span("mapping.merge_closure_generations"):
        gens = None if verifies else mapping.merge_closure_generations(
            subject.allowed, subject.signature)

    if verifies:
        counts["explorer.states"] = ts.size
        counts["explorer.edges"] = ts.edge_count()
        counts["explorer.components"] = len(cond.components)
        counts["explorer.bottoms"] = len(cond.bottoms)
        counts["mapping.images"] = len(set(mapped))
        fields = workload.fields({"verdicts": [verdict.to_dict()]},
                                 0 if verdict.holds else 1)
    else:
        counts["mapping.candidates"] = (subject.signature.size
                                        - len(subject.allowed))
        counts["mapping.closure_size"] = len(gens)
        counts["mapping.generations"] = max(gens.values())
        fields = workload.fields({
            "possible": result.possible,
            "witness": None if result.witness is None
            else result.witness.text(),
            "generation": result.generation,
            "closure_size": result.closure_size,
            "allowed_size": result.allowed_size,
            "universe_size": result.universe_size,
        }, 0)
    return fields, counts


def ts_megabytes(workload: Workload) -> float:
    """Memory the transition system holds, from tracemalloc in a pass of its
    own so that no timing pays for tracing allocations."""
    if not workload.verifies:
        return 0.0
    program = getattr(protocols, workload.builder)(workload.n).program
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ts = explorer.build_transition_system(program)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / MB


def run(workload: Workload, seconds: float, expected: dict) -> dict:
    """Traced iterations for `seconds` (at least one). Returns the metrics,
    with times scaled to the reference speed, the attempt and failure
    counts, and the unscaled spans and scale factor of every iteration."""
    deadline = time.perf_counter() + seconds
    ts_mb = ts_megabytes(workload)
    durations, spans, factors, first_counts = [], [], [], None
    attempted = failed = 0
    scale = speed.Scale()
    while True:
        gc.collect()
        tracer = Tracer()
        fields, counts = iteration(workload, tracer)
        factors.append(scale.factor())
        wrong = mismatches(expected, fields)
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            wrong.append("counts changed between iterations")
        attempted += 1
        failed += bool(wrong)
        if wrong:
            print("traced iteration %d: wrong %s" % (attempted,
                                                     ", ".join(wrong)))
        durations.append({name: d * factors[-1]
                          for name, d in tracer.durations().items()})
        spans.append(tracer.spans)
        if time.perf_counter() >= deadline:
            break
    values = dict(first_counts, **{"explorer.ts_mb": ts_mb})
    for span, metric in SPAN_METRICS.items():
        values[metric] = statistics.median(d[span] for d in durations)
    inner = ("explorer.condense", "mapping.map", "specs.pred")
    values["specs.check_self_s"] = statistics.median(
        d["specs.check"] - (sum(d[k] for k in inner) if workload.verifies
                            else 0.0)
        for d in durations)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in LAYER_METRICS.items()}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "spans": spans, "factors": factors}
