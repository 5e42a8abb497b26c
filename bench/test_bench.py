"""Self-test of the benchmark on tiny instances (la 5, pif 4, le 4).

    python3 -m pytest bench -q

Checks that every metric BENCHMARK.json names is emitted with its unit,
that right answers pass, and that a wrong expected answer shows up in
verdict_errors. Known answers come from the oracles, as for the real
workloads.
"""
import json

import pytest

import oracle
import run
import tracing
from workloads import ROOT, WORKLOADS, Workload, load_answers

TINY = (
    Workload("tiny-la5", "ideal", "la", 5),
    Workload("tiny-pif4", "stabilizing", "pif", 4),
    Workload("tiny-le4", "impossibility", "le", 4),
)
tiny = pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)


def declared(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def wrong_answer(workload: Workload) -> dict:
    expected = oracle.answer(workload)
    expected["edges" if workload.verifies else "closure_size"] += 1
    return expected


@tiny
def test_end_to_end_metrics_are_emitted_with_units(workload):
    result = run.measure(workload, 0, oracle.answer(workload))
    assert units(result) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] == 1
    assert run.verdict_errors(result) == 0


@tiny
def test_layer_metrics_are_emitted_with_units(workload):
    result = tracing.run(workload, 0, oracle.answer(workload))
    assert units(result) == declared("per_layer")
    assert run.verdict_errors(result) == 0


@tiny
def test_wrong_expected_answer_shows_in_verdict_errors(workload):
    expected = wrong_answer(workload)
    assert run.verdict_errors(run.measure(workload, 0, expected)) == 1
    assert run.verdict_errors(tracing.run(workload, 0, expected)) == 1


def test_known_answers_are_the_oracles():
    assert load_answers() == {name: oracle.answer(w)
                              for name, w in WORKLOADS.items()}
