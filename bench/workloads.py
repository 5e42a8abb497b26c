"""The benchmark's workloads and the known answers every run is held to.

A workload is one fixed `stabiliq` invocation. Inputs are deterministic
instances (a protocol and a chain length), so nothing here is seeded.
Known answers live in known_answers.json and come from bench/oracle.py,
which derives them from the independent oracles in tests/helpers.py.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ANSWERS = Path(__file__).resolve().parent / "known_answers.json"

BUILDERS = {"la": "make_alternator", "pif": "make_pif", "le": "make_le"}

# Fields of a JSON report that a run is compared on. elapsed_ms is never
# read: it is a timing, not an answer.
VERIFY_COUNTS = ("states", "edges", "invariant_states", "components",
                 "bottom_components")
IMPOSSIBILITY_FIELDS = ("possible", "witness", "generation", "closure_size",
                        "allowed_size", "universe_size")


@dataclass(frozen=True)
class Workload:
    """check is "ideal" or "stabilizing" for `stabiliq verify`, or
    "impossibility" for `stabiliq impossibility`."""

    name: str
    check: str
    protocol: str
    n: int

    @property
    def verifies(self) -> bool:
        return self.check != "impossibility"

    @property
    def argv(self) -> tuple:
        if self.verifies:
            return ("verify", "--check", self.check, "--protocol",
                    self.protocol, "--n", str(self.n))
        return ("impossibility", "--protocol", self.protocol,
                "--n", str(self.n))

    @property
    def builder(self) -> str:
        return BUILDERS[self.protocol]

    def fields(self, report: dict, exit_code: int) -> dict:
        """The answer-bearing fields of a CLI JSON report (or of an
        in-process result put in the same shape)."""
        out = {"exit_code": exit_code}
        if self.verifies:
            verdict = report["verdicts"][0]
            out["holds"] = verdict["holds"]
            out["witness"] = verdict["witness"]
            out.update((k, verdict["stats"][k]) for k in VERIFY_COUNTS)
        else:
            out.update((k, report[k]) for k in IMPOSSIBILITY_FIELDS)
        return out


WORKLOADS = {w.name: w for w in (
    Workload("ideal-la14", "ideal", "la", 14),
    Workload("stabilizing-pif10", "stabilizing", "pif", 10),
    Workload("impossibility-le9", "impossibility", "le", 9),
)}


def load_answers() -> dict:
    with open(ANSWERS) as handle:
        return json.load(handle)


def mismatches(expected: dict, got: dict) -> list:
    """Names of the fields where a run's answer differs from the known one."""
    return sorted(k for k in expected if got.get(k) != expected[k])
