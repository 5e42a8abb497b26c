"""The benchmark pair runner (tools/bench_pairs.py), on stub checkouts whose
bench/run.py prints a canned result, so no benchmark runs."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

#: A stand-in for bench/run.py: its n-th call (counted in a file beside it)
#: reports values[n] for every metric, after a line of other output.
STUB = '''import json
from pathlib import Path
here = Path(__file__).parent
calls = here / "calls"
n = len(calls.read_text()) if calls.exists() else 0
calls.write_text("x" * (n + 1))
value = json.loads((here / "values.json").read_text())[n]
print("measuring")
print(json.dumps({"correct": True, "metrics": {
    m: {"value": value} for m in ("setup_s", "verdict_s", "peak_rss_mb")}}))
'''


def git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=stub", "-c", "user.email=stub@example.com",
         "-c", "commit.gpgsign=false", *args], cwd=root, check=True,
        capture_output=True, text=True).stdout.strip()


def checkout(root: Path, values: list, commit: bool = True) -> Path:
    """A stub checkout, a one-commit git repository unless commit is
    false."""
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(STUB)
    (root / "bench" / "values.json").write_text(json.dumps(values))
    if commit:
        git(root, "init", "-q")
        git(root, "add", "bench")
        git(root, "commit", "-q", "-m", "stub")
    return root


def bench_pairs(tmp_path, parent: list, change: list, *flags: str):
    """Run the tool on two stubs; return (exit code, record or None, the
    number of stub calls on the parent side)."""
    sides = [checkout(tmp_path / side, values)
             for side, values in (("parent", parent), ("change", change))]
    return run_tool(tmp_path, sides, *flags)


def run_tool(tmp_path, sides: list, *flags: str):
    out = tmp_path / "BENCH.json"
    done = subprocess.run([sys.executable, str(TOOL), *map(str, sides),
                           "--out", str(out), "--seconds", "0", *flags],
                          capture_output=True, text=True, timeout=120)
    calls = sides[0] / "bench" / "calls"
    return (done.returncode,
            json.loads(out.read_text()) if out.exists() else None,
            len(calls.read_text()) if calls.exists() else 0)


def test_no_claim_records_null(tmp_path):
    code, record, _ = bench_pairs(tmp_path, [1.0] * 6, [1.0] * 6,
                                  "--pairs", "2")
    assert code == 0
    assert record["claimed"] is None
    # the record names each side's commit
    assert [record["parent_sha"], record["change_sha"]] == [
        git(tmp_path / side, "rev-parse", "HEAD")
        for side in ("parent", "change")]


@pytest.mark.parametrize("unnamed", [0, 1])
def test_a_side_with_no_commit_is_refused_before_any_run(tmp_path, unnamed):
    # the side with no commit is a plain copy inside another checkout,
    # whose commit it must not report as its own
    outer = checkout(tmp_path / "outer", [1.0] * 3)
    sides = [checkout(outer / side if i == unnamed else tmp_path / side,
                      [1.0] * 3, commit=i != unnamed)
             for i, side in enumerate(("parent", "change"))]
    code, record, _ = run_tool(tmp_path, sides, "--pairs", "1")
    assert (code, record) == (2, None)
    assert not any((side / "bench" / "calls").exists() for side in sides)


def test_a_measured_claim_is_recorded(tmp_path):
    code, record, _ = bench_pairs(tmp_path, [1.0] * 3, [1.0] * 3, "--pairs",
                                  "1", "--claim", "impossibility-le9:verdict_s")
    assert code == 0
    assert record["claimed"] == {"workload": "impossibility-le9",
                                 "metric": "verdict_s"}


@pytest.mark.parametrize("claim", ["impossibility-le9", "le9:verdict_s",
                                   "ideal-la14:wall_s", ""])
def test_a_malformed_or_unmeasured_claim_is_refused(tmp_path, claim):
    code, record, calls = bench_pairs(tmp_path, [1.0] * 6, [1.0] * 6,
                                      "--pairs", "2", "--claim", claim)
    assert (code, record, calls) == (2, None, 0)


def test_one_pair_writes_a_record(tmp_path):
    code, record, calls = bench_pairs(tmp_path, [2.0, 3.0, 4.0],
                                      [1.0, 3.0, 5.0], "--pairs", "1")
    assert (code, calls, record["pairs"]) == (0, 3, 1)
    row = record["workloads"]["stabilizing-pif10"]["verdict_s"]
    assert row["parent"] == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    assert row["change"] == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    assert row["change_better_pairs"] == 0
    # the stub's calls run workload by workload within a pair
    assert [record["workloads"][w]["setup_s"]["change_better_pairs"]
            for w in ("ideal-la14", "stabilizing-pif10",
                      "impossibility-le9")] == [1, 0, 0]


def test_change_better_pairs_counts_the_pairs_the_change_won(tmp_path):
    # three pairs of three workloads; the change wins pair 1, ties pair 2
    # and loses pair 3 on every workload and metric
    code, record, _ = bench_pairs(tmp_path, [2.0] * 9,
                                  [1.0] * 3 + [2.0] * 3 + [3.0] * 3,
                                  "--pairs", "3")
    assert code == 0
    for table in record["workloads"].values():
        for row in table.values():
            assert row["change_better_pairs"] == 1
            assert row["parent_runs"] == [2.0] * 3
            assert row["change_runs"] == [1.0, 2.0, 3.0]
