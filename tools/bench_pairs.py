"""Compare the benchmark's end-to-end metrics between two checkouts.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_N.json \\
        [--claim impossibility-le9:setup_s] [--pairs 10] [--seconds 5] \\
        [--seed 1]

Each checkout is a git checkout of the repository (`git clone` or `git
worktree add`), so the record can name its commit: a side with no commit of
its own is refused before any run.
A pair runs `bench/run.py --trace 0` once per workload on both checkouts,
and the side that runs first alternates from pair to pair. Each run's
medians are read off the JSON line that bench/run.py prints last (times
scaled to its reference speed). The output file holds every run's median
and, per workload and metric, each side's median and quartiles over the runs
and the number of pairs in which the change did better. The record names
the --claim, a measured workload and metric, or null when the change claims
no gain. A wrong answer in any run stops the script.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("ideal-la14", "stabilizing-pif10", "impossibility-le9")
METRICS = ("setup_s", "verdict_s", "peak_rss_mb")  # lower is better


def run(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One bench/run.py run: its metric medians by name."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds",
         str(seconds), "--seed", str(seed), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit("%s: wrong answer on %s\n%s" % (checkout, workload,
                                                 done.stdout))
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list) -> dict:
    if len(values) == 1:  # one run has no spread
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def head(checkout: Path):
    """The checkout's commit sha, or None; as in bench/run.py, git looks no
    higher than the checkout, so a copy inside another checkout has none."""
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=str(checkout.resolve().parent))
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, env=env,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def src_lines(checkout: Path) -> int:
    return sum(len(path.read_bytes().splitlines())
               for path in (checkout / "src").rglob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="the workload and metric the change claims "
                             "to improve; omit it for no claim")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    claimed = None
    if args.claim is not None:
        workload, colon, metric = args.claim.partition(":")
        if not colon or workload not in WORKLOADS or metric not in METRICS:
            parser.error("--claim wants WORKLOAD:METRIC, a workload of %s "
                         "and a metric of %s; got %r" % (
                             ", ".join(WORKLOADS), ", ".join(METRICS),
                             args.claim))
        claimed = {"workload": workload, "metric": metric}
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": args.parent, "change": args.change}
    shas = {side: head(path) for side, path in sides.items()}
    for side, sha in shas.items():
        if sha is None:
            parser.error("the %s side, %s, is not a git checkout, so the "
                         "record cannot name its commit" % (side, sides[side]))
    runs = {w: {side: [] for side in sides} for w in WORKLOADS}
    for pair in range(args.pairs):
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        for workload in WORKLOADS:
            for side in order:
                runs[workload][side].append(
                    run(sides[side], workload, args.seconds, args.seed))
        print("pair %d of %d done" % (pair + 1, args.pairs), flush=True)
    report = {
        "description": (
            "End-to-end metrics of bench/run.py (--trace 0, --seed %d, "
            "--seconds %g per run) on the parent commit and on this change, "
            "in alternating pairs (the side that ran first alternates); each "
            "value below is one run's median, as bench/run.py reports it "
            "(times scaled to the reference speed)."
            % (args.seed, args.seconds)),
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "src_lines": {side: src_lines(path) for side, path in sides.items()},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "pairs": args.pairs,
        "claimed": claimed,
        "workloads": {},
    }
    for workload, by_side in runs.items():
        table = report["workloads"][workload] = {}
        for metric in METRICS:
            values = {side: [r[metric] for r in by_side[side]]
                      for side in sides}
            table[metric] = {
                "parent": summary(values["parent"]),
                "change": summary(values["change"]),
                "change_better_pairs": sum(
                    c < p for p, c in zip(values["parent"],
                                          values["change"])),
                "parent_runs": values["parent"],
                "change_runs": values["change"],
            }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, table in report["workloads"].items():
        for metric, row in table.items():
            print("%-18s %-12s parent %.6g  change %.6g  better in %d of %d"
                  % (workload, metric, row["parent"]["median"],
                     row["change"]["median"], row["change_better_pairs"],
                     args.pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
