"""Benchmark entry point. Run it from the repository root:

    python3 bench/run.py --workload ideal-la14 --seed 1 --seconds 35 --trace 0

--trace 0 times `stabiliq` command line invocations, each in a fresh
process, one at a time: a closed loop with one client. It reports the
median verdict_s (spawn to exit), peak_rss_mb (the child's own maximum
RSS) and setup_s (import plus building the bundle or fixture, timed inside
a fresh process). --trace 1 makes the traced in-process run of tracing.py
and reports the per-layer metrics instead. Times are scaled to a reference
host speed (speed.py); unscaled wall times are printed beside them.

Every answer is compared with known_answers.json; a wrong one counts in
`failed` and in verdict_errors, the share of runs that were wrong. The
inputs are fixed instances, so --seed is recorded and selects nothing.
The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import speed
from workloads import ROOT, SRC, WORKLOADS, load_answers, mismatches

OUT = ROOT / ".bench_out"
E2E_METRICS = {"verdict_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PROBE_TIMEOUT_S = 120

SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import stabiliq
from stabiliq import protocols
protocols.{builder}({n})
print(repr(time.perf_counter() - t0))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def setup_seconds(workload, env: dict) -> float:
    """Import stabiliq and build the workload's bundle in a fresh process;
    the child times itself, so interpreter start-up is left out."""
    code = SETUP_PROBE.format(builder=workload.builder, n=workload.n)
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    return float(done.stdout)


def invoke(workload, env: dict, report, log) -> tuple:
    """One `stabiliq` invocation. Returns (wall seconds from spawn to exit,
    the child's peak RSS in MB, the answer fields of its JSON report)."""
    argv = [sys.executable, "-m", "stabiliq", *workload.argv,
            "--json", str(report)]
    report.unlink(missing_ok=True)
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(log),
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    try:
        # rusage of this child alone; RUSAGE_CHILDREN would be a running
        # maximum over every child this process has reaped
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    elapsed = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    try:
        with open(report) as handle:
            fields = workload.fields(json.load(handle), code)
    except (OSError, ValueError, LookupError):
        fields = {"exit_code": code}
    return elapsed, usage.ru_maxrss / 1024, fields


def measure(workload, seconds: float, expected: dict) -> dict:
    """Alternate a setup probe and an invocation for `seconds` (at least one
    of each) and report medians, times scaled to the reference speed."""
    OUT.mkdir(exist_ok=True)
    stem = OUT / ("%s-%d" % (workload.name, os.getpid()))
    report, log = stem.with_suffix(".json"), stem.with_suffix(".log")
    env = child_env()
    # untimed: writes the bytecode cache a fresh checkout lacks
    subprocess.run([sys.executable, "-c", "import stabiliq.cli"], env=env,
                   check=True, timeout=PROBE_TIMEOUT_S)
    samples = {name: [] for name in E2E_METRICS}
    wall = {"setup_s": [], "verdict_s": []}
    failed = 0
    scale = speed.Scale()
    deadline = time.perf_counter() + seconds
    while True:
        wall["setup_s"].append(setup_seconds(workload, env))
        elapsed, rss, fields = invoke(workload, env, report, log)
        wall["verdict_s"].append(elapsed)
        factor = scale.factor()
        for name, values in wall.items():
            samples[name].append(values[-1] * factor)
        samples["peak_rss_mb"].append(rss)
        wrong = mismatches(expected, fields)
        if wrong:
            failed += 1
            print("invocation %d: wrong %s (output in %s)"
                  % (len(samples["verdict_s"]), ", ".join(wrong), log))
        if time.perf_counter() >= deadline:
            break
    report.unlink(missing_ok=True)
    if not failed:
        log.unlink(missing_ok=True)
    for name, values in samples.items():
        print("%-16s %.6g %s  median of %d, quartiles %s"
              % (name, statistics.median(values), E2E_METRICS[name],
                 len(values), _quartiles(values)))
    for name, values in wall.items():
        print("%-16s %.6g s  unscaled, quartiles %s"
              % (name + " wall", statistics.median(values),
                 _quartiles(values)))
    print("reference loop   %.6g s  median of %d, nominal %g s"
          % (statistics.median(scale.loops), len(scale.loops),
             speed.NOMINAL_S))
    return {"attempted": len(samples["verdict_s"]), "failed": failed,
            "metrics": {name: {"value": statistics.median(values),
                               "unit": E2E_METRICS[name]}
                        for name, values in samples.items()}}


def _quartiles(values: list) -> str:
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return "%.6g..%.6g" % (q1, q3)


def verdict_errors(result: dict) -> float:
    """Share of runs whose exit code, verdict, witness or counts were wrong."""
    return result["failed"] / result["attempted"]


def metadata(args) -> dict:
    """Recorded next to each result; nothing gates on it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() if done.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as handle:
            src_lines += sum(1 for _ in handle)
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "git_sha": sha,
            "src_lines": src_lines, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # so that a terminated run still kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "stabiliq" / "__init__.py").is_file():
        print("error: no stabiliq sources under %s; run from a checkout of "
              "the repository" % SRC, file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    expected = load_answers()[workload.name]
    print("meta %s" % json.dumps(metadata(args), sort_keys=True))

    if args.trace:
        import tracing
        result = tracing.run(workload, args.seconds, expected)
        OUT.mkdir(exist_ok=True)
        spans = OUT / ("trace-%s-seed%d.json" % (workload.name, args.seed))
        with open(spans, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "iterations": result["spans"],
                       "scale_factors": result["factors"]}, handle)
        for name, metric in result["metrics"].items():
            print("%-26s %.6g %s" % (name, metric["value"], metric["unit"]))
        print("traced iterations: %d, spans in %s; the gap from verdict_s "
              "to traced.pipeline_s is interpreter start-up, import and "
              "output, less tracing overhead" % (result["attempted"], spans))
    else:
        result = measure(workload, args.seconds, expected)
    print("%-16s %.6g share  %d of %d runs wrong"
          % ("verdict_errors", verdict_errors(result), result["failed"],
             result["attempted"]))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
