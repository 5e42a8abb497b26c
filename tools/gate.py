"""Run one `python -m stabiliq` command as a pass/fail gate.

    python3 tools/gate.py --timeout 20 --max-rss-mb 33 --expect ok=true \\
        -- verify --check ideal --protocol la --n 18

    python3 tools/gate.py --timeout 30 --max-rss-mb 300 \\
        -- simulate --protocol pif --n 20000 --steps 50

The command runs under the timeout, with `--json` and a temporary report
path appended when an --expect reads the report (a command without
`--json`, such as `simulate`, is gated on its exit code, time and memory
alone). The gate exits 1 when the command exits nonzero or outlives the
timeout, when its own peak RSS (see SPAWN) reaches --max-rss-mb, or when a
report field named by an --expect differs from the given value. A field is a
dotted path into the report, a list item by its index (verdicts.0.ok); the
value is read as JSON (true, 2125647, "text").
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def field(report, path: str):
    """The report's value at a dotted path; a list item by its index."""
    for key in path.split("."):
        report = report[int(key)] if isinstance(report, list) else report[key]
    return report


#: Run by a fresh `python -S`: spawn the command, wait at most TIMEOUT
#: seconds for it (then kill and reap it), and write "CODE KIB" (its exit
#: code and its own peak RSS, from os.wait4) or "timeout" to RESULT. A
#: child spawned through vfork (posix_spawn, subprocess) counts its parent's
#: peak RSS as its own, because exec folds the shared address space's high
#: water mark into the child's maximum; so this small process spawns the
#: command, never the gate, which may run inside a test runner.
#: RUSAGE_CHILDREN would be worse still: a running maximum over every child
#: a process has reaped.
SPAWN = """\
import os, signal, sys, time
timeout, result, *argv = sys.argv[1:]
pid = os.posix_spawn(argv[0], argv, os.environ)
deadline = time.monotonic() + float(timeout)
while True:
    done, status, usage = os.wait4(pid, os.WNOHANG)
    if done:
        text = "%d %d" % (os.waitstatus_to_exitcode(status), usage.ru_maxrss)
        break
    if time.monotonic() >= deadline:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        text = "timeout"
        break
    time.sleep(0.01)
with open(result, "w") as handle:
    handle.write(text)
"""


def run(argv: list, timeout: float, result: Path):
    """Run argv to its exit: (exit code, peak RSS in MB), or None once it
    outlives the timeout, after it is killed and reaped."""
    subprocess.run([sys.executable, "-S", "-c", SPAWN, str(timeout),
                    str(result), *argv], check=True)
    text = result.read_text()
    if text == "timeout":
        return None
    code, kib = map(int, text.split())
    return code, kib / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timeout", type=float, required=True,
                        metavar="SECONDS")
    parser.add_argument("--max-rss-mb", type=float, metavar="MB",
                        help="fail when the peak RSS reaches this")
    parser.add_argument("--expect", action="append", default=[],
                        metavar="PATH=VALUE",
                        help="a report field and its value; repeatable")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the stabiliq arguments, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    with tempfile.TemporaryDirectory() as scratch:
        report_path = Path(scratch) / "report.json"
        argv = [sys.executable, "-m", "stabiliq", *command,
                *(["--json", str(report_path)] if args.expect else [])]
        print("gate: python %s" % " ".join(argv[1:]), flush=True)
        finished = run(argv, args.timeout, Path(scratch) / "exit")
        if finished is None:
            print("gate: FAILED, no exit within %g s" % args.timeout)
            return 1
        code, peak = finished
        print("gate: exit %d, peak RSS %.1f MB" % (code, peak))
        failures = ["exit code %d" % code] if code else []
        if args.max_rss_mb is not None and peak >= args.max_rss_mb:
            failures.append("peak RSS %.1f MB, at or above %g MB"
                            % (peak, args.max_rss_mb))
        report = json.loads(report_path.read_text()) \
            if report_path.exists() else {}
    for expect in args.expect:
        path, _, text = expect.partition("=")
        try:
            found = field(report, path)
        except (KeyError, IndexError, ValueError, TypeError):
            failures.append("%s is missing from the report" % path)
            continue
        want = json.loads(text)
        if found != want or type(found) is not type(want):
            failures.append("%s is %s, not %s" % (path, json.dumps(found),
                                                   text))
    for failure in failures:
        print("gate: FAILED, %s" % failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
