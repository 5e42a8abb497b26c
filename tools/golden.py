"""The golden output corpus of `stabiliq verify` and `export-dot --condensed`.

    python3 tools/golden.py            # compare; exit 1 and name each change
    python3 tools/golden.py --update   # rewrite tests/golden/corpus.json

Each command runs in process through `stabiliq.cli.main`; run as a script,
it imports the `src/` of this checkout. An entry holds the command's exit code, standard output,
standard error and `--json` report. `elapsed_ms` and the report's path are
masked, and the report is stored as its SHA-256 digest: the text output
carries the same verdicts, witnesses, stats and notes, and the digest keeps
the file small. The commands cover closed and convergence for every named
predicate, and stabilizing and ideal under every invariant and stutter
policy: pif and la at N = 3..8, cm with ascending and descending ids at
N = 3..6, and abp. A regenerated corpus changes test data, so name every
changed command where the change is recorded.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden" / "corpus.json"
POLICIES = ((), ("--stutter-policy", "allowed"),
            ("--stutter-policy", "forbidden"))
_ELAPSED = re.compile(r'(elapsed_ms["=:]+ ?)[0-9.e+-]+')


def _selections():
    """(protocol options, the protocol's named predicates) pairs."""
    for n in range(3, 9):
        names = ("rq-or-rp", "root-idle", "true")
        yield ("--protocol", "pif", "--n", str(n)), names
    for n in range(3, 9):
        yield ("--protocol", "la", "--n", str(n)), ("true",)
    for n in range(3, 7):
        yield ("--protocol", "cm", "--n", str(n)), ("true",)
        yield ("--protocol", "cm", "--ids",
               ",".join(map(str, range(n, 0, -1)))), ("true",)
    yield ("--protocol", "abp"), ("legitimate", "true")


def commands() -> list:
    """The corpus's argument lists. Each `verify` ends in `--json`, which
    `run` follows with a report path."""
    out = []
    for select, names in _selections():
        for check in ("closed", "convergence"):
            out += [("verify", "--check", check, *select, "--predicate", p)
                    for p in names]
        out += [("verify", "--check", "stabilizing", *select,
                 "--invariant", p, *policy)
                for p in names for policy in POLICIES]
        out += [("verify", "--check", "ideal", *select, *policy)
                for policy in POLICIES]
    out = [argv + ("--json",) for argv in out]
    for select, _ in _selections():
        if select[1] != "pif" or int(select[3]) <= 5:
            out.append(("export-dot", *select, "--condensed"))
    return out


def run(argv: tuple, scratch: Path) -> dict:
    """One command's masked exit code, output and report digest."""
    from stabiliq import cli
    report = scratch / "report.json"
    report.unlink(missing_ok=True)
    args = [*argv, str(report)] if argv[-1] == "--json" else list(argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    entry = {"argv": " ".join(argv), "exit": code,
             "stdout": _mask(out.getvalue(), report),
             "stderr": _mask(err.getvalue(), report)}
    if report.exists():
        text = _mask(report.read_text(), report)
        entry["json_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    return entry


def _mask(text: str, report: Path) -> str:
    return _ELAPSED.sub(r"\1*", text.replace(str(report), "<report>"))


def record() -> list:
    with tempfile.TemporaryDirectory() as scratch:
        return [run(argv, Path(scratch)) for argv in commands()]


def changed(stored: list, fresh: list) -> list:
    """The commands whose entries differ, or that only one side has."""
    old = {e["argv"]: e for e in stored}
    new = {e["argv"]: e for e in fresh}
    return [argv for argv in {**old, **new} if old.get(argv) != new.get(argv)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the corpus from this checkout")
    args = parser.parse_args()
    fresh = record()
    stored = json.loads(CORPUS.read_text()) if CORPUS.exists() else []
    differ = changed(stored, fresh)
    for argv in differ:
        print("changed: %s" % argv)
    if args.update:
        CORPUS.parent.mkdir(parents=True, exist_ok=True)
        CORPUS.write_text(json.dumps(fresh, indent=1) + "\n")
        print("wrote %s (%d commands)" % (CORPUS, len(fresh)))
        return 0
    print("%d of %d commands changed" % (len(differ), len(fresh)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
