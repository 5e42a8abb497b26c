"""The golden output corpus of the `stabiliq` commands.

    python3 tools/golden.py            # compare; exit 1 and name each change
    python3 tools/golden.py --update   # rewrite tests/golden/*.json

Each command runs in process through `stabiliq.cli.main`; run as a script,
it imports the `src/` of this checkout. An entry holds the command's exit code, standard output,
standard error and `--json` report. `elapsed_ms` and the report's path are
masked, and the report is stored as its SHA-256 digest: the text output
carries the same verdicts, witnesses, stats and notes, and the digest keeps
the file small. The `verify` commands cover closed and convergence for every
named predicate, and stabilizing and ideal under every invariant and stutter
policy: pif and la at N = 3..8, cm with ascending and descending ids at
N = 3..6, and abp; and pif-coverage for pif at N = 3..8. Then come
`export-dot --condensed` and plain `export-dot` at small N, and
`export-dot --color` for pif at N = 3 and for abp; `simulate` for each built-in and each shipped sample via
`--file`, under both policies and every `--from` form; `impossibility` for
le at N = 4..8 and for one pair of state files; and flags a command refuses.
In an argument list, <samples> stands for the shipped samples' directory
and <scratch> for a directory holding FILES; output shows them the same way.
Beside the commands, tests/golden/diagnostics.json holds the parser's
diagnostics, `str(d)` for each, of every third truncation of each shipped
sample parsed at n = 4, keyed by "<sample>[:<end>]".
A regenerated corpus changes test data, so name every changed command where
the change is recorded.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden" / "corpus.json"
DIAGNOSTICS = ROOT / "tests" / "golden" / "diagnostics.json"
POLICIES = ((), ("--stutter-policy", "allowed"),
            ("--stutter-policy", "forbidden"))
_ELAPSED = re.compile(r'(elapsed_ms["=:]+ ?)[0-9.e+-]+')
# A specification universe of four booleans whose allowed set, no grant or
# one grant at a chain end, merges into a disallowed state.
_STATES = [" ".join("x.p%d=%s" % (p, v) for p, v in enumerate(values, 1))
           for values in itertools.product(("false", "true"), repeat=4)]
_ALLOWED = {_STATES[0], _STATES[1], _STATES[8]}
FILES = {"allowed.txt": "".join(s + "\n" for s in _STATES if s in _ALLOWED),
         "disallowed.txt": "".join(s + "\n" for s in _STATES
                                   if s not in _ALLOWED)}


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
        if select[1] == "pif":
            out.append(("verify", "--check", "pif-coverage", *select))
    out = [argv + ("--json",) for argv in out]
    for select, _ in _selections():
        if select[1] != "pif" or int(select[3]) <= 5:
            out.append(("export-dot", *select, "--condensed"))
    out += [("export-dot", *select) for select in (
        ("--protocol", "la", "--n", "3"), ("--protocol", "cm", "--ids", "2,1"),
        ("--protocol", "pif", "--n", "3"),
        ("--file", "<samples>/cm.gcp", "--n", "2"),
        ("--protocol", "pif", "--n", "3", "--color", "rq-or-rp"),
        ("--protocol", "abp", "--color", "legitimate"))]
    return out + _simulations() + _impossibilities() + _refusals()


def _simulations() -> list:
    """simulate per subject, policy and start form, with a seed per run."""
    subjects = [("--protocol", "cm", "--ids", "2,1,3,4"),
                ("--protocol", "cm", "--n", "3"),
                ("--protocol", "la", "--n", "4"),
                ("--protocol", "pif", "--n", "4"), ("--protocol", "abp"),
                ("--file", "<samples>/alternator.gcp", "--n", "4"),
                ("--file", "<samples>/cm.gcp", "--n", "3"),
                ("--file", "<samples>/pif.gcp", "--n", "4"),
                ("--file", "<samples>/abp.gcp")]
    out = []
    for select in subjects:
        for policy in ("uniform-random", "round-robin"):
            for start in ("random", "all-false", "all-idle"):
                out.append(("simulate", *select, "--policy", policy,
                            "--from", start, "--seed", str(len(out) % 7),
                            "--steps", "10"))
    return out + [
        ("simulate", "--protocol", "cm", "--ids", "2,1,3,4", "--seed", "3",
         "--steps", "40"),
        ("simulate", "--protocol", "pif", "--n", "4", "--from", "all-idle",
         "--policy", "round-robin", "--steps", "12"),
        ("simulate", "--protocol", "abp", "--from",
         "ns=0 chpq=empty nr=0 chqp=empty", "--steps", "0"),
        ("simulate", "--protocol", "la", "--n", "5", "--seed", "1",
         "--steps", "5")]


def _impossibilities() -> list:
    out = [("impossibility", "--protocol", "le", "--n", str(n), "--json")
           for n in range(4, 9)]
    return out + [("impossibility", "--allowed-file", "<scratch>/allowed.txt",
                   "--disallowed-file", "<scratch>/disallowed.txt", "--json")]


def _refusals() -> list:
    """The flags a command would ignore, each refused with exit 2."""
    return [
        ("export-dot", "--protocol", "la", "--n", "3", "--condensed",
         "--color", "true"),
        ("verify", "--check", "ideal", "--protocol", "la", "--n", "3",
         "--ids", "1,2,3"),
        ("simulate", "--protocol", "abp", "--ids", "1"),
        ("export-dot", "--file", "<samples>/alternator.gcp", "--n", "3",
         "--ids", "1,2,3"),
        ("simulate", "--protocol", "la", "--n", "25", "--cap", "1"),
        ("verify", "--check", "ideal", "--protocol", "abp", "--n", "5"),
        ("verify", "--check", "ideal", "--protocol", "cm", "--ids", "2,1,3",
         "--n", "7")]


def run(argv: tuple, scratch: Path) -> dict:
    """One command's masked exit code, output and report digest."""
    from stabiliq import cli
    places = {"<report>": scratch / "report.json", "<scratch>": scratch,
              "<samples>": Path(cli.__file__).parent / "samples"}
    places["<report>"].unlink(missing_ok=True)
    args = [*argv, "<report>"] if argv[-1] == "--json" else list(argv)
    for key, path in places.items():
        args = [a.replace(key, str(path)) for a in args]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    entry = {"argv": " ".join(argv), "exit": code,
             "stdout": _mask(out.getvalue(), places),
             "stderr": _mask(err.getvalue(), places)}
    if places["<report>"].exists():
        text = _mask(places["<report>"].read_text(), places)
        entry["json_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    return entry


def _mask(text: str, places: dict) -> str:
    for key, path in places.items():  # the report first: it is in scratch
        text = text.replace(str(path), key)
    return _ELAPSED.sub(r"\1*", text)


def record() -> list:
    with tempfile.TemporaryDirectory() as scratch:
        for name, text in FILES.items():
            (Path(scratch) / name).write_text(text)
        return [run(argv, Path(scratch)) for argv in commands()]


def diagnostics() -> dict:
    """The diagnostics of every third truncation of each shipped sample."""
    from stabiliq import dsl
    out = {}
    for path in sorted((Path(dsl.__file__).parent / "samples").glob("*.gcp")):
        source = path.read_text()
        for end in range(0, len(source.rstrip()), 3):
            found = dsl.parse_protocol(source[:end], n=4).diagnostics
            out["%s[:%d]" % (path.name, end)] = [str(d) for d in found]
    return out


def changed(stored, fresh) -> list:
    """The keys whose entries differ, or that only one side has; a list of
    command entries is keyed by argv."""
    old, new = ({e["argv"]: e for e in x} if isinstance(x, list) else x
                for x in (stored, fresh))
    return [key for key in {**old, **new} if old.get(key) != new.get(key)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the corpus from this checkout")
    args = parser.parse_args()
    fresh, parsed = record(), diagnostics()
    differ = (changed(_load(CORPUS, []), fresh)
              + changed(_load(DIAGNOSTICS, {}), parsed))
    for key in differ:
        print("changed: %s" % key)
    if args.update:
        CORPUS.parent.mkdir(parents=True, exist_ok=True)
        CORPUS.write_text(json.dumps(fresh, indent=1) + "\n")
        DIAGNOSTICS.write_text("{\n%s\n}\n" % ",\n".join(  # one per line
            "%s: %s" % (json.dumps(k), json.dumps(v))
            for k, v in parsed.items()))
        print("wrote %s (%d commands) and %s (%d truncations)"
              % (CORPUS, len(fresh), DIAGNOSTICS, len(parsed)))
        return 0
    print("%d of %d commands and truncations changed"
          % (len(differ), len(fresh) + len(parsed)))
    return 1 if differ else 0


def _load(path: Path, empty):
    return json.loads(path.read_text()) if path.exists() else empty


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
