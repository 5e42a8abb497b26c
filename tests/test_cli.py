"""Command line behavior: exit codes, report files, output shapes."""
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import helpers
from helpers import format_spec_states
from stabiliq import explorer, mapping, merge, protocols
from stabiliq.cli import main
from stabiliq.kernel import ModelError, Signature, UniverseCapError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_ideal_conflict_manager(capsys):
    code, out, _ = run(capsys, "verify", "--check", "ideal",
                       "--protocol", "cm", "--ids", "2,1,3,4")
    assert code == 0
    assert "protocol cm" in out and "universe 16 states" in out
    assert "ideal: holds" in out
    assert "verify: ok" in out


def test_verify_closed_wave(capsys):
    code, out, _ = run(capsys, "verify", "--check", "closed",
                       "--protocol", "pif", "--n", "4",
                       "--predicate", "rq-or-rp")
    assert code == 0
    assert "closed: holds" in out


def test_verify_ideal_wave_fails(capsys):
    code, out, _ = run(capsys, "verify", "--check", "ideal",
                       "--protocol", "pif", "--n", "4")
    assert code == 1
    assert "ideal: FAILS" in out
    assert "st.p1=rq st.p2=rq st.p3=rp st.p4=i" in out
    assert "verify: FAILED" in out


def test_verify_stabilizing_with_policy_override(capsys):
    code, out, _ = run(capsys, "verify", "--check", "stabilizing",
                       "--protocol", "cm", "--ids", "1,2,3,4")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--check", "stabilizing",
                       "--protocol", "cm", "--ids", "1,2,3,4",
                       "--stutter-policy", "forbidden")
    assert code == 1
    assert "never discharges obligation 'output-activity'" in out


def test_verify_coverage_lists_the_gap(capsys):
    code, out, _ = run(capsys, "verify", "--check", "pif-coverage",
                       "--protocol", "pif", "--n", "4")
    assert code == 0
    assert "st.p1=rq st.p2=rp st.p3=i st.p4=rp" in out
    assert "31" in out and "5" in out


def test_verify_json_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--check", "ideal",
                       "--protocol", "abp", "--json", str(path))
    assert code == 0
    assert "json report: %s" % path in out
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1
    assert payload["tool"] == "stabiliq"
    assert payload["command"] == "verify"
    assert payload["protocol"] == "abp"
    assert payload["universe"] == 36
    assert payload["ok"] is True
    (verdict,) = payload["verdicts"]
    assert verdict["check"] == "ideal" and verdict["holds"] is True


def test_verify_file_protocol(capsys, tmp_path):
    src = tmp_path / "toggle.gcp"
    src.write_text("""
protocol toggle(N) {
  process p in 1..N {
    var x: bool;
    flip: self.x = false -> self.x := true;
  }
}
""")
    code, out, _ = run(capsys, "verify", "--check", "convergence",
                       "--protocol=cm", "--file", str(src))
    assert code == 2  # both sources given
    # a file protocol has only the trivial predicate table
    code, out, _ = run(capsys, "verify", "--check", "convergence",
                       "--file", str(src), "--n", "3")
    assert code == 0
    assert "convergence: holds" in out
    code, _, err = run(capsys, "verify", "--check", "convergence",
                       "--file", str(src), "--n", "3",
                       "--predicate", "quiet")
    assert code == 2
    assert "unknown predicate" in err


def test_true_holds_on_a_file_protocol_with_a_variable_free_process(
        capsys, tmp_path):
    # position 2 declares no variable, so the signature skips it and no
    # chain automaton reads it: `true` must still hold everywhere
    src = tmp_path / "gap.gcp"
    src.write_text("""
protocol gap() {
  process a in 1..1 {
    output x: bool;
    go: self.x = false -> self.x := true;
  }
  process b in 2..2 {
  }
  process c in 3..3 {
    output y: bool;
    flip: self.y = false -> self.y := true;
  }
}
""")
    for check in ("closed", "convergence"):
        code, out, _ = run(capsys, "verify", "--check", check,
                           "--file", str(src))
        assert code == 0, out
    code, out, _ = run(capsys, "export-dot", "--color", "true",
                       "--file", str(src))
    assert code == 0 and out.count("fillcolor") == 4


def test_verify_file_diagnostics_exit_2(capsys, tmp_path):
    src = tmp_path / "broken.gcp"
    src.write_text("protocol broken(N) {\n  process p in 1..N {\n"
                   "    var x: bool;\n    a: self.y = false -> "
                   "self.x := true;\n  }\n}\n")
    code, _, err = run(capsys, "verify", "--check", "closed",
                       "--file", str(src), "--n", "3")
    assert code == 2
    assert "UNDECLARED_VAR" in err


def test_impossibility_leader_election(capsys, tmp_path):
    path = tmp_path / "imp.json"
    code, out, _ = run(capsys, "impossibility", "--protocol", "le",
                       "--n", "4", "--json", str(path))
    assert code == 0
    assert "impossible" in out
    assert ("contend.p1=true leader.p1=true contend.p2=false "
            "leader.p2=false contend.p3=false leader.p3=false "
            "contend.p4=true leader.p4=true") in out
    payload = json.loads(path.read_text())
    assert payload["possible"] is False
    assert payload["generation"] == 1
    assert payload["universe_size"] == 256
    assert payload["allowed_size"] == 48


def test_le_fixture_respects_the_cap_environment(monkeypatch):
    # the explicit sets are listed only on demand, each within the cap:
    # 2816 allowed states and the 262144-state universe at N = 9
    fx = protocols.make_le(9)
    monkeypatch.setenv("STABILIQ_STATE_CAP", "2815")
    with pytest.raises(UniverseCapError,
                       match="^allowed set has 2816 states, above the cap "
                             "of 2815;"):
        fx.allowed
    monkeypatch.setenv("STABILIQ_STATE_CAP", "2816")
    assert len(fx.allowed) == 2816
    monkeypatch.setenv("STABILIQ_STATE_CAP", "262143")
    with pytest.raises(UniverseCapError,
                       match="^state universe has 262144 states, above the "
                             "cap of 262143;"):
        fx.disallowed
    monkeypatch.setenv("STABILIQ_STATE_CAP", "262144")
    assert len(fx.disallowed) == 262144 - 2816


def test_le_fixture_respects_the_default_cap(capsys, monkeypatch, tmp_path):
    # N = 40 lists nothing, so the default cap no longer refuses it
    monkeypatch.delenv("STABILIQ_STATE_CAP", raising=False)
    path = tmp_path / "le40.json"
    code, out, err = run(capsys, "impossibility", "--protocol", "le",
                         "--n", "40", "--json", str(path))
    expected = helpers.le_closed_form(40)
    assert (code, err) == (0, "")
    assert out.startswith("specification universe: le chain length 40  "
                          "(%d states, %d allowed)\nverdict: impossible\n"
                          "  witness: %s\n"
                          % (4 ** 40, expected["allowed_size"],
                             expected["witness"]))
    payload = json.loads(path.read_text())
    assert {k: payload[k] for k in expected} == expected


def test_merge_closure_respects_the_cap(capsys, monkeypatch, tmp_path):
    # le at N = 5 has 112 allowed states and a 136-state merge closure; a
    # file pair is counted, not listed, so the cap does not bound it
    fx = protocols.make_le(5)
    allowed, disallowed = tmp_path / "allowed.txt", tmp_path / "rest.txt"
    allowed.write_text(format_spec_states(fx.allowed))
    disallowed.write_text(format_spec_states(fx.disallowed))
    argv = ("impossibility", "--allowed-file", str(allowed),
            "--disallowed-file", str(disallowed))
    monkeypatch.delenv("STABILIQ_STATE_CAP", raising=False)
    uncapped = run(capsys, *argv)
    assert uncapped[0] == 0 and "verdict: impossible" in uncapped[1]
    monkeypatch.setenv("STABILIQ_STATE_CAP", "135")
    assert run(capsys, *argv) == uncapped
    # listing the same closure still asks the cap
    with pytest.raises(UniverseCapError,
                       match="^merge closure has 136 states, above the "
                             "cap of 135;"):
        merge.merge_closure(fx.allowed)


def test_le_cli_lists_no_state(capsys, monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("a state set was listed")

    monkeypatch.setattr(Signature, "states", refuse)
    monkeypatch.setattr(merge, "_listed", refuse)
    monkeypatch.setattr(protocols.LeFixture, "allowed", property(refuse))
    path = tmp_path / "le9.json"
    code, _, _ = run(capsys, "impossibility", "--protocol", "le", "--n", "9",
                     "--json", str(path))
    expected = helpers.le_closed_form(9)
    payload = json.loads(path.read_text())
    assert code == 0
    assert {k: payload[k] for k in expected} == expected


def largest_printable_le() -> int:
    """The largest N whose 4^N states Python can print, or 0 when the
    interpreter sets no digit limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return 0
    n = int(limit / math.log10(4))
    while 4 ** (n + 1) < 10 ** limit:
        n += 1
    while 4 ** n >= 10 ** limit:
        n -= 1
    return n


def refuse_to_build(n):
    raise AssertionError("the fixture was built")


def test_le_counts_past_the_digit_limit_exit_2(capsys, monkeypatch):
    n = largest_printable_le()
    if not n:
        pytest.skip("this interpreter prints ints of any length")
    monkeypatch.setattr(protocols, "make_le", refuse_to_build)
    code, out, err = run(capsys, "impossibility", "--protocol", "le",
                         "--n", str(n + 1))
    assert (code, out) == (2, "")
    assert err == ("error: le at N = %d has 4^%d states, a count of more "
                   "than %d digits, Python's limit for printing an int "
                   "(PYTHONINTMAXSTRDIGITS)\n"
                   % (n + 1, n + 1, sys.get_int_max_str_digits()))


def test_le_counts_at_the_digit_limit_print(capsys, tmp_path):
    n = largest_printable_le()
    if not n:
        pytest.skip("this interpreter prints ints of any length")
    path = tmp_path / "le.json"
    code, out, err = run(capsys, "impossibility", "--protocol", "le",
                         "--n", str(n), "--json", str(path))
    assert (code, err) == (0, "")
    assert "(%d states, " % 4 ** n in out
    payload = json.loads(path.read_text())
    assert payload["universe_size"] == 4 ** n
    assert payload["closure_size"] == helpers.le_closed_form(n)["closure_size"]


@pytest.mark.parametrize("bound", ["\u00b2", "many digits"])
def test_a_bound_int_cannot_read_exits_2(capsys, tmp_path, bound):
    if bound == "many digits":
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter reads integers of any length")
        bound = "1" * (limit + 1)
    src = tmp_path / "bound.gcp"
    src.write_text("protocol p() {\n  process a in 1..%s { var x: bool; "
                   "go: true -> self.x := !self.x; }\n}\n" % bound)
    code, out, err = run(capsys, "verify", "--check", "closed",
                         "--file", str(src))
    assert (code, out) == (2, "")
    assert err.startswith("error: %s does not parse:\n2:19: error: cannot "
                          "read an integer: " % src)
    assert err.endswith(" [SYNTAX]\n") and err.count("\n") == 2


def test_a_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    bad, good = tmp_path / "bad", tmp_path / "good"
    good.write_text("x.p1=true\n")
    for content, argv in (
            (b"protocol p() { \xff }", ("verify", "--check", "closed",
                                        "--file", str(bad))),
            (b"x.p1=\xff\n", ("impossibility", "--allowed-file", str(bad),
                              "--disallowed-file", str(good)))):
        bad.write_bytes(content)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read %s: " % bad)
        assert err.count("\n") == 1


def test_a_position_int_cannot_read_exits_2(capsys, tmp_path):
    allowed, rest = tmp_path / "allowed.txt", tmp_path / "rest.txt"
    allowed.write_text("x.p\u00b2=true\n")
    rest.write_text("x.p\u00b2=false\n")
    assert run(capsys, "impossibility", "--allowed-file", str(allowed),
               "--disallowed-file", str(rest)) == (
        2, "", "error: line 1: label 'x.p\u00b2' must be position-qualified "
        "(var.pK)\n")
    assert run(capsys, "simulate", "--protocol", "la", "--n", "3",
               "--from", "x.p\u00b2=true") == (
        2, "", "error: bad variable label 'x.p\u00b2'\n")


@pytest.mark.parametrize("value", ["\u00b2", "1" * 5000],
                         ids=["superscript", "5000 digits"])
def test_a_value_int_cannot_read_is_text(capsys, tmp_path, value):
    allowed, rest = tmp_path / "allowed.txt", tmp_path / "rest.txt"
    allowed.write_text("x.p1=1 x.p2=1\n")
    rest.write_text("x.p1=1 x.p2={0}\nx.p1={0} x.p2=1\nx.p1={0} x.p2={0}\n"
                    .format(value))
    code, out, _ = run(capsys, "impossibility", "--allowed-file", str(allowed),
                       "--disallowed-file", str(rest))
    assert code == 0 and "(4 states, 1 allowed)" in out


def test_impossibility_from_state_files(capsys, tmp_path):
    allowed = tmp_path / "allowed.txt"
    disallowed = tmp_path / "disallowed.txt"
    allowed.write_text("x.p1=false x.p2=false\nx.p1=false x.p2=true\n"
                       "x.p1=true x.p2=false\n")
    disallowed.write_text("x.p1=true x.p2=true\n")
    code, out, _ = run(capsys, "impossibility",
                       "--allowed-file", str(allowed),
                       "--disallowed-file", str(disallowed))
    assert code == 0
    assert "may be possible" in out or "possible" in out
    # the asymmetric singleton set: merge closure stays inside
    allowed.write_text("x.p1=true x.p2=false\n")
    disallowed.write_text("x.p1=false x.p2=false\nx.p1=false x.p2=true\n"
                          "x.p1=true x.p2=true\n")
    code, out, _ = run(capsys, "impossibility",
                       "--allowed-file", str(allowed),
                       "--disallowed-file", str(disallowed))
    assert code == 0


def test_simulate_round_robin_wave(capsys):
    code, out, _ = run(capsys, "simulate", "--protocol", "pif", "--n", "4",
                       "--from", "all-idle", "--policy", "round-robin",
                       "--steps", "12")
    assert code == 0
    lines = out.splitlines()
    assert any("st.p1=i st.p2=i st.p3=i st.p4=i" in ln for ln in lines)
    assert any("p1:request" in ln for ln in lines)
    assert any("p4:reflect" in ln for ln in lines)
    assert "first appeared at step 0" in out


def image_lines(out: str) -> list:
    """The image states simulate prints, one per line after its heading."""
    tail = out.split("specification image (stutters removed):\n")[1]
    return [ln.strip() for ln in tail.splitlines() if ln.startswith(" ")]


def test_simulate_prints_a_constant_lasso_image_as_divergence(capsys):
    # the seeded run flips p2 and back: <F,T,T,T> <-> <F,F,T,T>, while only
    # p4, the highest id, is granted
    code, out, _ = run(capsys, "simulate", "--protocol", "cm", "--ids",
                       "2,1,3,4", "--seed", "3", "--steps", "40")
    assert code == 0
    assert "lasso: the final state first appeared at step 0" in out
    assert image_lines(out) == [
        "in.p1=false in.p2=false in.p3=false in.p4=true"]
    assert out.endswith(
        "stutter divergence: the lasso leaves the image constant\n")


def test_simulate_prints_a_moving_image_without_divergence(capsys):
    code, out, _ = run(capsys, "simulate", "--protocol", "pif", "--n", "4",
                       "--from", "all-idle", "--policy", "round-robin",
                       "--steps", "12")
    assert code == 0
    assert len(image_lines(out)) == 11
    assert "stutter divergence" not in out


def test_a_chain_length_above_the_state_cap_exits_2_at_once(capsys,
                                                            monkeypatch):
    # cm's ids are built from --n, one per position; the check comes first
    monkeypatch.delenv("STABILIQ_STATE_CAP", raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--check", "closed",
                         "--protocol", "cm", "--n", "9" * 3000)
    assert time.perf_counter() - start < 0.1
    assert (code, out, err) == (2, "", "error: --n must be at most the state "
                                "cap, 10000000: one process is built per "
                                "position\n")


def test_simulate_runs_a_universe_past_the_cap(capsys):
    # simulate lists no universe: la at N = 25 has 2^25 states
    code, out, err = run(capsys, "simulate", "--protocol", "la", "--n", "25",
                         "--steps", "5")
    assert (code, err) == (0, "")
    assert len(image_lines(out)) >= 1


def test_simulate_is_deterministic(capsys):
    first = run(capsys, "simulate", "--protocol", "cm", "--ids", "1,2,3",
                "--seed", "5", "--steps", "15")
    second = run(capsys, "simulate", "--protocol", "cm", "--ids", "1,2,3",
                 "--seed", "5", "--steps", "15")
    assert first == second and first[0] == 0


def test_simulate_from_state(capsys):
    code, out, _ = run(capsys, "simulate", "--protocol", "abp",
                       "--from", "ns=0 chpq=empty nr=0 chqp=empty",
                       "--steps", "8", "--policy", "round-robin")
    assert code == 0
    assert "first appeared at step" in out


def test_export_dot(capsys, tmp_path):
    path = tmp_path / "cm.dot"
    code, out, _ = run(capsys, "export-dot", "--protocol", "cm",
                       "--ids", "1,2", "-o", str(path))
    assert code == 0
    assert "wrote %s" % path in out
    assert "(4 states, 8 edges)" in out
    text = path.read_text()
    assert text.startswith("digraph") and text.count("->") == 8


def test_export_dot_condensed(capsys, tmp_path):
    path = tmp_path / "pif.dot"
    code, out, _ = run(capsys, "export-dot", "--protocol", "pif", "--n", "3",
                       "--condensed", "-o", str(path))
    assert code == 0
    assert path.read_text().count("peripheries=2") == 1


@pytest.mark.parametrize("argv", [
    ("verify", "--check", "ideal", "--protocol", "la", "--n", "3", "--json"),
    ("impossibility", "--protocol", "le", "--n", "4", "--json"),
    ("export-dot", "--protocol", "cm", "--ids", "1,2", "-o")])
def test_an_unwritable_output_path_exits_2(capsys, tmp_path, argv):
    path = str(tmp_path / "missing" / "out")
    code, _, err = run(capsys, *argv, path)
    assert code == 2
    assert err == "error: [Errno 2] No such file or directory: %r\n" % path


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "verify", "--check", "ideal")[0] == 2  # no source
    assert run(capsys, "verify", "--check", "ideal", "--protocol", "pif")[0] \
        == 2  # missing --n
    assert run(capsys, "verify", "--check", "ideal", "--protocol", "cm",
               "--ids", "1,1")[0] == 2  # duplicate identifiers
    assert run(capsys, "verify", "--check", "closed", "--protocol", "abp",
               "--predicate", "nosuch")[0] == 2
    assert run(capsys, "impossibility", "--protocol", "le")[0] == 2
    assert run(capsys, "simulate", "--protocol", "abp",
               "--from", "ns=9 chpq=empty nr=0 chqp=empty")[0] == 2
    assert run(capsys)[0] == 2  # no subcommand


def test_invalid_choice_exits_2(capsys):
    assert run(capsys, "verify", "--check", "nosuch", "--protocol", "abp")[0] \
        == 2
    assert run(capsys, "nosuch-command")[0] == 2


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "verify" in out
    assert run(capsys, "verify", "--help")[0] == 0


@pytest.mark.parametrize("check,flag,value", [
    ("ideal", "--predicate", "true"),
    ("closed", "--invariant", "x"),
    ("convergence", "--stutter-policy", "allowed"),
])
def test_verify_refuses_a_flag_its_check_ignores(capsys, check, flag, value):
    code, out, err = run(capsys, "verify", "--check", check,
                         "--protocol", "la", "--n", "3", flag, value)
    assert (code, out) == (2, "")
    assert err == "error: %s does not apply to --check %s\n" % (flag, check)


@pytest.mark.parametrize("argv,error", [
    (["export-dot", "--protocol", "la", "--n", "3", "--condensed",
      "--color", "true"], "--color does not apply to --condensed"),
    (["verify", "--check", "ideal", "--protocol", "la", "--n", "3",
      "--ids", "1,2,3"], "--ids applies only to --protocol cm"),
    (["simulate", "--protocol", "abp", "--ids", "1"],
     "--ids applies only to --protocol cm"),
    (["export-dot", "--file", str(Path(protocols.__file__).parent
                                  / "samples" / "alternator.gcp"),
      "--n", "3", "--ids", "1,2,3"], "--ids applies only to --protocol cm"),
    # simulate lists no universe, so it offers no --cap
    (["simulate", "--protocol", "la", "--n", "25", "--cap", "1"],
     "unrecognized arguments: --cap 1"),
    # abp has no chain length, and --ids sets cm's
    (["verify", "--check", "ideal", "--protocol", "abp", "--n", "5"],
     "--n does not apply to --protocol abp"),
    (["verify", "--check", "ideal", "--protocol", "cm", "--ids", "2,1,3",
      "--n", "7"], "--n does not apply to --ids"),
])
def test_a_flag_the_command_would_ignore_exits_2(capsys, argv, error):
    # argparse refuses a flag a command does not offer, after its usage line
    usage = "usage: stabiliq [-h] command ...\nstabiliq: " \
        if error.startswith("unrecognized") else ""
    assert run(capsys, *argv) == (2, "", usage + "error: %s\n" % error)


def test_impossibility_refuses_both_inputs(capsys, tmp_path):
    allowed, disallowed = tmp_path / "allowed.txt", tmp_path / "rest.txt"
    allowed.write_text("x.p1=true x.p2=false\n")
    disallowed.write_text("x.p1=false x.p2=false\nx.p1=false x.p2=true\n"
                          "x.p1=true x.p2=true\n")
    code, out, err = run(capsys, "impossibility", "--protocol", "le",
                         "--n", "5", "--allowed-file", str(allowed),
                         "--disallowed-file", str(disallowed))
    assert (code, out) == (2, "")
    assert err.startswith("error: give one of the two inputs")


def test_missing_sample_exits_2_naming_the_file(capsys, monkeypatch,
                                               tmp_path):
    # an installed package whose samples directory is empty
    (tmp_path / "samples").mkdir()
    monkeypatch.setattr(protocols, "__file__", str(tmp_path / "protocols.py"))
    missing = tmp_path / "samples" / "abp.gcp"
    with pytest.raises(ModelError, match=re.escape(str(missing))):
        protocols.sample_source("abp.gcp")
    code, out, err = run(capsys, "verify", "--check", "ideal",
                         "--protocol", "abp")
    assert (code, out) == (2, "")
    assert err == ("error: sample file %s is missing from the installed "
                   "package\n" % missing)


def test_closed_stdout_exits_2_without_a_traceback():
    # the pipe's read end is closed before the command starts, so its first
    # write to stdout fails
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "stabiliq", "impossibility",
             "--protocol", "le", "--n", "5"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_start_up_loads_neither_dataclasses_nor_inspect():
    # the value classes are built with no generated source, so importing
    # the command line in a fresh interpreter loads neither module
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = ("import sys; before = set(sys.modules); import stabiliq.cli; "
             "print(sorted({'dataclasses', 'inspect'} "
             "& (set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_universe_cap_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--check", "ideal",
                       "--protocol", "la", "--n", "8", "--cap", "100")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_nonpositive_cap_exits_2(capsys, cap):
    code, out, err = run(capsys, "verify", "--check", "ideal",
                         "--protocol", "cm", "--n", "3", "--cap", cap)
    assert code == 2
    assert "error: the universe cap must be positive" in err
    assert "ideal" not in out


@pytest.mark.parametrize("argv", [
    ("verify", "--check", "ideal", "--protocol", "cm", "--n", "3"),
    ("impossibility", "--protocol", "le", "--n", "5"),
    ("impossibility", "--allowed-file", "{allowed}",
     "--disallowed-file", "{rest}")], ids=["verify", "le", "file-pair"])
@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_cap_environment_exits_2(capsys, monkeypatch, tmp_path, value,
                                     argv):
    allowed, rest = tmp_path / "allowed.txt", tmp_path / "rest.txt"
    allowed.write_text("x.p1=false\n")
    rest.write_text("x.p1=true\n")
    monkeypatch.setenv("STABILIQ_STATE_CAP", value)
    code, out, err = run(capsys, *(a.format(allowed=allowed, rest=rest)
                                   for a in argv))
    assert (code, out) == (2, "")
    assert err == "error: %s\n" % (
        "STABILIQ_STATE_CAP must be an integer, not 'abc'" if value == "abc"
        else "the universe cap must be positive, not 0")


def test_pif_coverage_respects_the_cap(capsys):
    code, out, err = run(capsys, "verify", "--check", "pif-coverage",
                         "--protocol", "pif", "--n", "6", "--cap", "10")
    assert code == 2
    assert "324 states, above the cap of 10" in err
    assert "satisfy" not in out


def test_obligation_cycle_output_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--check", "ideal",
                       "--protocol", "cm", "--ids", "3,1,4,2",
                       "--stutter-policy", "forbidden")
    assert code == 1
    assert re.sub(r"elapsed_ms=[0-9.]+", "elapsed_ms=*", out) == (
        "protocol cm  chain length 4  universe 16 states\n"
        "ideal: FAILS\n"
        "  witness: cycle access.p1=false access.p2=false access.p3=true "
        "access.p4=false -> access.p1=false access.p2=true access.p3=true "
        "access.p4=false never discharges obligation 'output-activity'\n"
        "  note: stutter policy: divergence-forbidden\n"
        "  stats: states=16  edges=64  invariant_states=16  components=1  "
        "bottom_components=1  elapsed_ms=*\n"
        "verify: FAILED\n")


def test_each_cycle_question_is_decided_once(capsys, monkeypatch):
    # no edge filter: UDP's allowed edges and its obligation are local
    # forms, read off the image bitsets; each cycle question trims its nodes
    # once and reads its witness off that trim, searching nothing again.
    # The obligation, Changes(), is put to explorer.frozen first, which
    # proves nothing here: an access flip the mapping hides is a cycle
    filters, trims, asked = [], [], []
    edges_where, trim = explorer.edges_where, explorer.trim
    find_cycle = explorer.find_cycle

    def asking(ts, nodes, rel=None):
        before = len(trims)
        cycle = find_cycle(ts, nodes, rel)
        asked.append((nodes, trims[before:], cycle is not None))
        return cycle

    monkeypatch.setattr(explorer, "edges_where", lambda *args: (
        filters.append(1), edges_where(*args))[1])
    monkeypatch.setattr(explorer, "trim", lambda nodes, rel: (
        trims.append(nodes), trim(nodes, rel))[1])
    monkeypatch.setattr(explorer, "find_cycle", asking)
    code, out, _ = run(capsys, "verify", "--check", "ideal",
                       "--protocol", "cm", "--ids", "2,1,3,4")
    assert code == 0 and "not discharged on cycle" in out
    assert filters == []
    # two questions, each trimmed once: a cycle avoiding the invariant
    # (none: every state is inside), and a cycle that misses the obligation,
    # Changes(), which is the stutter cycle too
    assert asked == [(0, [0], False), (0xFFFF, [0xFFFF], True)]


def test_the_alternator_at_14_maps_no_state(capsys, monkeypatch):
    # ideal-la14 decides FDP on image bitsets: neither the per-state image
    # ids nor a per-pair edge filter is ever built
    def refuse(*args):
        raise AssertionError("a state was mapped or an edge filtered")

    monkeypatch.setattr(mapping.BoundMapping, "ids", refuse)
    monkeypatch.setattr(explorer, "edges_where", refuse)
    code, out, _ = run(capsys, "verify", "--check", "ideal",
                       "--protocol", "la", "--n", "14")
    sig = protocols.make_alternator(14).program.signature
    where = "bottom component of 16384 states (least %s)" % \
        sig.state_at(0).text()
    notes = ["stutter policy: divergence-allowed"] + [
        "obligation %r: recurs on every cycle of %s" % (name, where)
        for name in ["output-activity"] + ["activity-p%d" % j
                                           for j in range(1, 15)]] + [
        "stutter divergence: none"]
    assert code == 0
    assert [line[len("  note: "):] for line in out.splitlines()
            if line.startswith("  note: ")] == notes
    assert "ideal: holds" in out and out.endswith("verify: ok\n")


def test_the_window_tables_are_compiled_once(capsys, monkeypatch):
    # the transition system and the enabled-output mapping share the
    # program's tables
    from stabiliq.program import compile_windows
    compiled = []
    monkeypatch.setattr("stabiliq.program.compile_windows", lambda program: (
        compiled.append(program), compile_windows(program))[1])
    code, out, _ = run(capsys, "verify", "--check", "ideal",
                       "--protocol", "la", "--n", "5")
    assert code == 0 and "ideal: holds" in out
    assert len(compiled) == 1


def test_protocol_without_variables_exits_2(capsys, tmp_path):
    src = tmp_path / "empty.gcp"
    src.write_text("protocol p(N) { process a in 1..N { } }\n")
    code, out, err = run(capsys, "verify", "--check", "closed",
                         "--file", str(src), "--n", "3")
    assert code == 2 and out == ""
    assert err == ("error: %s does not parse:\n1:25: error: no process of "
                   "protocol 'p' declares a variable [NO_VARIABLES]\n" % src)
