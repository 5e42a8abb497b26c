"""The CI gate (tools/gate.py): exit code, peak RSS and report fields."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def gate(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, (
        str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    spec = importlib.util.spec_from_file_location("gate",
                                                  ROOT / "tools" / "gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_field_is_a_dotted_path_with_list_indices(gate):
    report = {"ok": True, "verdicts": [{"stats": {"components": 7}}]}
    assert gate.field(report, "verdicts.0.stats.components") == 7
    with pytest.raises(IndexError):
        gate.field(report, "verdicts.1.ok")


def test_the_gate_passes_a_command_that_meets_every_bound(gate, capfd):
    assert gate.main(["--timeout", "60", "--max-rss-mb", "1000",
                      "--expect", "ok=true",
                      "--expect", "verdicts.0.stats.states=8", "--",
                      "verify", "--check", "ideal", "--protocol", "la",
                      "--n", "3"]) == 0
    assert "FAILED" not in capfd.readouterr().out


def test_the_gate_fails_on_each_unmet_bound(gate, capfd):
    assert gate.main(["--timeout", "60", "--max-rss-mb", "1",
                      "--expect", "ok=false", "--expect", "ok=1",
                      "--expect", "verdicts.0.stats.states=9",
                      "--expect", "verdicts.3.ok=true", "--",
                      "verify", "--check", "ideal", "--protocol", "la",
                      "--n", "3"]) == 1
    failed = [line for line in capfd.readouterr().out.splitlines()
              if line.startswith("gate: FAILED")]
    assert [line.split(", ", 1)[1] for line in failed][1:] == [
        "ok is true, not false", "ok is true, not 1",
        "verdicts.0.stats.states is 8, not 9",
        "verdicts.3.ok is missing from the report"]
    assert failed[0].endswith("MB, at or above 1 MB")
    # a command that exits 2 writes no report
    assert gate.main(["--timeout", "60", "--expect", "ok=true", "--",
                      "verify", "--check", "ideal", "--protocol", "la",
                      "--n", "2"]) == 1
    assert "gate: FAILED, exit code 2\n" in capfd.readouterr().out


def test_the_peak_is_the_gated_command_alone(gate, capfd):
    # RUSAGE_CHILDREN would report this earlier child's 80 MB, and a command
    # spawned from this test runner would start at the runner's own peak
    subprocess.run([sys.executable, "-c", "b'x' * (80 << 20)"], check=True)
    assert gate.main(["--timeout", "60", "--max-rss-mb", "60", "--",
                      "verify", "--check", "ideal", "--protocol", "la",
                      "--n", "3"]) == 0
    assert "FAILED" not in capfd.readouterr().out


def test_a_command_that_outlives_the_timeout_is_killed_and_reaped(gate,
                                                                  capfd):
    assert gate.main(["--timeout", "0.001", "--", "verify", "--check",
                      "ideal", "--protocol", "la", "--n", "3"]) == 1
    assert "gate: FAILED, no exit within 0.001 s" in capfd.readouterr().out
    with pytest.raises(ChildProcessError):  # no child is left to reap
        os.waitpid(-1, os.WNOHANG)


def test_a_command_with_no_report_is_gated_on_exit_and_memory(gate, capfd):
    # simulate takes no --json, so with no --expect the gate asks for none
    simulate = ["--", "simulate", "--protocol", "pif", "--n", "5", "--steps",
                "10"]
    assert gate.main(["--timeout", "60", "--max-rss-mb", "1000",
                      *simulate]) == 0
    out = capfd.readouterr().out
    assert out.startswith("gate: python -m stabiliq simulate ")
    assert "--json" not in out.splitlines()[0]
    assert "gate: exit 0, peak RSS" in out and "FAILED" not in out
    assert gate.main(["--timeout", "60", "--max-rss-mb", "1",
                      *simulate]) == 1
    assert "MB, at or above 1 MB" in capfd.readouterr().out
