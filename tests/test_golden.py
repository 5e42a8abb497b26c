"""The golden corpus of the commands' output, run in process and compared
with tests/golden/corpus.json, and of the parser's diagnostics, compared
with tests/golden/diagnostics.json (tools/golden.py)."""
import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("golden", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_golden_command_prints_what_the_corpus_holds():
    golden = load_tool()
    stored = json.loads(golden.CORPUS.read_text())
    assert [e["argv"] for e in stored] == \
        [" ".join(argv) for argv in golden.commands()]
    # name the changed commands; `python3 tools/golden.py` shows the same
    assert golden.changed(stored, golden.record()) == []


def test_every_third_truncation_of_a_sample_is_diagnosed_as_stored():
    golden = load_tool()
    stored = json.loads(golden.DIAGNOSTICS.read_text())
    assert golden.changed(stored, golden.diagnostics()) == []
