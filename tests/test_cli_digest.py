"""``tools/cli_digest.py`` prints the same lines for two runs of one seed, and the lines committed in ``golden/``.

The golden file is the tool's output: a header with the numpy and scipy
versions, then one line per CLI run.  Every line after the header must
match; a change that moves one by design rewrites the file
(``python tools/cli_digest.py > tests/golden/cli_digest.txt``) and says
why the line moved.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"


@pytest.fixture
def cli_digest(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts src/ and perfbench/ first
    spec = importlib.util.spec_from_file_location("cli_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_of_one_seed_print_the_same_lines(tmp_path, cli_digest):
    # at 8 rings, as the benchmark's warm-up runs these configs
    first, second = (cli_digest.digest_lines(1, str(tmp_path / run), ["--mesh", "8"]) for run in "ab")
    assert first == second
    assert len(first) == 7
    for line in first:  # seed, name, "exit", code, then three (label, digest) pairs
        fields = line.split()
        assert fields[3] == "0" and "-" not in fields[5::2]


def test_the_digest_matches_the_committed_lines(cli_digest, capsys, golden):
    assert cli_digest.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 3 * 7
    golden(lines, "cli_digest.txt")
