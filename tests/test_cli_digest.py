"""``tools/cli_digest.py`` prints the same lines for two runs of one seed."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"


def test_two_runs_of_one_seed_print_the_same_lines(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts src/ and perfbench/ first
    spec = importlib.util.spec_from_file_location("cli_digest", TOOL)
    cli_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_digest)
    # at 8 rings, as the benchmark's warm-up runs these configs
    first, second = (cli_digest.digest_lines(1, str(tmp_path / run), ["--mesh", "8"]) for run in "ab")
    assert first == second
    assert len(first) == 7
    for line in first:  # seed, name, "exit", code, then three (label, digest) pairs
        fields = line.split()
        assert fields[3] == "0" and "-" not in fields[5::2]
