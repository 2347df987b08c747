"""Print a digest of every output of the benchmark's CLI runs, to show that two trees write the same bytes.

Runs the seven configs of ``perfbench/workloads.py::_cli_inputs`` through
``cli.main``, in-process, at seeds 1, 1711 and 1712, in a temporary
directory.  Prints one line per run: the seed, the config's name, the exit
code, and sha256 digests (first 16 hex digits) of the run's standard
output, of its CSV body without the timestamp line and of its
``report.json``; ``-`` stands for a file the run did not write.  Standard
error is not digested: a warning names the line of ``cli.py`` that raised
it.  A header line first gives the numpy and scipy versions.

Run from the root of each source checkout and compare the outputs::

    python tools/cli_digest.py > digest.txt

``tests/golden/cli_digest.txt`` holds this output as committed, and
Tier-1 compares every line after the header with it
(``tests/test_cli_digest.py``).  A change that moves a line by design
rewrites it::

    python tools/cli_digest.py > tests/golden/cli_digest.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # perfbench/workloads.py
from torusbvp import cli

SEEDS = (1, 1711, 1712)


def _sha(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()[:16]


def digest_lines(seed: int, work: str, extra=()) -> list:
    """One line per config of ``seed``, each run with ``extra`` arguments and its outputs under ``work``."""
    _, argvs = workloads._cli_inputs(os.path.join(work, "configs"), np.random.default_rng(seed))
    lines = []
    for name, argv in argvs.items():
        out = os.path.join(work, "out", name)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(argv + list(extra) + ["--out", out])
        written = os.path.isdir(out)  # main makes the directory only to write the CSV and report.json
        csv = workloads._read_csv(out) if written else None
        report = Path(out, "report.json").read_bytes() if written else None
        lines.append("%d %-17s exit %d stdout %s csv %s report %s" % (
            seed, name, status, _sha(stdout.getvalue().encode()), _sha(csv), _sha(report)))
    return lines


def main() -> int:
    print("# numpy %s scipy %s" % (np.__version__, scipy.__version__), flush=True)  # the bits depend on both
    with tempfile.TemporaryDirectory() as work:
        for seed in SEEDS:
            for line in digest_lines(seed, os.path.join(work, str(seed))):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
