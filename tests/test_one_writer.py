"""Subcommands compute and ``main`` writes: one output path for every CLI run.

Each ``_cmd_*`` in ``cli.py`` returns its CSV rows, report body, summary and
exit status; only ``main`` reads the geometry, resolves the output directory
and writes the CSV and ``report.json``.  The lint below parses the module and
names every other function that does one of these.
"""

import ast
from pathlib import Path

import pytest

CLI = Path(__file__).resolve().parent.parent / "src" / "torusbvp" / "cli.py"
WRITER = "main"
OUTPUT_STEPS = {"write_csv", "write_report", "_out_dir", "_geometry"}


def _called(node):
    return getattr(node.func, "id", getattr(node.func, "attr", None))


def writer_breaches(tree):
    """``(line, reason)`` of every call to an output step from a function other than ``main``."""
    return sorted((node.lineno, "%s called in %s" % (_called(node), scope.name))
                  for scope in tree.body if isinstance(scope, ast.FunctionDef) and scope.name != WRITER
                  for node in ast.walk(scope) if isinstance(node, ast.Call) and _called(node) in OUTPUT_STEPS)


def test_only_main_writes_outputs():
    assert writer_breaches(ast.parse(CLI.read_text(), filename=str(CLI))) == []


@pytest.mark.parametrize("source, flagged", [
    ("def main(argv):\n    out = _out_dir(cfg, args)\n    write_csv(path, header, rows)", False),
    ("def main(argv):\n    write_report(path, command, cfg, p, body)\n    p = _geometry(cfg)", False),
    ("def _cmd_corollary(args, cfg, p):\n    return 'corollary.csv', header, rows, body, summary, 0", False),
    ("def _cmd_verify(args, cfg):\n    p = _geometry(cfg)", True),
    ("def _cmd_solve(args, cfg, p):\n    out = _out_dir(cfg, args)", True),
    ("def _cmd_mt_scan(args, cfg, p):\n    cli.write_csv(path, header, rows)", True),
    ("def _cmd_scan_gamma(args, cfg, p):\n    def done():\n        write_report(path, 'scan-gamma', cfg, p, {})",
     True),
])
def test_lint_flags_output_steps_outside_main(source, flagged):
    assert bool(writer_breaches(ast.parse(source))) is flagged
