"""Byte-identity of traced output against goldens kept in tests/golden.

Each golden is the structured `--trace` output of one CLI invocation, or the
same JSON layout for a library count the CLI does not expose, as an earlier
engine printed it.  A change of route through the engine must leave every
count and every traced intermediate class byte for byte as it was.
"""

import json
from pathlib import Path

import pytest

from curvecount import count_curves
from curvecount.cli import CACHE_DIR_ENV, run

GOLDEN = Path(__file__).resolve().parent / "golden"

CLI_CASES = {
    "lines-3-3": ("lines", "--ambient", "3", "--degree", "3"),
    "lines-4-5": ("lines", "--ambient", "4", "--degree", "5"),
    "lines-8-13": ("lines", "--ambient", "8", "--degree", "13"),
    "lines-ci-5-3,3": ("lines-ci", "--ambient", "5", "--degrees", "3,3"),
    "lines-ci-5-2,4": ("lines-ci", "--ambient", "5", "--degrees", "2,4"),
    "lines-ci-6-2,2,3": ("lines-ci", "--ambient", "6", "--degrees", "2,2,3"),
    "lines-ci-7-2,2,2,2": ("lines-ci", "--ambient", "7", "--degrees", "2,2,2,2"),
    "conics-quintic": ("conics-quintic",),
    "equivalence-5-1-4": ("equivalence", "--total", "5", "--factor", "1", "--ambient", "4"),
    "equivalence-5-4-4": ("equivalence", "--total", "5", "--factor", "4", "--ambient", "4"),
    "equivalence-7-3-5": ("equivalence", "--total", "7", "--factor", "3", "--ambient", "5"),
    "split-report-3-3": ("split-report", "--degree", "3", "--ambient", "3"),
    "split-report-5-4": ("split-report", "--degree", "5", "--ambient", "4"),
    "split-report-7-5": ("split-report", "--degree", "7", "--ambient", "5"),
}

# Conics beyond the quintic have no subcommand; their goldens use the CLI's JSON layout.
LIBRARY_CASES = {
    "conics-5-2,4": ("conics", 5, [2, 4]),
    "conics-6-8": ("conics", 6, [8]),
    "conics-5-1,5": ("conics", 5, [1, 5]),
}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_trace_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    assert run(["--format", "structured", "--trace", *CLI_CASES[name]]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(LIBRARY_CASES))
def test_library_trace_matches_golden(name):
    payload = count_curves(*LIBRARY_CASES[name]).to_payload(include_trace=True)
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == (GOLDEN / f"{name}.json").read_text()
