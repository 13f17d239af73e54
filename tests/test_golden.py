"""Byte-identity of traced output against goldens kept in tests/golden.

Each golden is the structured `--trace` output of one CLI invocation, or the
same JSON layout for a library count the CLI does not expose, as an earlier
engine printed it.  A change of route through the engine must leave every
count and every traced intermediate class byte for byte as it was.  The
goldens in tests/golden/cache are universal-polynomial cache files as the
CLI writes them, which must stay byte for byte as well.

`chern-calculators.json` maps each command line of a sweep of the `chern`
calculators, in plain and structured mode, to its exit code and the sha256
of `json.dumps([exit code, stdout, stderr])`, as recorded while the
calculators still multiplied in the Schubert basis.  The sweep covers
Gr(r, N) up to Gr(4, 9) with point rings, degrees 1-4, twists by 0, 1 and
-2, Segre truncations unset, 0 and past the dimension, and the inputs that
exit with 3; then the Segre classes of Sym^3 on Gr(4, 12) and two commands
on Gr(2, 40000), whose dimension is past the packing limit.  One change is
intended: on a point c_1(U*) = 0, so a twist by a nonzero multiple of it
prints the untwisted answer where it once failed.
"""

import hashlib
import json
from pathlib import Path

import pytest

from curvecount import GrassmannianRing, count_curves
from curvecount.chern import clear_universal_cache, set_universal_cache_dir
from curvecount.cli import CACHE_DIR_ENV, run

from helpers import schubert_calculator

GOLDEN = Path(__file__).resolve().parent / "golden"
CALCULATORS = json.loads((GOLDEN / "chern-calculators.json").read_text())
SWEPT = sorted({command.split()[5] for command in CALCULATORS})  # the --grassmannian values

CLI_CASES = {
    "lines-3-3": ("lines", "--ambient", "3", "--degree", "3"),
    "lines-4-5": ("lines", "--ambient", "4", "--degree", "5"),
    "lines-8-13": ("lines", "--ambient", "8", "--degree", "13"),
    "lines-ci-5-3,3": ("lines-ci", "--ambient", "5", "--degrees", "3,3"),
    "lines-ci-5-2,4": ("lines-ci", "--ambient", "5", "--degrees", "2,4"),
    "lines-ci-6-2,2,3": ("lines-ci", "--ambient", "6", "--degrees", "2,2,3"),
    "lines-ci-7-2,2,2,2": ("lines-ci", "--ambient", "7", "--degrees", "2,2,2,2"),
    "conics-quintic": ("conics-quintic",),
    "equivalence-3-1-4": ("equivalence", "--total", "3", "--factor", "1", "--ambient", "4"),
    "equivalence-5-1-4": ("equivalence", "--total", "5", "--factor", "1", "--ambient", "4"),
    "equivalence-5-4-4": ("equivalence", "--total", "5", "--factor", "4", "--ambient", "4"),
    "equivalence-7-3-5": ("equivalence", "--total", "7", "--factor", "3", "--ambient", "5"),
    "split-report-3-3": ("split-report", "--degree", "3", "--ambient", "3"),
    "split-report-5-4": ("split-report", "--degree", "5", "--ambient", "4"),
    "split-report-7-5": ("split-report", "--degree", "7", "--ambient", "5"),
}

# Each cache golden is the one file the command writes to an empty cache directory.
CACHE_CASES = {
    "sym_r2_d5_t6.json": ("equivalence", "--total", "5", "--factor", "1", "--ambient", "4"),
    "sym_r3_d4_t15.json": ("chern", "sym", "--grassmannian", "3,9", "--degree", "4"),
    "sym_r3_d11_t18.json": ("chern", "sym", "--grassmannian", "3,9", "--degree", "11"),
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


@pytest.mark.parametrize("name", sorted(CACHE_CASES))
def test_cache_file_matches_golden(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    clear_universal_cache()
    try:
        assert run(["--cache-dir", str(tmp_path), *CACHE_CASES[name]]) == 0
    finally:
        set_universal_cache_dir(None)
        clear_universal_cache()
    assert [path.name for path in tmp_path.iterdir()] == [name]
    assert (tmp_path / name).read_bytes() == (GOLDEN / "cache" / name).read_bytes()


def run_captured(capsys, command: str) -> tuple[int, str, str]:
    code = run(command.split())
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fingerprint(code: int, out: str, err: str) -> list:
    return [code, hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()]


def calculator_commands(grassmannian: str) -> list[list[str]]:
    """The golden command lines on one Grassmannian "r,N", as word lists."""
    return [words for words in map(str.split, CALCULATORS) if words[5] == grassmannian]


def point_twist(words: list[str]) -> bool:
    """A twist by a nonzero multiple of c_1(U*) = 0 on a point, Gr(r, r)."""
    r, n = words[5].split(",")
    return words[3] == "twist" and r == n and words[-1] != "0"


@pytest.mark.parametrize("grassmannian", SWEPT)
def test_chern_calculators_match_golden(grassmannian, capsys, monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    for words in calculator_commands(grassmannian):
        command = " ".join(words)
        code, out, err = run_captured(capsys, command)
        if not point_twist(words):
            assert fingerprint(code, out, err) == CALCULATORS[command], command
            continue
        assert CALCULATORS[command][0] == 3 and (code, err) == (0, ""), command
        _, expected, _ = run_captured(capsys, " ".join(words[:-1] + ["0"]))
        if words[1] == "structured":
            out, expected = json.loads(out)["result"], json.loads(expected)["result"]
        assert out == expected, command


# Gr(4,12) is left out: its Segre classes take 14 s through LR.
@pytest.mark.parametrize("grassmannian", [g for g in SWEPT if g != "4,12"])
def test_chern_calculators_match_the_schubert_route(grassmannian, capsys, monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    for words in calculator_commands(grassmannian):
        if words[1] != "structured":
            continue
        code, out, _ = run_captured(capsys, " ".join(words))
        if code == 0:
            base = GrassmannianRing(*map(int, grassmannian.split(",")))
            options = {flag[2:]: int(value) for flag, value in zip(words[6::2], words[7::2])}
            assert json.loads(out)["result"] == schubert_calculator(words[3], base, options), words
