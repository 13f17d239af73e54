import argparse
import contextlib
import errno
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curvecount import cli
from curvecount.chern import clear_universal_cache
from curvecount.cli import CACHE_DIR_ENV, build_parser, run
from curvecount.errors import InternalCheckError

from helpers import cap_products, src_env

GOLDEN = Path(__file__).resolve().parent / "golden"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


HELP_LINES = [
    ["--help"],
    *([name, "--help"] for name, *_ in cli.COMMANDS),
    *([group, "--help"] for group in cli.CALCULATORS),
    *([group, name, "--help"] for group, (_, commands) in cli.CALCULATORS.items() for name, *_ in commands),
]
# Usage errors, and an abbreviated global option that argparse accepts: (argv, exit code).
USAGE_LINES = [
    (["twisted-cubics"], 2),
    ([], 2),
    (["chern"], 2),
    (["lines", "--ambient", "4", "--degree", "5", "--bogus"], 2),
    (["schubert", "mult", "--grassmannian", "2x5", "--a", "1", "--b", "1"], 2),
    (["--form", "structured", "lines", "--ambient", "4", "--degree", "5"], 0),
]


class TestCountingCommands:
    def test_lines_on_quintic(self, capsys):
        code, out, _ = invoke(capsys, "lines", "--ambient", "4", "--degree", "5")
        assert code == 0
        assert out.strip() == "2875"

    def test_conics_on_quintic(self, capsys):
        code, out, _ = invoke(capsys, "conics-quintic")
        assert code == 0
        assert out.strip() == "609250"

    def test_rank_mismatch_exits_three(self, capsys):
        code, out, err = invoke(capsys, "lines", "--ambient", "4", "--degree", "4")
        assert code == 3
        assert out == ""
        assert "rank 5" in err and "dim 6" in err

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit before Python 3.10.7")
    def test_count_past_the_digit_limit_exits_three(self, capsys):
        # Lines on a degree-1397 hypersurface in P^700: a count of 4393 digits,
        # past CPython's default limit of 4300.
        previous = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            error = "error: the count has more than 4300 digits, over the sys.get_int_max_str_digits() limit\n"
            assert invoke(capsys, "lines", "--ambient", "700", "--degree", "1397") == (3, "", error)
        finally:
            sys.set_int_max_str_digits(previous)

    @pytest.mark.parametrize("argv", [
        ("lines", "--ambient", "40000", "--degree", "79997"),
        ("equivalence", "--total", "3", "--factor", "1", "--ambient", "40000"),
        ("split-report", "--degree", "79997", "--ambient", "40000"),
    ], ids=["lines", "equivalence", "split-report"])
    def test_grassmannian_past_the_degree_limit_exits_three(self, capsys, monkeypatch, argv):
        # Gr(2, 40001) has dimension 79998, past the limit of 65536: refused
        # before the rank-2 kernel builds a list, where it would run for hours.
        from curvecount import pipelines

        def refuse(*args):
            raise AssertionError("the rank-2 kernel ran")

        for name in ("_top", "_times_sym_power", "_product"):
            monkeypatch.setattr(pipelines, name, refuse)
        error = "error: dim Gr(2,40001) = 79998 must be below 65536\n"
        assert invoke(capsys, *argv) == (3, "", error)

    def test_internal_check_failure_exits_four(self, capsys, monkeypatch):
        # The command table looks the pipeline up in `cli` when it runs, so the patch reaches it.
        def broken(n, d):
            raise InternalCheckError("boom")

        monkeypatch.setattr(cli, "count_lines_hypersurface", broken)
        assert invoke(capsys, "lines", "--ambient", "4", "--degree", "5") == (4, "", "internal error: boom\n")

    @pytest.mark.parametrize("argv, message", [
        (["equivalence", "--total", "5", "--factor", "1", "--ambient", "1"], "need ambient dimension >= 2, got 1"),
        (["dim-count", "--ambient", "1", "--hypersurface", "5", "--curve-degree", "7"],
         "need n >= 2, D >= 1, d >= 1, got (1, 5, 7)"),
    ], ids=["equivalence", "dim-count"])
    def test_ambient_below_two_exits_three(self, capsys, argv, message):
        assert invoke(capsys, *argv) == (3, "", f"error: {message}\n")

    def test_lines_complete_intersection(self, capsys):
        code, out, _ = invoke(capsys, "lines-ci", "--ambient", "5", "--degrees", "2,4")
        assert code == 0
        assert out.strip() == "1280"

    def test_equivalence(self, capsys):
        code, out, _ = invoke(
            capsys, "equivalence", "--total", "5", "--factor", "1", "--ambient", "4"
        )
        assert code == 0
        assert out.strip() == "1275"

    def test_split_report(self, capsys):
        code, out, _ = invoke(capsys, "split-report", "--degree", "5", "--ambient", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "2875"
        assert all(line.endswith("pass") for line in lines[1:])

    def test_tally_checks(self, capsys):
        code, out, _ = invoke(capsys, "tally-checks")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "609250"
        assert sum("pass" in line for line in lines[1:]) == 3


class TestCalculatorCommands:
    def test_schubert_mult(self, capsys):
        code, out, _ = invoke(
            capsys, "schubert", "mult", "--grassmannian", "2,4", "--a", "1,1", "--b", "1,1"
        )
        assert code == 0
        assert json.loads(out) == [[[2, 2], "1"]]

    def test_schubert_pieri(self, capsys):
        code, out, _ = invoke(
            capsys, "schubert", "pieri", "--grassmannian", "2,4", "--a", "2,1", "--k", "1"
        )
        assert code == 0
        assert json.loads(out) == [[[2, 2], "1"]]

    def test_schubert_integrate_power(self, capsys):
        code, out, _ = invoke(
            capsys,
            "schubert", "integrate", "--grassmannian", "2,5", "--a", "1", "--power", "6",
        )
        assert code == 0
        assert out.strip() == '"5"'

    @pytest.mark.parametrize("grassmannian, integral", [("2,4", "0"), ("2,2", "1")])
    def test_schubert_integrate_huge_power_of_the_unit(self, capsys, monkeypatch, grassmannian, integral):
        cap_products(monkeypatch)
        code, out, _ = invoke(
            capsys, "schubert", "integrate", "--grassmannian", grassmannian, "--a", "0", "--power", str(10**12)
        )
        assert (code, out) == (0, f'"{integral}"\n')

    def test_schubert_out_of_box_exits_three(self, capsys):
        code, _, err = invoke(
            capsys, "schubert", "mult", "--grassmannian", "2,4", "--a", "3", "--b", "1"
        )
        assert code == 3
        assert "box" in err

    @pytest.mark.parametrize("a", ["1,2", "0,-1"])
    def test_malformed_partition_exits_three(self, capsys, a):
        code, out, err = invoke(capsys, "schubert", "mult", "--grassmannian", "2,5", "--a", a, "--b", "1")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("grassmannian", ["0,5", "3,2"])
    def test_empty_grassmannian_exits_three(self, capsys, grassmannian):
        code, out, err = invoke(capsys, "schubert", "mult", "--grassmannian", grassmannian, "--a", "1", "--b", "1")
        assert code == 3
        assert out == ""
        assert err == f"error: need 0 < r <= N, got Gr({grassmannian})\n"

    def test_negative_power_exits_three(self, capsys):
        code, out, err = invoke(
            capsys, "schubert", "integrate", "--grassmannian", "2,5", "--a", "1", "--power", "-1"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: negative powers") and "Traceback" not in err

    def test_dim_count(self, capsys):
        code, out, _ = invoke(
            capsys,
            "dim-count", "--ambient", "4", "--hypersurface", "5", "--curve-degree", "7",
        )
        assert code == 0
        assert "expected_dim=0" in out

    def test_normal_bundle(self, capsys):
        code, out, _ = invoke(capsys, "normal-bundle", "--a", "-1", "--b", "-1")
        assert code == 0
        assert out.strip() == "h0=0 rigid=true"

    def test_normal_bundle_bad_split_exits_three(self, capsys):
        code, _, err = invoke(capsys, "normal-bundle", "--a", "0", "--b", "0")
        assert code == 3
        assert "a + b = -2" in err

    def test_chern_sym(self, capsys):
        code, out, _ = invoke(capsys, "chern", "sym", "--grassmannian", "2,5", "--degree", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 6
        assert payload["components"][0] == [[[], "1"]]

    def test_chern_dual(self, capsys):
        code, out, _ = invoke(capsys, "chern", "dual", "--grassmannian", "2,5", "--degree", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["components"][1] == [[[1], "-1"]]

    def test_chern_twist(self, capsys):
        code, out, _ = invoke(
            capsys, "chern", "twist", "--grassmannian", "2,5", "--degree", "1", "--by", "1"
        )
        assert code == 0
        assert json.loads(out)["components"][1] == [[[1], "3"]]

    def test_chern_quotient(self, capsys):
        code, out, _ = invoke(
            capsys, "chern", "quotient", "--grassmannian", "3,5", "--num", "5", "--den", "3"
        )
        assert code == 0
        assert json.loads(out)["rank"] == 11

    def test_chern_segre(self, capsys):
        code, out, _ = invoke(
            capsys, "chern", "segre", "--grassmannian", "2,5", "--degree", "1", "--trunc", "2"
        )
        assert code == 0
        classes = json.loads(out)
        assert classes[0] == [[[], "1"]]
        assert classes[1] == [[[1], "-1"]]

    def test_chern_twist_on_a_point_is_the_untwisted_class(self, capsys):
        # On Gr(2,2), c_1(U*) = 0, so a twist by any multiple of it changes nothing.
        untwisted = invoke(capsys, "chern", "twist", "--grassmannian", "2,2", "--degree", "1", "--by", "0")
        assert untwisted[0] == 0
        for by in ("1", "-2"):
            assert invoke(capsys, "chern", "twist", "--grassmannian", "2,2", "--degree", "1", "--by", by) == untwisted

    @pytest.mark.parametrize("argv", [
        ("segre", "--grassmannian", "2,40000", "--degree", "2"),  # Segre classes up to degree 79996
        ("sym", "--grassmannian", "2,70000", "--degree", "65535"),  # rank 65536
    ], ids=["segre", "sym"])
    def test_chern_answer_past_the_degree_limit_exits_three(self, capsys, monkeypatch, argv):
        import curvecount.chern as chern

        def no_work(*key):
            raise AssertionError(f"universal polynomials {key} asked for")

        monkeypatch.setattr(chern, "sym_power_elementary", no_work)
        code, out, err = invoke(capsys, "chern", *argv)
        assert (code, out) == (3, "")
        assert f"dim < {chern.DEGREE_LIMIT}" in err

    def test_chern_segre_truncation_at_the_degree_limit_exits_three(self, capsys):
        import curvecount.chern as chern

        limit = chern.DEGREE_LIMIT
        code, out, err = invoke(
            capsys, "chern", "segre", "--grassmannian", "2,4", "--degree", "2", "--trunc", str(limit)
        )
        assert (code, out) == (3, "")
        assert err == f"error: truncation degree {limit} must be below {limit}\n"

    def test_chern_segre_negative_truncation_exits_three(self, capsys):
        code, out, err = invoke(
            capsys, "chern", "segre", "--grassmannian", "2,5", "--degree", "1", "--trunc", "-3"
        )
        assert code == 3
        assert out == ""
        assert "truncation degree must be >= 0" in err


class TestOutputContract:
    @pytest.mark.parametrize("argv, plain, payload", [
        (["dim-count", "--ambient", "4", "--hypersurface", "5", "--curve-degree", "7"],
         "parameters=40 conditions=36 reparametrizations=4 expected_dim=0\n",
         {"consistency": [], "count": "0", "inputs": {"ambient": 4, "curve_degree": 7, "hypersurface": 5},
          "pipeline": "dim-count",
          "record": {"conditions": "36", "expected_dim": "0", "parameters": "40", "reparametrizations": "4"}}),
        (["normal-bundle", "--a", "1", "--b", "-3"], "h0=2 rigid=false\n",
         {"consistency": [], "count": "2", "inputs": {"a": 1, "b": -3}, "pipeline": "normal-bundle",
          "record": {"h0": "2", "rigid": False}}),
    ], ids=["dim-count", "normal-bundle"])
    def test_record_output_text(self, capsys, argv, plain, payload):
        # Plain output lists the fields in declared order; structured output is sorted JSON.
        assert invoke(capsys, *argv) == (0, plain, "")
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert invoke(capsys, "--format", "structured", *argv) == (0, expected, "")

    def test_structured_round_trip_is_byte_identical(self, capsys):
        code, out, _ = invoke(
            capsys, "--format", "structured", "--trace", "lines", "--ambient", "4", "--degree", "5"
        )
        assert code == 0
        reparsed = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        assert reparsed == out

    def test_structured_count_is_decimal_string(self, capsys):
        code, out, _ = invoke(capsys, "--format", "structured", "conics-quintic")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == "609250"
        assert payload["pipeline"] == "conics-quintic"

    def test_trace_flag_adds_trace_without_changing_count(self, capsys):
        _, bare, _ = invoke(capsys, "--format", "structured", "lines", "--ambient", "4", "--degree", "5")
        _, traced, _ = invoke(
            capsys, "--format", "structured", "--trace", "lines", "--ambient", "4", "--degree", "5"
        )
        bare_payload, traced_payload = json.loads(bare), json.loads(traced)
        assert "trace" not in bare_payload
        assert traced_payload["count"] == bare_payload["count"]
        trace = dict(traced_payload["trace"])
        assert trace["count"] == "2875"

    def test_plain_trace_prints_one_line_per_entry(self, capsys):
        argv = ("--trace", "lines", "--ambient", "4", "--degree", "5")
        _, structured, _ = invoke(capsys, "--format", "structured", *argv)
        trace = json.loads(structured)["trace"]
        assert len(trace) == 5
        lines = ["2875"] + [f"trace {label}: {value}" for label, value in trace]
        assert invoke(capsys, *argv) == (0, "\n".join(lines) + "\n", "")

    def test_empty_calculator_result_prints_zero(self, capsys):
        # No horizontal strip of 9 boxes fits the 2 x 2 box.
        argv = ("schubert", "pieri", "--grassmannian", "2,4", "--a", "1", "--k", "9")
        assert invoke(capsys, *argv) == (0, "0\n", "")
        code, out, _ = invoke(capsys, "--format", "structured", *argv)
        assert (code, json.loads(out)["result"]) == (0, [])

    def test_structured_consistency_entries(self, capsys):
        code, out, _ = invoke(capsys, "--format", "structured", "tally-checks")
        payload = json.loads(out)
        assert code == 0
        assert [entry["pass"] for entry in payload["consistency"]] == [True, True, True]


# Every subcommand on a small input: argv, pipeline, the payload key holding
# the answer, and the answer.
ONE = [[[], "1"]]
STRUCTURED = [
    (["lines", "--ambient", "4", "--degree", "5"], "lines-hypersurface", "count", "2875"),
    (["lines-ci", "--ambient", "5", "--degrees", "2,4"], "lines-complete-intersection", "count", "1280"),
    (["conics-quintic"], "conics-quintic", "count", "609250"),
    (["equivalence", "--total", "5", "--factor", "1", "--ambient", "4"], "equivalence-lines-factor", "count", "1275"),
    (["split-report", "--degree", "3", "--ambient", "3"], "degeneration-split", "count", "27"),
    (["dim-count", "--ambient", "4", "--hypersurface", "5", "--curve-degree", "7"], "dim-count", "count", "0"),
    (["normal-bundle", "--a", "1", "--b", "-3"], "normal-bundle", "count", "2"),
    (["tally-checks"], "tally-checks", "count", "609250"),
    (["schubert", "mult", "--grassmannian", "2,4", "--a", "1,1", "--b", "1,1"], "schubert-mult", "result",
     [[[2, 2], "1"]]),
    (["schubert", "pieri", "--grassmannian", "2,4", "--a", "2,1", "--k", "1"], "schubert-pieri", "result",
     [[[2, 2], "1"]]),
    (["schubert", "integrate", "--grassmannian", "2,5", "--a", "1", "--power", "6"], "schubert-integrate",
     "result", "5"),
    (["chern", "sym", "--grassmannian", "2,4", "--degree", "1"], "chern-sym", "result",
     {"rank": 2, "components": [ONE, [[[1], "1"]], [[[1, 1], "1"]]]}),
    (["chern", "dual", "--grassmannian", "2,4", "--degree", "1"], "chern-dual", "result",
     {"rank": 2, "components": [ONE, [[[1], "-1"]], [[[1, 1], "1"]]]}),
    # c_1 = sigma_1 + 2 sigma_1 and c_2 = sigma_11 + sigma_1^2 + sigma_1^2 = 2 sigma_2 + 3 sigma_11.
    (["chern", "twist", "--grassmannian", "2,5", "--degree", "1", "--by", "1"], "chern-twist", "result",
     {"rank": 2, "components": [ONE, [[[1], "3"]], [[[1, 1], "3"], [[2], "2"]]]}),
    # c_1(Sym^2 U*) = 3 c_1(U*), so the rank-1 quotient by U* has c_1 = 2 sigma_1.
    (["chern", "quotient", "--grassmannian", "2,4", "--num", "2", "--den", "1"], "chern-quotient", "result",
     {"rank": 1, "components": [ONE, [[[1], "2"]]]}),
    # s_1 = -sigma_1 and s_2 = sigma_1^2 - sigma_11 = sigma_2.
    (["chern", "segre", "--grassmannian", "2,5", "--degree", "1", "--trunc", "2"], "chern-segre", "result",
     [ONE, [[[1], "-1"]], [[[2], "1"]]]),
]


@pytest.mark.parametrize("argv, pipeline, key, expected", STRUCTURED, ids=[" ".join(row[0]) for row in STRUCTURED])
def test_every_subcommand_structured(capsys, argv, pipeline, key, expected):
    code, out, _ = invoke(capsys, "--format", "structured", *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["pipeline"] == pipeline
    assert payload[key] == expected


def test_structured_table_covers_every_subcommand():
    from curvecount.cli import CALCULATORS, COMMANDS

    names = {name for name, *_ in COMMANDS}
    names |= {f"{group} {name}" for group, (_, commands) in CALCULATORS.items() for name, *_ in commands}
    covered = {" ".join(argv[:2]) if argv[0] in CALCULATORS else argv[0] for argv, *_ in STRUCTURED}
    assert covered == names


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["twisted-cubics"]) == 2

    def test_unknown_flag(self, capsys):
        assert run(["lines", "--ambient", "4", "--degree", "5", "--bogus"]) == 2

    def test_missing_subcommand(self, capsys):
        assert run([]) == 2

    def test_malformed_grassmannian(self, capsys):
        for text in ("nope", "2,x"):
            assert run(["schubert", "mult", "--grassmannian", text, "--a", "1", "--b", "1"]) == 2

    def test_malformed_degrees(self, capsys):
        code, out, err = invoke(capsys, "lines-ci", "--ambient", "5", "--degrees", "3,")
        assert (code, out) == (2, "")
        assert "argument --degrees: expected comma-separated integers, got '3,'" in err


class TestParserReuse:
    def test_usage_errors_share_one_parser(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        try:
            assert invoke(capsys, "lines", "--ambient", "4")[:2] == (2, "")
            assert invoke(capsys, "lines-ci", "--ambient", "5", "--degrees", "2,x")[:2] == (2, "")
            assert invoke(capsys, "lines", "--help")[0] == 0
            assert built == [1]
        finally:
            cli._parser.cache_clear()

    def test_usage_error_then_a_valid_call(self, capsys):
        code, out, err = invoke(capsys, "lines", "--ambient", "four", "--degree", "5")
        assert (code, out) == (2, "")
        assert err.startswith("usage: curvecount lines")
        assert invoke(capsys, "lines", "--ambient", "4", "--degree", "5") == (0, "2875\n", "")

    def test_each_segre_call_records_its_own_default_trunc(self, capsys):
        for grassmannian, dim in (("2,5", 6), ("3,7", 12)):
            argv = ["--format", "structured", "chern", "segre", "--grassmannian", grassmannian, "--degree", "2"]
            code, out, _ = invoke(capsys, *argv)
            assert code == 0
            assert json.loads(out)["inputs"] == {"grassmannian": grassmannian, "degree": 2, "trunc": dim}

    @pytest.mark.parametrize("argv", HELP_LINES, ids=" ".join)
    def test_help_matches_a_fresh_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        cli._parser.cache_clear()
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        expected = capsys.readouterr().out
        assert expected.startswith("usage: curvecount")
        assert invoke(capsys, *argv) == (0, expected, "")
        assert invoke(capsys, "lines", "--bogus")[0] == 2
        assert invoke(capsys, *argv) == (0, expected, "")

    @pytest.mark.parametrize(
        "argv, code", USAGE_LINES, ids=[" ".join(argv) or "no-command" for argv, _ in USAGE_LINES]
    )
    def test_usage_errors_match_an_eager_parser(self, capsys, monkeypatch, argv, code):
        monkeypatch.setenv("COLUMNS", "80")
        assert cli._table_parse(argv) is None
        cli._parser.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parser", build_parser)
            expected = invoke(capsys, *argv)
        assert expected[0] == code
        assert invoke(capsys, *argv) == expected
        assert invoke(capsys, *argv) == expected

    def test_a_well_formed_line_builds_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(
            argparse.ArgumentParser, "__init__", lambda self, **kw: built.append(kw["prog"]) or init(self, **kw)
        )
        try:
            cli._parser.cache_clear()
            assert invoke(capsys, "lines", "--ambient", "4", "--degree", "5")[:2] == (0, "2875\n")
            assert invoke(capsys, "chern", "segre", "--grassmannian", "2,5", "--degree", "2")[0] == 0
            assert invoke(capsys, "--format", "structured", "--trace", "conics-quintic")[0] == 0
            assert built == []
            assert invoke(capsys, "lines", "--ambient", "-4", "--degree", "5")[0] == 3
            assert built[0] == "curvecount"
        finally:
            cli._parser.cache_clear()


# The corpus on which `cli._table_parse` must agree with argparse, made from
# the command tables.  Every subcommand gets its well-formed lines, which
# the table must take, and lines it may refuse.  Each value that a type
# accepts (Unicode digits among them) must read as argparse reads it.
# The refusals that exit 3 with a message of the engine's own, run from a
# directory holding an empty file `blocker` and with the digit limit at 4300.
REFUSAL_LINES = [
    ["lines", "--ambient", "40000", "--degree", "79997"],
    ["equivalence", "--total", "3", "--factor", "1", "--ambient", "40000"],
    ["split-report", "--degree", "79997", "--ambient", "40000"],
    ["lines", "--ambient", "700", "--degree", "1397"],
    ["chern", "segre", "--grassmannian", "2,4", "--degree", "2", "--trunc", "65536"],
    ["--cache-dir", "blocker", "conics-quintic"],
    ["--cache-dir", "blocker/sub", "conics-quintic"],
]
TEXT_LINES = HELP_LINES + [argv for argv, _ in USAGE_LINES] + REFUSAL_LINES
# Per Python version "major.minor": command line -> [exit code, sha256 of stdout, sha256 of stderr].
TEXT_DIGESTS = json.loads((GOLDEN / "cli-texts.json").read_text())
VERSION = "%d.%d" % sys.version_info[:2]


def text_digests(argv) -> list:
    """[exit code, sha256 of stdout, sha256 of stderr] of `run(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return [code, *(hashlib.sha256(text.getvalue().encode()).hexdigest() for text in (out, err))]


class TestTextDigests:
    """The bytes of every help text, usage error and refusal, pinned by
    digest in tests/golden/cli-texts.json at COLUMNS=80.  argparse lays out
    its texts differently across versions, so the digests are kept per
    Python version, and a version with none skips and names itself."""

    @pytest.fixture
    def pinned(self, monkeypatch, tmp_path):
        if VERSION not in TEXT_DIGESTS:
            pytest.skip(f"no CLI text digests for Python {VERSION}; tests/golden/cli-texts.json has {sorted(TEXT_DIGESTS)}")
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "blocker").write_text("")
        previous = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
        if previous is not None:
            sys.set_int_max_str_digits(4300)
        try:
            yield TEXT_DIGESTS[VERSION]
        finally:
            if previous is not None:
                sys.set_int_max_str_digits(previous)

    def test_every_line_has_a_digest(self, pinned):
        assert sorted(pinned) == sorted(" ".join(argv) for argv in TEXT_LINES)

    @pytest.mark.parametrize("argv", TEXT_LINES, ids=" ".join)
    def test_text_matches_its_digest(self, pinned, argv):
        if "1397" in argv and not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("no digit limit before Python 3.10.7")
        assert text_digests(argv) == pinned[" ".join(argv)]


GLOBALS = (("--format", "structured"), ("--trace",), ("--cache-dir", "cache"))
VALUES = {
    int: ("4", "0", "٣", "４", " 7 ", "1_0", "²", "x", "4.0", "", "-1", "-0"),
    cli._parse_degrees: ("2,4", "3", "3,", ",", "", "2,x", "-2,4"),
    cli._parse_partition: ("2,1", "1", "0", "", " ", "1,1,1", "1,x", "0,-1"),
    cli._parse_grassmannian: ("2,5", "2x5", "2", "2,5,7", "", "2,-5"),
}
WELL_FORMED_VALUE = {int: "3", cli._parse_degrees: "2,4", cli._parse_partition: "1", cli._parse_grassmannian: "2,5"}


# Each subcommand: (its own tokens, its options as (flag, argparse keywords)).
SUBCOMMANDS = [((name,), options) for name, _, options, _ in cli.COMMANDS] + [
    ((group, name), (cli._GRASSMANNIAN,) + options)
    for group, (_, commands) in cli.CALCULATORS.items() for name, _, options, _ in commands
]


def _pairs(options):
    return [(flag, WELL_FORMED_VALUE[keywords["type"]]) for flag, keywords in options]


def _flatten(pairs):
    return [token for pair in pairs for token in pair]


def _well_formed(path, options):
    """The globals in every order and the options in every order."""
    pairs = _pairs(options)
    for k in range(len(GLOBALS) + 1):
        for globals_ in itertools.permutations(GLOBALS, k):
            yield [*_flatten(globals_), *path, *_flatten(pairs)]
    for order in itertools.permutations(pairs):
        yield [*path, *_flatten(order)]
    for flag, keywords in options:
        if not keywords.get("required"):
            yield [*path, *_flatten(pair for pair in pairs if pair[0] != flag)]


def _malformed(path, options):
    """Lines the table may refuse; argparse may still take some of them."""
    pairs = _pairs(options)
    line = [*path, *_flatten(pairs)]
    for i in range(len(line) + 1):
        yield line[:i]  # missing tokens
        for token in ("-h", "--help", "", "extra", "--bogus"):
            yield [*line[:i], token, *line[i:]]
    for i, (flag, value) in enumerate(pairs):
        others = pairs[:i] + pairs[i + 1:]
        for odd in VALUES[dict(options)[flag]["type"]]:
            yield [*path, *_flatten(others), flag, odd]
        yield [*path, *_flatten(others)]
        yield [*path, *_flatten(pairs), flag, value]  # repeated, with the same value
        yield [*path, *_flatten(others), f"{flag}={value}"]
        for cut in (-1, 3):
            yield [*path, *_flatten(others), flag[:cut], value]  # abbreviated
    for extra in (["--trace"], ["--format", "structured"], ["--cache-dir", "cache"]):
        yield [*line, *extra]  # a global option after the command
    for globals_ in (["--trace", "--trace"], ["--format", "plain", "--format", "structured"],
                     ["--format", "json"], ["--format", "-1"], ["--cache-dir"], ["--cache-dir", "-x"],
                     ["--form", "structured"], ["--format=structured"], ["--tr"], ["--cache-dir="]):
        yield [*globals_, *line]
    if len(path) == 2:
        yield [path[0], *_flatten(pairs)]
        yield [path[0], path[0], path[1], *_flatten(pairs)]
        yield [path[0], path[1][:-1], *_flatten(pairs)]


def _parsed(parser, argv):
    """What argparse makes of `argv`: its namespace's items, func by what it
    calls, or None where it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            namespace = parser.parse_args(argv)
    except SystemExit:
        return None
    return _items(namespace)


def _items(namespace):
    items = vars(namespace)
    func = items.pop("func")
    return {**items, "func": (func.func, func.args, func.keywords)}


@pytest.fixture(scope="module")
def parser():
    return build_parser()


class TestTableParse:
    @pytest.mark.parametrize("path, options", SUBCOMMANDS, ids=[" ".join(path) for path, _ in SUBCOMMANDS])
    def test_the_table_agrees_with_argparse(self, parser, path, options):
        for argv in _well_formed(path, options):
            table = cli._table_parse(argv)
            assert table is not None, argv
            assert _items(table) == _parsed(parser, argv), argv
        for argv in _malformed(path, options):
            table = cli._table_parse(argv)
            assert table is None or _items(table) == _parsed(parser, argv), argv

    @pytest.mark.parametrize("argv", [
        [], [""], ["--trace"], ["twisted-cubics"], ["line"], ["-h"], ["--help"], ["--version"], ["--"],
        ["--", "conics-quintic"], ["conics-quintic", "--"], ["conics-quintic", "extra"], ["schubert"],
        ["chern", "--help"], ["chern", "segre"], ["chern", "sym", "-h"], ["--trace", "--", "tally-checks"],
    ], ids=repr)
    def test_the_table_refuses_what_it_cannot_read(self, argv):
        assert cli._table_parse(argv) is None

    @pytest.mark.parametrize("argv", [
        ["lines", "--ambient", "٣", "--degree", "４"],
        ["lines-ci", "--ambient", " 1_0 ", "--degrees", "٢,３"],
        ["schubert", "integrate", "--grassmannian", "2,5", "--a", "", "--power", "0"],
        ["--cache-dir", "lines", "tally-checks"],
        ["--format", "plain", "--cache-dir", "", "conics-quintic"],
    ], ids=repr)
    def test_the_table_reads_what_argparse_reads(self, parser, argv):
        assert _items(cli._table_parse(argv)) == _parsed(parser, argv)


# The two `chern sym` lines each wrote one universal-polynomial file to an
# empty cache directory while the cache was kept on disk; the counts never did.
CACHE_COMMANDS = {
    "sym-2,5": ("chern", "sym", "--grassmannian", "2,5", "--degree", "5"),
    "sym-3,9": ("--format", "structured", "chern", "sym", "--grassmannian", "3,9", "--degree", "4"),
    "lines": ("lines", "--ambient", "4", "--degree", "5"),
    "lines-ci": ("lines-ci", "--ambient", "5", "--degrees", "3,3"),
    "conics-quintic": ("conics-quintic",),
    "equivalence": ("equivalence", "--total", "5", "--factor", "1", "--ambient", "4"),
    "split-report": ("split-report", "--degree", "5", "--ambient", "4"),
}


class TestCache:
    @pytest.mark.parametrize("via", ["flag", "env"])
    @pytest.mark.parametrize("name", sorted(CACHE_COMMANDS))
    def test_cache_dir_is_made_and_left_empty(self, capsys, tmp_path, monkeypatch, via, name):
        # A named cache directory is created and nothing is stored in it: the
        # command prints what it prints with none, cold and warm.
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        argv = CACHE_COMMANDS[name]
        cache = tmp_path / "cache"
        clear_universal_cache()
        try:
            plain = invoke(capsys, *argv)
            assert plain[0] == 0
            if via == "flag":
                argv = ("--cache-dir", str(cache)) + argv
            else:
                monkeypatch.setenv(CACHE_DIR_ENV, str(cache))
            clear_universal_cache()
            assert invoke(capsys, *argv) == plain
            assert invoke(capsys, *argv) == plain
        finally:
            clear_universal_cache()
        assert cache.is_dir() and list(cache.iterdir()) == []

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_cache_dir_that_is_a_file_exits_three(self, capsys, tmp_path, monkeypatch, via):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        argv = ["lines", "--ambient", "4", "--degree", "5"]
        if via == "flag":
            argv = ["--cache-dir", str(blocker)] + argv
        else:
            monkeypatch.setenv(CACHE_DIR_ENV, str(blocker))
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and str(blocker) in err

    @pytest.mark.parametrize("via", ["flag", "env"])
    @pytest.mark.parametrize("name", sorted(CACHE_COMMANDS))
    def test_unusable_cache_dir_stops_every_command(self, capsys, tmp_path, monkeypatch, via, name):
        # `run` checks the directory before any command starts, so each one
        # exits 3 with the same message and prints nothing of its own.
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        argv = CACHE_COMMANDS[name]
        if via == "flag":
            monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
            argv = ("--cache-dir", str(blocker)) + argv
        else:
            monkeypatch.setenv(CACHE_DIR_ENV, str(blocker))
        message = f"error: cannot use {blocker} as the cache directory: {os.strerror(errno.EEXIST)}\n"
        assert invoke(capsys, *argv) == (3, "", message)

    def test_unusable_cache_dir_names_the_path_and_the_reason(self, capsys, tmp_path):
        # The path is printed in its normal form, so a trailing slash goes.
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        for given, reason in ((f"{blocker}/", errno.EEXIST), (f"{blocker}/sub", errno.ENOTDIR)):
            code, out, err = invoke(capsys, "--cache-dir", given, "conics-quintic")
            message = f"error: cannot use {given.rstrip('/')} as the cache directory: {os.strerror(reason)}\n"
            assert (code, out, err) == (3, "", message)


def test_import_loads_no_introspection_modules():
    # `dataclasses` pulls in inspect, ast, dis and tokenize, which every
    # fresh interpreter that imports the CLI would pay for.  The module sets
    # before and after the import are compared, since `site` may preload some.
    code = "import sys; before = set(sys.modules); import curvecount.cli; print(*set(sys.modules) - before)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), check=True)
    loaded = set(proc.stdout.split())
    assert "curvecount.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_module_entry_point_subprocess(capsys, monkeypatch):
    proc = subprocess.run(
        [sys.executable, "-m", "curvecount", "lines", "--ambient", "4", "--degree", "5"],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2875"
    # As the first command line of an interpreter, where argparse builds the
    # parser for it, the module prints what the in-process `run` prints.
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["twisted-cubics"], ["chern", "segre", "--help"]):
        proc = subprocess.run(
            [sys.executable, "-m", "curvecount", *argv], capture_output=True, text=True, env=src_env()
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == invoke(capsys, *argv)


@pytest.mark.parametrize("argv", [
    ["lines", "--ambient", "4", "--degree", "5"],
    ["--format", "structured", "chern", "segre", "--grassmannian", "4,12", "--degree", "3"],
    ["--help"],
    ["lines", "--help"],
])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_one_without_a_traceback(argv, unbuffered):
    # The pipe's read end is closed before the command starts, so its first
    # write to stdout fails whatever the timing.  Buffered, the write fails
    # at the flush; unbuffered, at the print.  Help takes the same write,
    # not argparse's own, which drops a failed one and exits 0.
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "curvecount", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")
