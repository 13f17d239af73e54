import argparse
import json
import shutil
import subprocess
import sys

import pytest

from curvecount import cli
from curvecount.cli import CACHE_DIR_ENV, build_parser, run
from curvecount.errors import InternalCheckError

from helpers import cap_products, eager_parser, src_env


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
    def test_runs_share_one_parser(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        try:
            assert invoke(capsys, "lines", "--ambient", "4", "--degree", "5")[:2] == (0, "2875\n")
            assert invoke(capsys, "lines-ci", "--ambient", "5", "--degrees", "2,4")[:2] == (0, "1280\n")
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
            eager_parser().parse_args(argv)
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
        cli._parser.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parser", eager_parser)
            expected = invoke(capsys, *argv)
        assert expected[0] == code
        assert invoke(capsys, *argv) == expected
        assert invoke(capsys, *argv) == expected

    def test_a_command_line_builds_only_the_parsers_it_reaches(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(
            argparse.ArgumentParser, "__init__", lambda self, **kw: built.append(kw["prog"]) or init(self, **kw)
        )
        lines = ("lines", "--ambient", "4", "--degree", "5")
        try:
            cli._parser.cache_clear()
            assert invoke(capsys, *lines)[:2] == (0, "2875\n")
            assert built == ["curvecount", "curvecount lines"]
            assert invoke(capsys, *lines)[:2] == (0, "2875\n")
            assert len(built) == 2
            cli._parser.cache_clear()
            built.clear()
            assert invoke(capsys, "chern", "segre", "--grassmannian", "2,5", "--degree", "2")[0] == 0
            assert built == ["curvecount", "curvecount chern", "curvecount chern segre"]
        finally:
            cli._parser.cache_clear()


# Each writes exactly one universal-polynomial file to an empty cache
# directory: sym_r2_d3_t4.json and sym_r2_d5_t6.json.
EQUIVALENCE_3_1_3 = ("equivalence", "--total", "3", "--factor", "1", "--ambient", "3")
EQUIVALENCE_5_1_4 = ("equivalence", "--total", "5", "--factor", "1", "--ambient", "4")


class TestCache:
    @pytest.mark.parametrize("argv, count", [
        (("lines", "--ambient", "4", "--degree", "5"), "2875"),
        (("lines-ci", "--ambient", "5", "--degrees", "3,3"), "1053"),
    ], ids=["lines", "lines-ci"])
    def test_line_counts_write_no_cache_file(self, capsys, tmp_path, argv, count):
        # A line count builds only the top class of each Sym^d U*, which is
        # not a universal polynomial of the cache.
        import curvecount.chern as chern

        chern.clear_universal_cache()
        try:
            assert invoke(capsys, "--cache-dir", str(tmp_path), *argv)[:2] == (0, count + "\n")
        finally:
            chern.set_universal_cache_dir(None)
            chern.clear_universal_cache()
        assert list(tmp_path.iterdir()) == []

    def test_cache_dir_flag_writes_files(self, capsys, tmp_path):
        import curvecount.chern as chern

        chern.clear_universal_cache()
        try:
            code, out, _ = invoke(
                capsys,
                "--cache-dir", str(tmp_path),
                "equivalence", "--total", "5", "--factor", "1", "--ambient", "4",
            )
            assert code == 0
            assert out.strip() == "1275"
            assert any(tmp_path.iterdir())
        finally:
            chern.set_universal_cache_dir(None)
            chern.clear_universal_cache()

    def test_cache_dir_env_var(self, capsys, tmp_path, monkeypatch):
        import curvecount.chern as chern

        chern.clear_universal_cache()
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        try:
            code, out, _ = invoke(capsys, "equivalence", "--total", "3", "--factor", "1", "--ambient", "3")
            assert code == 0
            assert out.strip() == "15"
            assert any(tmp_path.iterdir())
        finally:
            chern.set_universal_cache_dir(None)
            chern.clear_universal_cache()


    def test_cache_file_of_another_key_is_recomputed(self, capsys, tmp_path):
        import curvecount.chern as chern

        chern.clear_universal_cache()
        try:
            code, out, _ = invoke(capsys, "--cache-dir", str(tmp_path), *EQUIVALENCE_3_1_3)
            assert (code, out.strip()) == (0, "15")
            shutil.copy(tmp_path / "sym_r2_d3_t4.json", tmp_path / "sym_r2_d5_t6.json")
            chern.clear_universal_cache()
            code, out, _ = invoke(capsys, "--cache-dir", str(tmp_path), *EQUIVALENCE_5_1_4)
            assert (code, out.strip()) == (0, "1275")
            rewritten = json.loads((tmp_path / "sym_r2_d5_t6.json").read_text())
            assert (rewritten["r"], rewritten["d"], rewritten["trunc"]) == (2, 5, 6)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["sym_r2_d3_t4.json", "sym_r2_d5_t6.json"]
        finally:
            chern.set_universal_cache_dir(None)
            chern.clear_universal_cache()

    @pytest.mark.parametrize("damage", ["drop last degree", "short exponent tuple"])
    def test_short_cache_file_is_recomputed(self, capsys, tmp_path, damage):
        import curvecount.chern as chern

        path = tmp_path / "sym_r2_d5_t6.json"
        chern.clear_universal_cache()
        try:
            argv = ["--cache-dir", str(tmp_path), *EQUIVALENCE_5_1_4]
            assert invoke(capsys, *argv)[:2] == (0, "1275\n")
            intact = json.loads(path.read_text())
            stored = json.loads(path.read_text())
            if damage == "drop last degree":
                stored["degrees"].pop()
            else:
                stored["degrees"][6][0][0].pop()
            path.write_text(json.dumps(stored))
            chern.clear_universal_cache()
            assert invoke(capsys, *argv)[:2] == (0, "1275\n")
            assert json.loads(path.read_text()) == intact
        finally:
            chern.set_universal_cache_dir(None)
            chern.clear_universal_cache()

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_cache_dir_that_is_a_file_exits_three(self, capsys, tmp_path, monkeypatch, via):
        import curvecount.chern as chern

        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        argv = ["lines", "--ambient", "4", "--degree", "5"]
        if via == "flag":
            argv = ["--cache-dir", str(blocker)] + argv
        else:
            monkeypatch.setenv(CACHE_DIR_ENV, str(blocker))
        try:
            code, out, err = invoke(capsys, *argv)
        finally:
            chern.set_universal_cache_dir(None)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and str(blocker) in err

    def test_two_processes_share_one_cache_dir(self, tmp_path):
        import curvecount.chern as chern

        argv = [sys.executable, "-m", "curvecount", "--cache-dir", str(tmp_path),
                "chern", "sym", "--grassmannian", "3,9", "--degree", "4"]
        procs = [subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=src_env()) for _ in range(2)]
        outs = [proc.communicate(timeout=60)[0] for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0]
        assert outs[0] == outs[1]
        # Sym^4 of the rank-3 bundle has rank 15 < dim Gr(3,9) = 18, so trunc = 15.
        # One file and no *.tmp left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["sym_r3_d4_t15.json"]
        stored = json.loads((tmp_path / "sym_r3_d4_t15.json").read_text())
        assert (stored["format"], stored["r"], stored["d"], stored["trunc"]) == (chern._CACHE_FORMAT, 3, 4, 15)
        try:
            chern.set_universal_cache_dir(tmp_path)
            assert chern._load_cached(3, 4, 15) == chern._sym_power_product(3, 4, 1, 15).graded(15)
        finally:
            chern.set_universal_cache_dir(None)

    def test_conic_count_writes_no_cache_file(self, capsys, tmp_path):
        # A conic count is a localization sum: it builds no universal polynomial,
        # so a cache directory stays empty, cold or warm.
        import curvecount.chern as chern

        chern.clear_universal_cache()
        try:
            for _ in range(2):
                assert invoke(capsys, "--cache-dir", str(tmp_path), "conics-quintic")[:2] == (0, "609250\n")
                assert list(tmp_path.iterdir()) == []
        finally:
            chern.clear_universal_cache()

    def test_cache_dir_is_the_calls_own(self, capsys, tmp_path, monkeypatch):
        import curvecount.chern as chern

        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        named, library = tmp_path / "named", tmp_path / "library"
        chern.clear_universal_cache()
        try:
            argv = EQUIVALENCE_3_1_3
            assert invoke(capsys, "--cache-dir", str(named), *argv)[:2] == (0, "15\n")
            chern.clear_universal_cache()
            assert invoke(capsys, "equivalence", "--total", "9", "--factor", "1", "--ambient", "6")[:2] == (
                0, "111428037\n")
            assert [p.name for p in named.iterdir()] == ["sym_r2_d3_t4.json"]
            # The library's directory is back after a call that named another, and unused by one that names none.
            chern.set_universal_cache_dir(library)
            chern.clear_universal_cache()
            assert invoke(capsys, "--cache-dir", str(named), *argv)[:2] == (0, "15\n")
            assert chern._CACHE_DIR == library
            chern.clear_universal_cache()
            assert invoke(capsys, *EQUIVALENCE_5_1_4)[:2] == (0, "1275\n")
            assert not any(library.iterdir())
            monkeypatch.setenv(CACHE_DIR_ENV, str(named))
            chern.clear_universal_cache()
            assert invoke(capsys, *EQUIVALENCE_5_1_4)[:2] == (0, "1275\n")
            assert sorted(p.name for p in named.iterdir()) == ["sym_r2_d3_t4.json", "sym_r2_d5_t6.json"]
            assert chern._CACHE_DIR == library
        finally:
            chern.set_universal_cache_dir(None)
            chern.clear_universal_cache()


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
    # As the first command line of an interpreter, before any subcommand's
    # parser exists, the module prints what the in-process `run` prints.
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["twisted-cubics"], ["chern", "segre", "--help"]):
        proc = subprocess.run(
            [sys.executable, "-m", "curvecount", *argv], capture_output=True, text=True, env=src_env()
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == invoke(capsys, *argv)
