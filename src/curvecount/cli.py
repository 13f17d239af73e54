"""Command-line interface to the counting pipelines and the ring calculator.

Exit codes: 0 success, 2 usage error, 3 mathematical precondition failure,
4 internal assertion failure.  Output is plain text by default; pass
`--format structured` for a canonical JSON object whose counts are decimal
strings.

`run` reads a well-formed command line straight from the command tables,
`COMMANDS`, `CALCULATORS` and the global options, into the namespace
argparse would make of it, so no parser is built.  Every other line (help,
usage errors, abbreviated or `=`-joined flags, negative values) goes to one
argparse parser per process, built whole by the first such line and reused
after that.  Nothing is built at import.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from functools import cache, partial
from pathlib import PurePath

from . import chern
from .chern import ChernRing, ChernVector, dual_universal_vector, segre_from_chern, tensor_line, whitney_quotient
from .errors import CurveCountError, InternalCheckError, PreconditionError
from .grassmannian import GrassmannianRing, integrate, multiply, pieri
from .pipelines import (
    CountReport,
    NormalBundleType,
    count_conics_quintic,
    count_lines_complete_intersection,
    count_lines_hypersurface,
    degeneration_split_report,
    equivalence_lines_on_factor,
    naive_dimension_count,
    normal_bundle_h0,
    tally_checks,
)

CACHE_DIR_ENV = "CURVECOUNT_CACHE_DIR"


def _parse_grassmannian(text: str) -> tuple[int, int]:
    try:
        r, n = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'r,N', got {text!r}")
    return r, n


def _parse_degrees(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _parse_partition(text: str) -> tuple[int, ...]:
    return () if text.strip() in ("", "0") else tuple(_parse_degrees(text))


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _emit_report(report: CountReport, args) -> None:
    if args.output_format == "structured":
        print(_dump(report.to_payload(include_trace=args.trace)))
        return
    print(report.count)
    for name, ok in report.consistency:
        print(f"check {name}: {'pass' if ok else 'FAIL'}")
    if args.trace:
        for label, value in report.trace:
            print(f"trace {label}: {value}")


def _emit_record(pipeline: str, inputs: dict, record, headline: str, args) -> None:
    fields = {name: getattr(record, name) for name in record.__slots__}  # in declared order
    if args.output_format == "structured":
        payload = {
            "pipeline": pipeline,
            "inputs": inputs,
            "count": str(fields[headline]),
            "record": {k: (str(v) if isinstance(v, int) and not isinstance(v, bool) else v) for k, v in fields.items()},
            "consistency": [],
        }
        print(_dump(payload))
        return
    print(" ".join(f"{k}={str(v).lower() if isinstance(v, bool) else v}" for k, v in fields.items()))


def _emit_class(pipeline: str, inputs: dict, payload_value, args) -> None:
    if args.output_format == "structured":
        print(_dump({"pipeline": pipeline, "inputs": inputs, "result": payload_value}))
        return
    if isinstance(payload_value, list) and not payload_value:
        print("0")
        return
    print(json.dumps(payload_value, separators=(",", ":")))


def _required(parse=int, text=None) -> dict:
    return {"type": parse, "required": True, "help": text}


def _dest(flag: str, keywords: dict) -> str:
    """The namespace attribute argparse gives an option."""
    return keywords.get("dest", flag[2:].replace("-", "_"))


def _inputs(args, options) -> dict:
    """The values of a subcommand's options, keyed by their argparse names."""
    names = [_dest(flag, keywords) for flag, keywords in options]
    return {name: getattr(args, name) for name in names}


def _report(build):
    """Emitter of a subcommand that prints the CountReport `build(args)` returns."""
    return lambda pipeline, options, args: _emit_report(build(args), args)


def _record(build, headline: str):
    """Emitter of a subcommand that prints the record `build(args)` returns."""
    return lambda pipeline, options, args: _emit_record(pipeline, _inputs(args, options), build(args), headline, args)


def _calculator(compute):
    """Emitter of a calculator subcommand printing `compute(ring, args)`."""

    def emit(pipeline, options, args):
        ring = GrassmannianRing(*args.grassmannian)
        value = compute(ring, args)
        inputs = {"grassmannian": f"{ring.r},{ring.N}", **_inputs(args, options)}
        _emit_class(pipeline, inputs, value, args)

    return emit


def _in_chern_ring(build, *degrees):
    """Emitter of a `chern` calculator printing `build(ring, args)`, a Chern
    vector or a list of classes of the `ChernRing` of U*, each class mapped to
    the Schubert basis once.  The ring reaches the truncation and the rank of
    Sym^d for each option named in `degrees`, capped at the Grassmannian's
    dimension as in `sym_power`, so an answer past DEGREE_LIMIT fails at once."""

    def compute(base, args):
        if getattr(args, "trunc", 0) is None:
            args.trunc = base.dim  # the default is recorded in the inputs
        top = max(getattr(args, "trunc", 0), *(chern.sym_power_rank(base.r, getattr(args, d)) for d in degrees))
        ring = ChernRing(base.r, min(base.dim, top))
        value = build(ring, args)
        schubert = ring.evaluator(dual_universal_vector(base))
        if isinstance(value, ChernVector):
            return ChernVector(base, value.rank, map(schubert, value.components)).to_payload()
        return [schubert(x).to_payload() for x in value]

    return _calculator(compute)


# Subcommands: (name, help, options, emitter), with options as (flag, argparse
# keywords).  The lambdas name the pipelines and calculator functions, so each
# call looks them up in this module at call time.
COMMANDS = (
    (
        "lines", "count lines on a hypersurface",
        (("--ambient", _required(text="projective ambient dimension n")),
         ("--degree", _required(text="hypersurface degree"))),
        _report(lambda a: count_lines_hypersurface(a.ambient, a.degree)),
    ),
    (
        "lines-ci", "count lines on a complete intersection",
        (("--ambient", _required()), ("--degrees", _required(_parse_degrees, "e.g. 2,4"))),
        _report(lambda a: count_lines_complete_intersection(a.ambient, a.degrees)),
    ),
    ("conics-quintic", "count conics on the quintic threefold", (), _report(lambda a: count_conics_quintic())),
    (
        "equivalence", "lines absorbed by a factor of a reducible hypersurface",
        (("--total", _required(text="total hypersurface degree D")),
         ("--factor", _required(text="factor degree e")),
         ("--ambient", _required())),
        _report(lambda a: equivalence_lines_on_factor(a.total, a.factor, a.ambient)),
    ),
    (
        "split-report", "equivalences of every split, checked against the total",
        (("--degree", _required()), ("--ambient", _required())),
        _report(lambda a: degeneration_split_report(a.degree, a.ambient)),
    ),
    (
        "dim-count", "naive parameter count for curves on a hypersurface",
        (("--ambient", _required()), ("--hypersurface", _required()), ("--curve-degree", _required())),
        _record(lambda a: naive_dimension_count(a.ambient, a.hypersurface, a.curve_degree), "expected_dim"),
    ),
    (
        "normal-bundle", "sections and rigidity for splitting type O(a)+O(b)",
        (("--a", _required()), ("--b", _required())),
        _record(lambda a: normal_bundle_h0(NormalBundleType(a.a, a.b)), "h0"),
    ),
    ("tally-checks", "verify published component tallies against totals", (), _report(lambda a: tally_checks())),
)

# Calculators on one Grassmannian, given by --grassmannian: group -> (help, subcommands).
_PARTITION = _required(_parse_partition)
CALCULATORS = {
    "schubert": ("Schubert-basis ring calculator", (
        (
            "mult", "product of two basis classes",
            (("--a", _PARTITION), ("--b", _PARTITION)),
            _calculator(lambda ring, a: multiply(ring.sigma(a.a), ring.sigma(a.b)).to_payload()),
        ),
        (
            "pieri", "product with a special class",
            (("--a", _PARTITION), ("--k", _required())),
            _calculator(lambda ring, a: pieri(ring.sigma(a.a), a.k).to_payload()),
        ),
        (
            "integrate", "degree of a power of a basis class",
            (("--a", _PARTITION), ("--power", {"type": int, "default": 1})),
            _calculator(lambda ring, a: str(integrate(ring.sigma(a.a) ** a.power))),
        ),
    )),
    "chern": ("Chern-class calculator on Sym^d of the dual universal bundle", (
        (
            "sym", "components of Sym^d(U*)",
            (("--degree", _required()),),
            _in_chern_ring(lambda ring, a: ring.sym_power(a.degree), "degree"),
        ),
        (
            "dual", "components of the dual of Sym^d(U*)",
            (("--degree", _required()),),
            _in_chern_ring(lambda ring, a: chern.dual(ring.sym_power(a.degree)), "degree"),
        ),
        (
            "twist", "Sym^d(U*) twisted by a line with c1 = by * sigma_1",
            (("--degree", _required()), ("--by", _required())),
            _in_chern_ring(lambda ring, a: tensor_line(
                ring.sym_power(a.degree), a.by * ring.generators().component(1)
            ), "degree"),
        ),
        (
            "quotient", "c(Sym^num U*) / c(Sym^den U*)",
            (("--num", _required()), ("--den", _required())),
            _in_chern_ring(
                lambda ring, a: whitney_quotient(ring.sym_power(a.num), ring.sym_power(a.den)), "num", "den"
            ),
        ),
        (
            "segre", "Segre classes of Sym^d(U*)",
            (("--degree", _required()), ("--trunc", {"type": int, "default": None})),
            _in_chern_ring(lambda ring, a: segre_from_chern(ring.sym_power(a.degree), a.trunc), "degree"),
        ),
    )),
}
_GRASSMANNIAN = ("--grassmannian", _required(_parse_grassmannian, "r,N"))


# The options before the command, as (flag, argparse keywords).
_GLOBAL_OPTIONS = (
    ("--format", {"dest": "output_format", "choices": ("plain", "structured"), "default": "plain",
                  "help": "output format (default: plain)"}),
    ("--trace", {"action": "store_true", "default": False, "help": "include intermediate classes"}),
    ("--cache-dir", {"default": None,
                     "help": f"accepted and created if missing; nothing is stored there (or ${CACHE_DIR_ENV})"}),
)


def _add_commands(sub, prefix: str, commands, common=()) -> None:
    for name, summary, options, emit in commands:
        parser = sub.add_parser(name, help=summary)
        for flag, keywords in common + options:
            parser.add_argument(flag, **keywords)
        parser.set_defaults(func=partial(emit, prefix + name, options))


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the whole command line, every subcommand's included."""
    parser = argparse.ArgumentParser(
        prog="curvecount",
        description="Exact curve counts on Calabi-Yau threefolds via Schubert calculus.",
    )
    for flag, keywords in _GLOBAL_OPTIONS:
        parser.add_argument(flag, **keywords)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_commands(sub, "", COMMANDS)
    for group, (summary, commands) in CALCULATORS.items():
        group_sub = sub.add_parser(group, help=summary).add_subparsers(dest="subcommand", required=True)
        _add_commands(group_sub, f"{group}-", commands, (_GRASSMANNIAN,))
    return parser


def _take_options(tokens: list[str], options, values: dict) -> list[str] | None:
    """Read the leading flags of `options` and their values off `tokens` into
    `values`, and the defaults of the options not given; return the tokens
    after them.  None for a value that starts with '-' or that its type or
    choices refuse, or a required option not given.  A repeated flag ends
    the reading, so the caller sees it as the next token."""
    unread = dict(options)
    i = 0
    while i < len(tokens) and tokens[i] in unread:
        flag = tokens[i]
        keywords = unread.pop(flag)
        if keywords.get("action") == "store_true":
            values[_dest(flag, keywords)] = True
            i += 1
            continue
        if i + 1 == len(tokens) or tokens[i + 1].startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(tokens[i + 1])
        except (ValueError, argparse.ArgumentTypeError):
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[_dest(flag, keywords)] = value
        i += 2
    for flag, keywords in unread.items():
        if keywords.get("required"):
            return None
        values[_dest(flag, keywords)] = keywords.get("default")
    return tokens[i:]


def _table_parse(argv) -> argparse.Namespace | None:
    """The namespace that `build_parser().parse_args(argv)` returns, read
    straight from the command tables, or None for any line it does not fully
    recognise: abbreviated, `=`-joined or repeated flags, a global option
    after the command, any value that starts with '-' (negative numbers and
    help included), a missing, unknown or extra token, or a value that its
    type or choices refuse.  argparse reads those lines instead."""
    values: dict = {}
    rest = _take_options(list(argv), _GLOBAL_OPTIONS, values)
    if not rest:
        return None
    values["command"], *rest = rest
    prefix, commands, common = "", COMMANDS, ()
    if values["command"] in CALCULATORS:
        if not rest:
            return None
        values["subcommand"], *rest = rest
        prefix, commands, common = f"{values['command']}-", CALCULATORS[values["command"]][1], (_GRASSMANNIAN,)
    name = values.get("subcommand", values["command"])
    for command, _, options, emit in commands:
        # Every token must be read: None (refused) and a leftover both fail.
        if command == name and _take_options(rest, common + options, values) == []:
            return argparse.Namespace(**values, func=partial(emit, prefix + name, options))
    return None


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser every `run` call of this process that needs one shares,
    built by the first."""
    return build_parser()


def _accept_cache_dir(path: str) -> None:
    """Create the directory that --cache-dir or CURVECOUNT_CACHE_DIR names.
    No command stores anything there, but command lines that pass it stay
    valid, and a path that cannot be a directory is refused."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise PreconditionError(f"cannot use {PurePath(path)} as the cache directory: {exc.strerror}") from exc


def run(argv: list[str] | None = None) -> int:
    """Run one command line, after checking the cache directory it names, if any.
    A line the command tables do not read goes to argparse; its help is held
    while argparse parses and then written like a command's output, since
    argparse drops a failed write to stdout itself."""
    if argv is None:
        argv = sys.argv[1:]
    args = _table_parse(argv)
    if args is None:
        printed = io.StringIO()
        try:
            with contextlib.redirect_stdout(printed):
                args = _parser().parse_args(argv)
        except SystemExit as exc:
            if printed.getvalue():
                sys.stdout.write(printed.getvalue())
            return int(exc.code or 0)
    cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV)
    try:
        if cache_dir:
            _accept_cache_dir(cache_dir)
        args.func(args)
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except CurveCountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    """The console command: `run` with the process's arguments.  A reader
    that closes stdout early ends it with exit code 1 and no traceback."""
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # Point fd 1 at the null device, so that the interpreter's final
        # flush stays quiet too (the `signal` module's note on SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
