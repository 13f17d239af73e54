"""Command-line interface to the counting pipelines and the ring calculator.

Exit codes: 0 success, 2 usage error, 3 mathematical precondition failure,
4 internal assertion failure.  Output is plain text by default; pass
`--format structured` for a canonical JSON object whose counts are decimal
strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from functools import partial

from . import chern
from .chern import ChernRing, ChernVector, dual_universal_vector, segre_from_chern, tensor_line, whitney_quotient
from .errors import CurveCountError, InternalCheckError
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


def _emit_record(pipeline: str, inputs: dict, record: dict, headline: str, args) -> None:
    if args.output_format == "structured":
        payload = {
            "pipeline": pipeline,
            "inputs": inputs,
            "count": str(record[headline]),
            "record": {k: (str(v) if isinstance(v, int) and not isinstance(v, bool) else v) for k, v in record.items()},
            "consistency": [],
        }
        print(_dump(payload))
        return
    print(" ".join(f"{k}={str(v).lower() if isinstance(v, bool) else v}" for k, v in record.items()))


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


def _inputs(args, options) -> dict:
    """The values of a subcommand's options, keyed by their argparse names."""
    names = [flag[2:].replace("-", "_") for flag, _ in options]
    return {name: getattr(args, name) for name in names}


def _report(build):
    """Emitter of a subcommand that prints the CountReport `build(args)` returns."""
    return lambda pipeline, options, args: _emit_report(build(args), args)


def _record(build, headline: str):
    """Emitter of a subcommand that prints the record dataclass `build(args)` returns."""
    return lambda pipeline, options, args: _emit_record(
        pipeline, _inputs(args, options), asdict(build(args)), headline, args
    )


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


def _add_commands(sub, prefix: str, commands, common=()) -> None:
    for name, summary, options, emit in commands:
        p = sub.add_parser(name, help=summary)
        for flag, keywords in common + options:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=partial(emit, prefix + name, options))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvecount",
        description="Exact curve counts on Calabi-Yau threefolds via Schubert calculus.",
    )
    parser.add_argument(
        "--format", dest="output_format", choices=("plain", "structured"), default="plain",
        help="output format (default: plain)",
    )
    parser.add_argument("--trace", action="store_true", help="include intermediate classes")
    parser.add_argument(
        "--cache-dir", default=None,
        help=f"directory for the universal-polynomial cache (or ${CACHE_DIR_ENV})",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_commands(sub, "", COMMANDS)
    for group, (summary, commands) in CALCULATORS.items():
        group_sub = sub.add_parser(group, help=summary).add_subparsers(dest="subcommand", required=True)
        _add_commands(group_sub, f"{group}-", commands, (_GRASSMANNIAN,))
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV)
    try:
        if cache_dir:
            chern.set_universal_cache_dir(cache_dir)
        args.func(args)
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except CurveCountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run())
