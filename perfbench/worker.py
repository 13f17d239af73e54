"""Benchmark worker: one interpreter that imports curvecount and runs queries.

Started by run.py with the repository root as its first argument, and
`--trace` when some pass may be traced.  It reads one JSON request per line
on stdin and answers each with one JSON line on stdout:

- at start, after the imports, it sends {"ready": true};
- {"op": "begin", "trace": bool, "cache_dir": str|null, "spans_path": str|null}
  starts a pass, installing the tracer when asked;
- {"op": "query", "query": [kind, args]} runs one query and answers with its
  value (a list of decimal strings), its error (or null) and its seconds;
- {"op": "end"} ends the pass and answers with the peak RSS and, when
  traced, the per-layer figures of the pass;
- {"op": "quit"} ends the process.

Only the queries travel to this process; their expected answers stay with
the caller.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(ROOT / "src"))

import curvecount as cc  # noqa: E402
import curvecount.cli  # noqa: E402,F401

if not Path(cc.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"curvecount was imported from {cc.__file__}, not from {ROOT / 'src'}")


def conics(n: int) -> list[str]:
    """Conics on a degree-(3n-2)/2 hypersurface in P^n; P^4 via the pipeline."""
    if n == 4:
        return [str(cc.count_conics_quintic().count)]
    return conic_chain(n)


def conic_chain(n: int) -> list[str]:
    """The pipeline's chain of public calls, for any even ambient dimension n.

    The moduli space is the conic bundle P(Sym^2 U*) over Gr(3, n+1), and
    the forms bundle is Sym^d U* / (Sym^(d-2) U* (x) O(-1)).
    """
    d = (3 * n - 2) // 2
    base = cc.GrassmannianRing(3, n + 1)
    cu = cc.dual_universal_vector(base)
    total = cc.ProjBundleRing(cc.sym_power(cu, 2))
    forms = cc.pullback_vector(total, cc.sym_power(cu, d))
    divisible = cc.tensor_line(cc.pullback_vector(total, cc.sym_power(cu, d - 2)), -total.zeta())
    quotient = cc.whitney_quotient(forms, divisible, total.dim)
    if quotient.rank != total.dim:
        raise ValueError(f"forms rank {quotient.rank} != moduli dimension {total.dim}")
    return [str(cc.integrate(cc.pb_pushforward(quotient.top())))]


def split(D: int, n: int) -> list[str]:
    report = cc.degeneration_split_report(D, n)
    if not report.all_consistent():
        raise ValueError(f"inconsistent split report: {report.consistency}")
    return [str(report.count)] + [report.trace_value(f"equivalence_degree_{e}") for e in range(1, D)]


def cli(argv: list[str], cache_dir: str) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cc.cli.run(["--format", "structured", "--cache-dir", cache_dir] + list(argv))
    if code != 0:
        raise ValueError(f"curvecount {' '.join(argv)} exited with {code}")
    payload = json.loads(out.getvalue())
    if not all(check["pass"] for check in payload["consistency"]):
        raise ValueError(f"inconsistent report: {payload['consistency']}")
    trace = [value for label, value in payload.get("trace", ()) if label.startswith("equivalence_degree_")]
    return [payload["count"]] + trace


LIBRARY = {
    "conics": conics,
    "conic-chain": conic_chain,
    "lines": lambda n, d: [str(cc.count_lines_hypersurface(n, d).count)],
    "lines-ci": lambda n, degrees: [str(cc.count_lines_complete_intersection(n, degrees).count)],
    "equivalence": lambda D, e, n: [str(cc.equivalence_lines_on_factor(D, e, n).count)],
    "split": split,
}


class Pass:
    """State of the pass in progress."""

    def __init__(self, request: dict, tracer):
        self.cache_dir = request.get("cache_dir")
        self.spans_path = request.get("spans_path")
        self.tracer = tracer
        self.lr = sys.modules["curvecount.grassmannian"]._lr_expansion
        if tracer is not None:
            tracer.reset()
            tracer.install()
        self.lr_before = self.lr.cache_info()

    def query(self, kind: str, args: list) -> dict:
        start = time.perf_counter()
        try:
            value = cli(args, self.cache_dir) if kind == "cli" else LIBRARY[kind](*args)
            error = None
        except Exception as exc:  # a failed count is reported, not fatal
            value, error = None, f"{type(exc).__name__}: {exc}"
        return {"value": value, "error": error, "seconds": time.perf_counter() - start}

    def end(self) -> dict:
        reply = {"rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if self.tracer is not None:
            self.tracer.uninstall()
            reply["layers"] = layer_metrics(self.tracer, self.lr_before, self.lr.cache_info())
            if self.spans_path:
                self.tracer.write(self.spans_path)
        return reply


def main() -> None:
    out = sys.stdout
    out.write(json.dumps({"ready": True}) + "\n")
    out.flush()
    tracer = None
    current = None
    for line in sys.stdin:
        request = json.loads(line)
        op = request["op"]
        if op == "quit":
            break
        if op == "begin":
            if request["trace"] and tracer is None:
                tracer = Tracer()
            current = Pass(request, tracer if request["trace"] else None)
            reply = {"ok": True}
        elif op == "query":
            reply = current.query(*request["query"])
        else:
            reply, current = current.end(), None
        out.write(json.dumps(reply) + "\n")
        out.flush()


if __name__ == "__main__":
    if "--trace" in sys.argv:
        from spans import Tracer, layer_metrics
    main()
