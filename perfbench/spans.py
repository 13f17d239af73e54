"""Outside-in tracing of the curvecount layers.

`Tracer` wraps public functions of each module from outside the package.
Every package-module attribute bound to an original function is replaced,
so aliases such as `pipelines.sym_power` and `cli.sym_power` are traced too,
and `uninstall` puts every original back.  A wrapped call appends a span
(id, parent id, name, start, end, info) to an in-memory list; the two hot
partition entry points only bump a counter.  `layer_metrics` turns the spans
of one pass into the per-layer figures the benchmark reports.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name) of the functions that open a span per call.
SPANNED = (
    ("grassmannian", "multiply", "grassmannian.multiply"),
    ("grassmannian", "pieri", "grassmannian.pieri"),
    ("symfunc", "reduce_to_elementary", "symfunc.reduce_to_elementary"),
    ("chern", "sym_power", "chern.sym_power"),
    ("chern", "whitney_quotient", "chern.whitney_quotient"),
    ("chern", "tensor_line", "chern.tensor_line"),
    ("chern", "segre_from_chern", "chern.segre_from_chern"),
    ("projbundle", "pb_multiply", "projbundle.pb_multiply"),
    ("projbundle", "pb_pushforward", "projbundle.pb_pushforward"),
    ("pipelines", "count_lines_hypersurface", "pipelines"),
    ("pipelines", "count_lines_complete_intersection", "pipelines"),
    ("pipelines", "count_conics_quintic", "pipelines"),
    ("pipelines", "equivalence_lines_on_factor", "pipelines"),
    ("pipelines", "degeneration_split_report", "pipelines"),
    ("pipelines", "tally_checks", "pipelines"),
    ("cli", "run", "cli.run"),
)
PACKAGE = "curvecount"
UNIVERSAL = "chern.universal"
SYMFUNC = ("symfunc.mul_truncated", "symfunc.reduce_to_elementary")

# Per-layer metrics of one pass, with their units, in report order.
PER_LAYER = (
    ("partitions.Partition.calls", "count"),
    ("partitions.horizontal_strips.calls", "count"),
    ("grassmannian.multiply.calls", "count"),
    ("grassmannian.multiply.self_s", "s"),
    ("grassmannian.multiply.total_s", "s"),
    ("grassmannian.multiply.term_pairs", "count"),
    ("grassmannian.pieri.calls", "count"),
    ("grassmannian.pieri.self_s", "s"),
    ("grassmannian.lr.hits", "count"),
    ("grassmannian.lr.misses", "count"),
    ("grassmannian.lr.hit_ratio", "ratio"),
    ("grassmannian.lr.memo_size", "count"),
    ("grassmannian.max_coeff_bits", "bit"),
    ("symfunc.mul_truncated.calls", "count"),
    ("symfunc.mul_truncated.self_s", "s"),
    ("symfunc.mul_truncated.term_pairs", "count"),
    ("symfunc.reduce_to_elementary.calls", "count"),
    ("symfunc.reduce_to_elementary.self_s", "s"),
    ("chern.universal.total_s", "s"),
    ("chern.universal.computed", "count"),
    ("chern.universal.memory", "count"),
    ("chern.universal.disk", "count"),
    ("chern.evaluate_s", "s"),
    ("chern.whitney_quotient.total_s", "s"),
    ("chern.tensor_line.total_s", "s"),
    ("chern.segre_from_chern.total_s", "s"),
    ("projbundle.pb_multiply.calls", "count"),
    ("projbundle.pb_multiply.self_s", "s"),
    ("projbundle.pb_multiply.total_s", "s"),
    ("projbundle.pb_pushforward.total_s", "s"),
    ("pipelines.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("trace_overhead", "ratio"),
)


def package_modules(package: str) -> list:
    """Every loaded module of the package, the package itself included."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.max_coeff_bits = 0
        self._stack = [0]
        self._next_id = 1
        self._patches: list[tuple] = []
        # Universal-polynomial keys served since the last cache clear.  A key
        # served before is a memory hit, so install before the first query.
        self._universal_seen: set = set()

    def reset(self) -> None:
        """Drop the spans and counters of the previous pass."""
        self.spans = []
        self.counts = Counter()
        self.max_coeff_bits = 0

    def write(self, path) -> None:
        """Write the spans, one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # --- wrappers ----------------------------------------------------------

    def spanned(self, fn, name: str, info=None):
        """`fn` wrapped in a span; `info(args, result)` annotates the span."""
        clock, stack = self.clock, self._stack

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                note = info(args, result) if info is not None and result is not None else None
                self.spans.append((sid, stack[-1], name, start, end, note))

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, name: str):
        """`fn` wrapped in a call counter, for entry points too hot to span."""

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def universal(self, fn):
        """Span a universal-polynomial lookup and record where its value came from.

        A call with symfunc spans below it computed the polynomials; otherwise
        a key served before in this process came from memory, a new one from disk.
        """
        seen = self._universal_seen

        def wrapper(*key):
            sid = self._next_id
            self._next_id = sid + 1
            self._stack.append(sid)
            mark = len(self.spans)
            start = self.clock()
            try:
                return fn(*key)
            finally:
                end = self.clock()
                self._stack.pop()
                if any(span[2] in SYMFUNC for span in self.spans[mark:]):
                    source = "computed"
                elif key in seen:
                    source = "memory"
                else:
                    source = "disk"
                seen.add(key)
                self.spans.append((sid, self._stack[-1], UNIVERSAL, start, end, source))

        wrapper.__wrapped__ = fn
        return wrapper

    def forgetting(self, fn):
        """Wrap the universal-cache clear so that later lookups are not memory hits."""

        def wrapper(*args, **kwargs):
            self._universal_seen.clear()
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _multiply_info(self, args, result) -> int:
        bits = max((abs(c).bit_length() for c in result.terms.values()), default=0)
        if bits > self.max_coeff_bits:
            self.max_coeff_bits = bits
        return _term_pairs(args, result)

    # --- installing ----------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_aliases(self, original, wrapper) -> None:
        """Point every package-module attribute bound to `original` at `wrapper`."""
        for module in package_modules(PACKAGE):
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        mod = {name: sys.modules.get(f"{PACKAGE}.{name}")
               for name in ("partitions", "grassmannian", "symfunc", "chern", "projbundle", "pipelines", "cli")}
        try:
            for module, attr, name in SPANNED:
                if mod[module] is None:  # cli is imported only by CLI users
                    continue
                original = getattr(mod[module], attr)
                info = self._multiply_info if name == "grassmannian.multiply" else None
                self.patch_aliases(original, self.spanned(original, name, info))
            chern, partitions = mod["chern"], mod["partitions"]
            self.patch_aliases(chern.sym_power_elementary, self.universal(chern.sym_power_elementary))
            self.patch_aliases(chern.clear_universal_cache, self.forgetting(chern.clear_universal_cache))
            self.patch_aliases(partitions.horizontal_strips,
                               self.counted(partitions.horizontal_strips, "partitions.horizontal_strips"))
            partition = partitions.Partition
            self._replace(partition, "__init__", self.counted(partition.__init__, "partitions.Partition"))
            poly = mod["symfunc"].SymmetricPoly
            self._replace(poly, "mul_truncated",
                          self.spanned(poly.mul_truncated, "symfunc.mul_truncated", _term_pairs))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _term_pairs(args, result) -> int:
    return len(args[0].terms) * len(args[1].terms)


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "term_pairs", "sources")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.term_pairs = 0
        self.sources: Counter = Counter()


def summarize(spans) -> dict[str, SpanStats]:
    """Calls, inclusive time and self time per span name.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        child_time[parent] += end - start
    out: dict[str, SpanStats] = defaultdict(SpanStats)
    for sid, _, name, start, end, info in spans:
        stats = out[name]
        stats.calls += 1
        stats.total_s += end - start
        stats.self_s += end - start - child_time[sid]
        if isinstance(info, int):
            stats.term_pairs += info
        elif isinstance(info, str):
            stats.sources[info] += 1
    return out


def layer_metrics(tracer: Tracer, lr_before, lr_after) -> dict[str, float]:
    """Per-layer figures of one pass (every PER_LAYER name but trace_overhead).

    `lr_before` and `lr_after` are `_lr_expansion.cache_info()` readings
    taken around the pass.
    """
    s = summarize(tracer.spans)
    hits = lr_after.hits - lr_before.hits
    misses = lr_after.misses - lr_before.misses
    universal = s[UNIVERSAL]
    return {
        "partitions.Partition.calls": tracer.counts["partitions.Partition"],
        "partitions.horizontal_strips.calls": tracer.counts["partitions.horizontal_strips"],
        "grassmannian.multiply.calls": s["grassmannian.multiply"].calls,
        "grassmannian.multiply.self_s": s["grassmannian.multiply"].self_s,
        "grassmannian.multiply.total_s": s["grassmannian.multiply"].total_s,
        "grassmannian.multiply.term_pairs": s["grassmannian.multiply"].term_pairs,
        "grassmannian.pieri.calls": s["grassmannian.pieri"].calls,
        "grassmannian.pieri.self_s": s["grassmannian.pieri"].self_s,
        "grassmannian.lr.hits": hits,
        "grassmannian.lr.misses": misses,
        "grassmannian.lr.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "grassmannian.lr.memo_size": lr_after.currsize,
        "grassmannian.max_coeff_bits": tracer.max_coeff_bits,
        "symfunc.mul_truncated.calls": s["symfunc.mul_truncated"].calls,
        "symfunc.mul_truncated.self_s": s["symfunc.mul_truncated"].self_s,
        "symfunc.mul_truncated.term_pairs": s["symfunc.mul_truncated"].term_pairs,
        "symfunc.reduce_to_elementary.calls": s["symfunc.reduce_to_elementary"].calls,
        "symfunc.reduce_to_elementary.self_s": s["symfunc.reduce_to_elementary"].self_s,
        "chern.universal.total_s": universal.total_s,
        "chern.universal.computed": universal.sources["computed"],
        "chern.universal.memory": universal.sources["memory"],
        "chern.universal.disk": universal.sources["disk"],
        "chern.evaluate_s": s["chern.sym_power"].total_s - universal.total_s,
        "chern.whitney_quotient.total_s": s["chern.whitney_quotient"].total_s,
        "chern.tensor_line.total_s": s["chern.tensor_line"].total_s,
        "chern.segre_from_chern.total_s": s["chern.segre_from_chern"].total_s,
        "projbundle.pb_multiply.calls": s["projbundle.pb_multiply"].calls,
        "projbundle.pb_multiply.self_s": s["projbundle.pb_multiply"].self_s,
        "projbundle.pb_multiply.total_s": s["projbundle.pb_multiply"].total_s,
        "projbundle.pb_pushforward.total_s": s["projbundle.pb_pushforward"].total_s,
        "pipelines.self_s": s["pipelines"].self_s,
        "cli.run.self_s": s["cli.run"].self_s,
    }
