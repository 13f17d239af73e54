"""End-to-end curve-counting computations.

Each count integrates, over a compact moduli space (a Grassmannian, or the
bundle of conics over one), the top Chern class of a bundle of forms whose
rank matches the moduli dimension, as an exact integer.  Degenerations of
positive-dimensional families are handled by capping the total Chern class
of the forms bundle with the Segre class of the family's locus.  Every
pipeline returns a `CountReport` carrying the integer, a provenance trace
of intermediate classes, and any consistency checks.

Lines, equivalences and split reports work on Gr(2, n+1) in the rank-2
kernel after `degeneration_split_report`, a class of degree j being the list
of its coefficients of x^i y^(j-i) in the roots x, y of U*.  A conic count sums
Bott's formula over the torus-fixed conics, in integers, and builds no class.
The trace writes its Schubert classes straight from (parts, coefficient)
terms, in the JSON of `ChowClass.to_payload`, and takes the dimensions of
the Grassmannians by formula, so this module builds no ring and imports no
sibling but `errors`.
"""

from __future__ import annotations

import json
import operator
import sys
from itertools import combinations, combinations_with_replacement
from math import comb, lcm, prod

from .errors import InternalCheckError, PreconditionError

DIM_LIMIT = 1 << 16  # the bound of every degree in `symfunc`, so counts and calculators refuse alike


def _check_digits(*numbers: int) -> None:
    """Refuse a count or coefficient that str() cannot print: one with more
    digits than `sys.get_int_max_str_digits()` allows (0, no limit, before 3.10.7)."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    # Past `limit` digits a number has over 3.32 * limit bits; that screen spares most calls building 10**limit.
    if limit and any(n.bit_length() > 3.32 * limit and abs(n) >= 10**limit for n in numbers):
        raise PreconditionError(f"the count has more than {limit} digits, over the sys.get_int_max_str_digits() limit")


def _serialize(terms) -> str:
    """A class given as (parts, coefficient) terms in lex order of the parts,
    parts without trailing zeros, written as `ChowClass.to_payload` writes it:
    [[parts, "coefficient"], ...] with the zero coefficients left out."""
    terms = [(parts, c) for parts, c in terms if c]
    _check_digits(*(c for _, c in terms))
    return json.dumps([[parts, str(c)] for parts, c in terms], separators=(",", ":"))


class _Record:
    """A read-only record whose fields are its `__slots__`, in order: bound
    by position or keyword, with `_defaults` for those left out, and
    validated by `_check`.  A record compares, hashes and pickles as its
    type and fields, and prints as `Type(field=value, ...)`."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        values = dict(self._defaults, **dict(zip(self.__slots__, args)), **kwargs)
        if len(args) > len(self.__slots__) or values.keys() != set(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {self.__slots__}: got {len(args)} args, {sorted(kwargs)}")
        for name in self.__slots__:
            object.__setattr__(self, name, values[name])
        self._check()

    def _check(self) -> None:
        """Raise unless the fields are valid."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self.__reduce__() == other.__reduce__() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in zip(self.__slots__, self.__reduce__()[1]))})"


class CountReport(_Record):
    """Pipeline output: the exact count plus a trace of intermediate classes.

    The final trace entry always records the count itself, so the trace is a
    self-contained derivation of the reported number.
    """

    __slots__ = ("pipeline", "inputs", "count", "trace", "consistency")
    _defaults = {"consistency": ()}

    def _check(self):
        if not self.trace or self.trace[-1][1] != str(self.count):
            raise InternalCheckError("count must equal the integral in the last trace entry")

    def trace_value(self, label: str) -> str:
        for key, value in self.trace:
            if key == label:
                return value
        raise KeyError(label)

    def all_consistent(self) -> bool:
        return all(ok for _, ok in self.consistency)

    def to_payload(self, include_trace: bool = False) -> dict:
        payload = {
            "pipeline": self.pipeline,
            "inputs": dict(self.inputs),
            "count": str(self.count),
            "consistency": [{"identity": name, "pass": ok} for name, ok in self.consistency],
        }
        if include_trace:
            payload["trace"] = [[label, value] for label, value in self.trace]
        return payload


class NormalBundleType(_Record):
    """Splitting type O(a) + O(b) of the normal bundle of a rational curve.

    On a threefold with trivial canonical class the degrees satisfy
    a + b = -2, which the constructor enforces.  The degrees must be integers.
    """

    __slots__ = ("a", "b")

    def _check(self):
        if operator.index(self.a) + operator.index(self.b) != -2:
            raise PreconditionError(
                f"normal bundle degrees must satisfy a + b = -2, got {self.a} + {self.b}"
            )


class H0Count(_Record):
    """Sections of the normal bundle: the infinitesimal deformations."""

    __slots__ = ("h0", "rigid")


class DimensionCount(_Record):
    """Naive parameter count for degree-d rational curves on a hypersurface."""

    __slots__ = ("parameters", "conditions", "reparametrizations", "expected_dim")


def count_curves(kind: str, n: int, degrees: list[int]) -> CountReport:
    """Count lines or conics on a general complete intersection in P^n.

    A line or conic spans a linear subspace, so its moduli space is the
    Grassmannian Gr(2, n+1) of lines, or for conics the bundle of conics in
    the moving plane, P(Sym^2 U*) over Gr(3, n+1).  An equation of degree d
    restricts to a section of the forms of degree d on the curve: Sym^d U*
    for lines, and for conics Sym^d U* modulo the forms divisible by the
    conic, Sym^(d-2) U* twisted by O(-zeta).  The count is the integral of
    the product of the top Chern classes of these summands; it is defined
    when their total rank equals the moduli dimension.

    Lines integrate `_top(*degrees)` over Gr(2, n+1), and conics are
    `_conics_by_localization`; the trace records the integrated class as the
    count times the point class, sigma of the full span x (n + 1 - span) box,
    written without building the Grassmannian.
    """
    n, degrees = operator.index(n), [operator.index(d) for d in degrees]
    if kind not in ("lines", "conics"):
        raise PreconditionError(f"unknown curve kind {kind!r}: expected 'lines' or 'conics'")
    if n < 2 or not degrees or any(d < 1 for d in degrees):
        raise PreconditionError(f"need ambient dimension >= 2 and degrees >= 1, got ({n}, {degrees})")
    span = 2 if kind == "lines" else 3
    cols = n + 1 - span  # Gr(span, n+1) is a box of span rows and cols columns
    dim = span * cols
    if kind == "lines":
        trace = [("moduli_space", f"Gr(2,{n + 1})")]
    else:  # the fibres of P(Sym^2 U*) are the P^5 of conics in a plane
        trace = [("base_space", f"Gr(3,{n + 1})"), ("base_dim", str(dim)), ("conic_bundle_rank", "6")]
        dim += 5
    # Degree-d forms on a rational curve of degree span-1 have rank (span-1)d + 1.
    rank = sum((span - 1) * d + 1 for d in degrees)
    if rank != dim:
        raise PreconditionError(
            f"rank {rank} != dim {dim}: the degrees {degrees} do not cut out "
            f"a finite family of {kind} in P^{n}"
        )
    trace.append(("moduli_dim", str(dim)))
    if kind == "conics":
        for d in degrees:
            trace.append((f"sym_rank_degree_{d}", str(comb(span + d - 1, d))))
            if d > 1:  # Sym^(d-2) U*, the forms divisible by the conic
                trace.append((f"divisible_rank_degree_{d}", str(comb(d, 2))))
    trace.append(("forms_rank", str(rank)))
    if kind == "lines":  # c_top(Sym^d U*) has degree d + 1, so the product has degree dim
        _check_dim(n)
        count = _sigma(_top(*degrees), n - 1)
    else:
        count = _conics_by_localization(n, degrees)
    label = "top_chern_class" if kind == "lines" else "top_class_pushforward"
    point = (cols,) * span if cols else ()  # the full box
    trace += [(label, _serialize([(point, count)])), ("count", str(count))]
    return CountReport(f"{kind}-complete-intersection", {"ambient": n, "degrees": degrees}, count, tuple(trace))


def _torus_weights(count: int) -> list[int]:
    """The first `count` of 1, 2, 4, 5, 10, 11, ...: 1 plus the numbers whose base-3
    digits are all 0 or 1.  They hold no three-term arithmetic progression, so
    no two monomial conics in a coordinate plane share a weight."""
    return [1 + int(bin(k)[2:], 3) for k in range(count)]


def _conics_by_localization(n: int, degrees: list[int]) -> int:
    """The conics on a general complete intersection of `degrees` in P^n, by
    Bott's formula (Ellingsrud-Stromme, alg-geom/9411005).

    The torus acts on x_0..x_n with the weights w of `_torus_weights`.  Its
    fixed conics are the monomial conics q = x_u x_v in a coordinate plane
    S = {a, b, c}.  At (S, q) the forms of degree d are the 2d + 1 monomials
    in S that q does not divide, each of weight the sum of its variables'
    weights; the tangent weights are w_i - w_j for i in S and j not in S, and
    w(q') - w(q) for the five other monomial conics q' in S.  The count is
    the sum over the fixed conics of the product of the forms weights over
    the product of the tangent weights, taken over one common denominator.
    """
    w = _torus_weights(n + 1)
    terms = []
    for plane in combinations(range(n + 1), 3):
        grassmann = prod(w[i] - w[j] for i in plane for j in range(n + 1) if j not in plane)
        conics = {q: w[q[0]] + w[q[1]] for q in combinations_with_replacement(plane, 2)}
        for (u, v), wq in conics.items():
            forms = []
            for d in degrees:
                if u == v:  # x_u^2: the monomials with x_u to the power 0 or 1
                    s, t = (w[i] for i in plane if i != u)
                    forms += [e * w[u] + j * s + (d - e - j) * t for e in (0, 1) for j in range(d - e + 1)]
                else:  # x_u x_v: the monomials that miss x_v, then those that miss x_u but not x_v
                    (t,) = (w[i] for i in plane if i not in (u, v))
                    forms += [i * w[u] + (d - i) * t for i in range(d + 1)]
                    forms += [j * w[v] + (d - j) * t for j in range(1, d + 1)]
            terms.append((prod(forms), grassmann * prod(wp - wq for wp in conics.values() if wp != wq)))
    common = lcm(*(den for _, den in terms))
    count, remainder = divmod(sum(num * (common // den) for num, den in terms), common)
    if remainder:
        raise InternalCheckError("the localization sum is not an integer")
    return count


def count_lines_hypersurface(n: int, d: int) -> CountReport:
    """Lines on a general degree-d hypersurface in P^n (2875 for the quintic)."""
    report = count_curves("lines", n, [d])
    return CountReport("lines-hypersurface", {"ambient": n, "degree": d}, report.count, report.trace)


def count_lines_complete_intersection(n: int, degrees: list[int]) -> CountReport:
    """Lines on a general complete intersection of the given degrees in P^n."""
    return count_curves("lines", n, degrees)


def count_conics_quintic() -> CountReport:
    """Conics on a general quintic threefold in P^4 (609250)."""
    report = count_curves("conics", 4, [5])
    return CountReport("conics-quintic", {}, report.count, report.trace)


def equivalence_lines_on_factor(D: int, e: int, n: int) -> CountReport:
    """How many lines a degree-e factor of a reducible hypersurface absorbs.

    When a degree-D hypersurface degenerates to a union with a degree-e
    factor, the lines on that factor form a positive-dimensional family Z:
    the zero locus of a section of Sym^e(U*) on Gr(2, n+1), of dimension
    k = 2(n-1) - (e+1).  The family counts for the degree-k part of
    c(forms) * s(Z), capped with the class of Z:

        integral of [c(Sym^D U*) / c(Sym^e U*)]_k * c_top(Sym^e U*).

    Z is assumed smooth of the expected dimension, as for general members.
    """
    D, e, n = operator.index(D), operator.index(e), operator.index(n)
    k, count, excess, locus = _equivalence(D, e, n)
    trace = (
        ("moduli_space", f"Gr(2,{n + 1})"),
        ("family_dim", str(k)),
        ("family_class", _serialize(_schubert(locus, n - 1))),
        ("excess_part", _serialize(_schubert(excess, n - 1))),
        ("count", str(count)),
    )
    return CountReport(
        "equivalence-lines-factor",
        {"total_degree": D, "factor_degree": e, "ambient": n},
        count,
        trace,
    )


def _equivalence(D: int, e: int, n: int, total: list | None = None) -> tuple[int, int, list, list]:
    """k, the count, and the excess part and family class as lists, of
    `equivalence_lines_on_factor`; `total` is c(Sym^D U*) to degree >= k, or None."""
    if not 1 <= e <= D:
        raise PreconditionError(f"factor degree must satisfy 1 <= e <= {D}, got {e}")
    if n < 2:
        raise PreconditionError(f"need ambient dimension >= 2, got {n}")
    k = _check_dim(n) - (e + 1)
    if k < 0:
        raise PreconditionError(
            f"expected family dimension {k} < 0: a degree-{e} factor carries no "
            f"excess family of lines in P^{n}"
        )
    excess = _times_sym_power(_series(D, k) if total is None else total[:k + 1], e, -1)[k]
    locus = _top(e)
    count = _sigma(_product(excess, locus), n - 1)
    _check_digits(count)
    return k, count, excess, locus


def degeneration_split_report(D: int, n: int) -> CountReport:
    """Check that factor equivalences of every split add up to the smooth count."""
    total = count_lines_hypersurface(n, D)
    series = _series(D, 2 * n - 4)  # k = 2(n - 1) - (e + 1) is at most 2n - 4
    pieces = {e: _equivalence(D, e, n, series)[1] for e in range(1, D)}
    trace = [("smooth_count", str(total.count))]
    for e in range(1, D):
        trace.append((f"equivalence_degree_{e}", str(pieces[e])))
    consistency = []
    for e in range(1, D // 2 + 1):
        name = f"equivalence({e}) + equivalence({D - e}) == {total.count}"
        consistency.append((name, pieces[e] + pieces[D - e] == total.count))
    trace.append(("count", str(total.count)))
    return CountReport(
        "degeneration-split",
        {"degree": D, "ambient": n},
        total.count,
        tuple(trace),
        tuple(consistency),
    )


def _check_dim(n: int) -> int:
    """2(n - 1), the dimension of Gr(2, n+1), refused from DIM_LIMIT up before any list is built."""
    dim = 2 * (n - 1)
    if dim >= DIM_LIMIT:
        raise PreconditionError(f"dim Gr(2,{n + 1}) = {dim} must be below {DIM_LIMIT}")
    return dim


def _product(f: list, g: list) -> list:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        out[i:i + len(g)] = [u + a * b for u, b in zip(out[i:], g)]
    return out


def _top(*degrees: int) -> list:
    """c_top of the sum of the Sym^d U*, its roots j x + (d - j) y paired j with d - j."""
    f = [1]
    for d in degrees:
        if d % 2 == 0:  # the middle root (d/2)(x + y)
            f = [d // 2 * (p + q) for p, q in zip([0] + f, f + [0])]
        for j in range((d + 1) // 2):
            A, B = j * (d - j), j * j + (d - j) * (d - j)
            f = [A * (p + r) + B * q for p, q, r in zip([0, 0] + f, [0] + f + [0], f + [0, 0])]
    return f


def _times_sym_power(series: list, d: int, sign: int = 1) -> list:
    """A series (its classes of degree 0, 1, ...) times c(Sym^d U*), or over it for
    sign -1: g_k = f_k + sign (j x + (d - j) y) h_(k-1) per root, h = f or g."""
    for j in range(d + 1):
        a, b = sign * j, sign * (d - j)
        out = series[:1]
        for k in range(1, len(series)):
            low = out[k - 1] if sign < 0 else series[k - 1]
            out.append([u + a * p + b * q for u, p, q in zip(series[k], [0] + low, low + [0])])
        series = out
    return series


def _series(d: int, top: int) -> list:
    """c(Sym^d U*) up to degree `top`."""
    return _times_sym_power([[1]] + [[0] * (j + 1) for j in range(1, top + 1)], d)


def _sigma(f: list, a: int) -> int:
    """sigma_(a, j-a) in the class f of degree j: [x^(a+1) y^(j-a)] (x - y) f, the
    bialternant (Macdonald, I.3).  At the point, a = N - 2 = j/2, the integral."""
    return f[a] - f[a + 1] if a + 1 < len(f) else f[a]


def _schubert(f: list, cols: int) -> list:
    """The class f as (parts, coefficient) terms in the Schubert basis of
    Gr(2, cols + 2): sigma_(a, j-a) for a = ceil(j/2) .. min(j, cols), in lex order."""
    j = len(f) - 1
    return [(tuple(filter(None, (a, j - a))), _sigma(f, a)) for a in range((j + 1) // 2, min(j, cols) + 1)]


def naive_dimension_count(n: int, D: int, d: int) -> DimensionCount:
    """Constant count for degree-d rational curves on a degree-D hypersurface.

    A parametrized curve uses (n+1)(d+1) coefficients; containment in the
    hypersurface imposes D*d + 1 conditions; reparametrizations of the line
    absorb 4 parameters.
    """
    n, D, d = operator.index(n), operator.index(D), operator.index(d)
    if n < 2 or D < 1 or d < 1:
        raise PreconditionError(f"need n >= 2, D >= 1, d >= 1, got ({n}, {D}, {d})")
    parameters = (n + 1) * (d + 1)
    conditions = D * d + 1
    reparametrizations = 4
    return DimensionCount(
        parameters=parameters,
        conditions=conditions,
        reparametrizations=reparametrizations,
        expected_dim=parameters - conditions - reparametrizations,
    )


def normal_bundle_h0(t: NormalBundleType) -> H0Count:
    """Sections of O(a) + O(b) on the line, and whether the curve is rigid."""
    h0 = max(t.a + 1, 0) + max(t.b + 1, 0)
    return H0Count(h0=h0, rigid=h0 == 0)


def tally_checks() -> CountReport:
    """Verify the published component tallies against the pipeline totals.

    The line count splits over the cones and special lines of the Fermat
    quintic; the conic count splits over the components picked out by a
    hyperplane-quartic or quadric-cubic degeneration.
    """
    lines = count_lines_hypersurface(4, 5).count
    conics = count_conics_quintic().count
    checks = (
        ("50*20 + 375*5 == lines(4,5)", 50 * 20 + 375 * 5 == lines),
        ("187850 + 258200 + 163200 == conics()", 187850 + 258200 + 163200 == conics),
        ("215950 + 243900 + 149400 == conics()", 215950 + 243900 + 149400 == conics),
    )
    trace = (
        ("lines_total", str(lines)),
        ("count", str(conics)),
    )
    return CountReport("tally-checks", {}, conics, trace, checks)
