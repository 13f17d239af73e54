"""End-to-end curve-counting computations.

Each pipeline builds a compact moduli space (a Grassmannian, or a projective
bundle over one), a vector bundle of forms on it whose rank matches the
moduli dimension, and evaluates the top Chern class as an exact integer.
Degenerations of positive-dimensional families are handled by capping the
total Chern class of the forms bundle with the Segre class of the family's
locus.  Every pipeline returns a `CountReport` carrying the integer, a
provenance trace of intermediate classes, and any consistency checks.

Every class a pipeline builds is a polynomial in the Chern classes
c_1..c_r of U* on the Grassmannian of spans, so the pipelines multiply in
`chern.ChernRing`, Z[c_1..c_r] truncated at the Grassmannian's dimension,
where the universal Sym^d polynomials are elements as they stand.  Lines
and conics share one moduli shape, a `projbundle.ProjBundleRing` over that
ring (P(O) for lines, P(Sym^2 U*) for conics), pushed down to it once.
A line count needs only the top class of each Sym^d U*, and integrates it
over Gr(2, N) by Catalan numbers, in the ring itself.  The conic counts and
the equivalences map the classes they integrate or trace to the Schubert
basis, each once, through products with the one-column classes
c_i(U*) = sigma_(1^i).  An equivalence's excess part is one `quotient_series`.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, replace
from math import comb

from .chern import ChernRing, dual_universal_vector, quotient_series, segre_from_chern, sym_power_rank, trivial_vector
from .errors import InternalCheckError, PreconditionError
from .grassmannian import GrassmannianRing, integrate
from .projbundle import ProjBundleElement, ProjBundleRing, pb_pushforward


def _serialize(cls) -> str:
    return json.dumps(cls.to_payload(), separators=(",", ":"))


@dataclass(frozen=True)
class CountReport:
    """Pipeline output: the exact count plus a trace of intermediate classes.

    The final trace entry always records the count itself, so the trace is a
    self-contained derivation of the reported number.
    """

    pipeline: str
    inputs: dict
    count: int
    trace: tuple[tuple[str, str], ...]
    consistency: tuple[tuple[str, bool], ...] = ()

    def __post_init__(self):
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


@dataclass(frozen=True)
class NormalBundleType:
    """Splitting type O(a) + O(b) of the normal bundle of a rational curve.

    On a threefold with trivial canonical class the degrees satisfy
    a + b = -2, which the constructor enforces.  The degrees must be integers.
    """

    a: int
    b: int

    def __post_init__(self):
        if operator.index(self.a) + operator.index(self.b) != -2:
            raise PreconditionError(
                f"normal bundle degrees must satisfy a + b = -2, got {self.a} + {self.b}"
            )


@dataclass(frozen=True)
class H0Count:
    """Sections of the normal bundle: the infinitesimal deformations."""

    h0: int
    rigid: bool


@dataclass(frozen=True)
class DimensionCount:
    """Naive parameter count for degree-d rational curves on a hypersurface."""

    parameters: int
    conditions: int
    reparametrizations: int
    expected_dim: int


def count_curves(kind: str, n: int, degrees: list[int]) -> CountReport:
    """Count lines or conics on a general complete intersection in P^n.

    A line or conic spans a linear subspace, so its moduli space is a
    projective bundle over the Grassmannian of spans: for lines P(O), the
    trivial line bundle, which is Gr(2, n+1) itself, and for conics the
    bundle of conics in the moving plane, P(Sym^2 U*) over Gr(3, n+1).  An
    equation of degree d restricts to a section of the forms of degree d on
    the curve: Sym^d U* for lines, and for conics Sym^d U* modulo the forms
    divisible by the conic, Sym^(d-2) U* twisted by O(-zeta).  The count is
    the integral of the product of the top Chern classes of these summands;
    it is defined when their total rank equals the moduli dimension.

    The bundle is a `ProjBundleRing` over `ChernRing` truncated at the
    dimension of the Grassmannian.  The product is pushed down by
    `pb_pushforward`; for lines it is integrated by `_catalan_integral`,
    and for conics mapped to the Schubert basis once, at the end.
    """
    n, degrees = operator.index(n), [operator.index(d) for d in degrees]
    if kind not in ("lines", "conics"):
        raise PreconditionError(f"unknown curve kind {kind!r}: expected 'lines' or 'conics'")
    if n < 2 or not degrees or any(d < 1 for d in degrees):
        raise PreconditionError(f"need ambient dimension >= 2 and degrees >= 1, got ({n}, {degrees})")
    span = 2 if kind == "lines" else 3
    base = GrassmannianRing(span, n + 1)
    ring = ChernRing(span, base.dim)
    moduli = ProjBundleRing(trivial_vector(ring, 1) if kind == "lines" else ring.sym_power(2))
    if kind == "lines":
        trace = [("moduli_space", f"Gr(2,{n + 1})")]
    else:
        trace = [
            ("base_space", f"Gr(3,{n + 1})"),
            ("base_dim", str(base.dim)),
            ("conic_bundle_rank", str(moduli.fiber_rank)),
        ]
    # Degree-d forms on a rational curve of degree span-1 have rank (span-1)d + 1;
    # checking before any symmetric power is built keeps a mismatch cheap.
    rank = sum((span - 1) * d + 1 for d in degrees)
    if rank != moduli.dim:
        raise PreconditionError(
            f"rank {rank} != dim {moduli.dim}: the degrees {degrees} do not cut out "
            f"a finite family of {kind} in P^{n}"
        )
    trace.append(("moduli_dim", str(moduli.dim)))
    top = moduli.one()
    for d in degrees:
        divisible = None
        if kind == "conics":
            trace.append((f"sym_rank_degree_{d}", str(sym_power_rank(span, d))))
            if d > 1:
                divisible = ring.sym_power(d - 2) if d > 2 else trivial_vector(ring, 1)
                trace.append((f"divisible_rank_degree_{d}", str(divisible.rank)))
        top = top * _forms_top(moduli, d, divisible)
    trace.append(("forms_rank", str(rank)))
    if kind == "lines":
        count = _catalan_integral(pb_pushforward(top), base)
        trace.append(("top_chern_class", _serialize(base.sigma((base.cols,) * base.rows) * count)))
    else:
        top = ring.evaluator(dual_universal_vector(base))(pb_pushforward(top))
        count = integrate(top)
        trace.append(("top_class_pushforward", _serialize(top)))
    trace.append(("count", str(count)))
    return CountReport(f"{kind}-complete-intersection", {"ambient": n, "degrees": degrees}, count, tuple(trace))


def _forms_top(moduli: ProjBundleRing, d: int, divisible) -> ProjBundleElement:
    """c_top on `moduli` of the degree-d forms on the curve, Q = E / (F (x) O(-zeta))
    for E = Sym^d U* and the Chern vector F = `divisible`; with no divisible
    form (None) it is `ChernRing.sym_power_top(d)`, pulled back from the base,
    and no other class of Sym^d is built.  Otherwise, with
    f = rank F and m = rank Q, the Segre class of a twist (Fulton,
    Intersection Theory, 3.1-3.2) gives

        c_m(Q) = sum over i, l of binom(f-1+m-i, m-i-l) c_i(E) s_l(F) zeta^(m-i-l),

    a polynomial in zeta that the element z-reduces.  A coefficient of
    degree above the base dimension is zero and not built.
    """
    ring = moduli.base
    if divisible is None:
        return moduli.pullback(ring.sym_power_top(d))
    forms = ring.sym_power(d)
    m, f = forms.rank - divisible.rank, divisible.rank
    segre = segre_from_chern(divisible, ring.dim)
    low = max(0, m - ring.dim)
    return ProjBundleElement(moduli, [ring.zero()] * low + [
        ring.sum_of_products((comb(f - 1 + m - i, p), forms.component(i), segre[m - p - i]) for i in range(m - p + 1))
        for p in range(low, m + 1)
    ])


def _catalan_integral(x, base: GrassmannianRing) -> int:
    """The integral over base = Gr(2, N) of a polynomial x in e_1 = c_1(U*) and
    e_2 = c_2(U*).  e_2 = sigma_(1,1) is the class of Gr(2, N-1), and e_1^(2k)
    integrates over Gr(2, k+2) to its Plücker degree, the Catalan number C_k,
    so e_1^a e_2^b of top degree a + 2b = 2(N-2) integrates to C_(N-2-b).
    Terms below the top degree integrate to zero."""
    k = base.cols
    return sum(c * (comb(2 * (k - b), k - b) // (k - b + 1)) for (a, b), c in x.terms.items() if a + 2 * b == 2 * k)


def count_lines_hypersurface(n: int, d: int) -> CountReport:
    """Lines on a general degree-d hypersurface in P^n (2875 for the quintic)."""
    return replace(
        count_curves("lines", n, [d]), pipeline="lines-hypersurface", inputs={"ambient": n, "degree": d}
    )


def count_lines_complete_intersection(n: int, degrees: list[int]) -> CountReport:
    """Lines on a general complete intersection of the given degrees in P^n."""
    return count_curves("lines", n, degrees)


def count_conics_quintic() -> CountReport:
    """Conics on a general quintic threefold in P^4 (609250)."""
    return replace(count_curves("conics", 4, [5]), pipeline="conics-quintic", inputs={})


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
    if not 1 <= e <= D:
        raise PreconditionError(f"factor degree must satisfy 1 <= e <= {D}, got {e}")
    if n < 2:
        raise PreconditionError(f"need ambient dimension >= 2, got {n}")
    base = GrassmannianRing(2, n + 1)
    ring = ChernRing(2, base.dim)
    k = 2 * (n - 1) - (e + 1)
    if k < 0:
        raise PreconditionError(
            f"expected family dimension {k} < 0: a degree-{e} factor carries no "
            f"excess family of lines in P^{n}"
        )
    small = ring.sym_power(e)
    excess = quotient_series(ring.sym_power(D), small, k)[k]
    locus = small.top()
    schubert = ring.evaluator(dual_universal_vector(base))
    count = integrate(schubert(excess.mul_truncated(locus, ring.dim)))
    excess, locus = schubert(excess), schubert(locus)
    trace = (
        ("moduli_space", f"Gr(2,{n + 1})"),
        ("family_dim", str(k)),
        ("family_class", _serialize(locus)),
        ("excess_part", _serialize(excess)),
        ("count", str(count)),
    )
    return CountReport(
        "equivalence-lines-factor",
        {"total_degree": D, "factor_degree": e, "ambient": n},
        count,
        trace,
    )


def degeneration_split_report(D: int, n: int) -> CountReport:
    """Check that factor equivalences of every split add up to the smooth count."""
    total = count_lines_hypersurface(n, D)
    pieces = {e: equivalence_lines_on_factor(D, e, n).count for e in range(1, D)}
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
