"""Shared test oracles and random generators.

The oracles here deliberately avoid the production Littlewood-Richardson
code path: `brute_lr_coefficient` fills skew tableaux cell by cell, and
`oracle_multiply` evaluates products through determinant expansion in
special classes followed by iterated Pieri steps only.
`tuple_sym_power_elementary` expands the universal Sym^d polynomials on
plain exponent tuples, without the packed `SymmetricPoly` kernel, and
`elementary_to_monomials` expands e-polynomials without the memoized
e-monomials of `reduce_to_elementary`.  `roots_sym_power_elementary`
multiplies every root factor of Sym^d in the formal roots, without the
S_r-orbit factors of `chern._sym_power_product`.  Both return
the per-degree tuple form of the cache files, and `packed` turns that form
into the packed e-polynomials of production.
`power_table_sym_power` evaluates the universal Sym^d polynomials from
whole powers of each Chern class, without the one-component-at-a-time memo
of `chern.sym_power`.  `schubert_calculator` computes what a `chern`
calculator prints in the Schubert basis, the calculators' route before
they moved to `ChernRing`.  `naive_pb_multiply` multiplies in a projective
bundle one coefficient product at a time and applies the relation with
class arithmetic, without the fused `sum_of_products` kernel.
`bott_count` counts lines, conics and equivalences by torus localization,
with no Schubert calculus, symmetric-function reduction or bundle relation.
`eager_parser` builds the whole command-line parser up front, every
subcommand's parser with it, as `cli.build_parser` did before it deferred
them.  `cap_products` makes `GrassmannianRing.sum_of_products` fail after a
number of calls, so a loop that would run for hours fails at once.
"""

from __future__ import annotations

import argparse
import os
from fractions import Fraction
from functools import partial
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, prod
from pathlib import Path
from random import Random

from curvecount import (
    ChernVector,
    ChowClass,
    GrassmannianRing,
    Partition,
    ProjBundleElement,
    SymmetricPoly,
    dual,
    dual_universal_vector,
    elementary,
    pieri,
    reduce_to_elementary,
    segre_from_chern,
    tensor_line,
    whitney_quotient,
)
from curvecount import chern, cli, grassmannian
from curvecount.chern import sym_power_elementary
from curvecount.symfunc import elementary_ring_poly

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env() -> dict:
    """The environment for a subprocess that imports curvecount from this tree."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def cap_products(monkeypatch, limit: int = 50) -> None:
    """Make `GrassmannianRing.sum_of_products`, every Schubert product, raise after `limit` calls."""
    original = GrassmannianRing.sum_of_products
    calls = []

    def capped(ring, terms):
        calls.append(1)
        if len(calls) > limit:
            raise AssertionError(f"more than {limit} Schubert products")
        return original(ring, terms)

    monkeypatch.setattr(GrassmannianRing, "sum_of_products", capped)


def clear_product_memos() -> None:
    """Forget every LR expansion: the memo, and the product and strip tables of
    each ring, and the shared Schubert map of U* that holds products of them."""
    grassmannian._lr_expansion.cache_clear()
    chern._DUAL_MAPS.clear()
    for ring in grassmannian._RINGS.values():
        ring.products.clear()
        ring.strips.clear()


def brute_lr_coefficient(lam, mu, nu) -> int:
    """Count Littlewood-Richardson skew tableaux of shape nu/lam, content mu.

    Cells are filled row-major with entries 1..len(mu), keeping rows weakly
    and columns strictly increasing; the reverse reading word (rows top to
    bottom, each right to left) must be a lattice word.
    """
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    rows = len(nu)
    lam_p = lam + (0,) * (rows - len(lam))
    if any(lam_p[i] > nu[i] for i in range(rows)):
        return 0
    cells = [(r, c) for r in range(rows) for c in range(lam_p[r], nu[r])]
    if not cells:
        return 1 if not mu else 0
    grid: dict[tuple[int, int], int] = {}
    remaining = list(mu)
    found = 0

    def reverse_word_is_lattice() -> bool:
        counts = [0] * (len(mu) + 1)
        for r in range(rows):
            for c in range(nu[r] - 1, lam_p[r] - 1, -1):
                v = grid[(r, c)]
                counts[v] += 1
                if v >= 2 and counts[v] > counts[v - 1]:
                    return False
        return True

    def fill(idx: int) -> None:
        nonlocal found
        if idx == len(cells):
            if reverse_word_is_lattice():
                found += 1
            return
        r, c = cells[idx]
        left = grid.get((r, c - 1))
        above = grid.get((r - 1, c))
        for v in range(1, len(mu) + 1):
            if remaining[v - 1] == 0:
                continue
            if left is not None and v < left:
                continue
            if above is not None and v <= above:
                continue
            grid[(r, c)] = v
            remaining[v - 1] -= 1
            fill(idx + 1)
            remaining[v - 1] += 1
            del grid[(r, c)]

    fill(0)
    return found


def _determinant_terms(parts: tuple[int, ...], cols: int):
    """Signed special-class monomials of det(sigma_(parts[i] + j - i))."""
    size = len(parts)
    if size == 0:
        yield 1, ()
        return
    for perm in permutations(range(size)):
        rows = tuple(parts[i] + perm[i] - i for i in range(size))
        if any(m < 0 or m > cols for m in rows):
            continue
        inversions = sum(
            1 for i in range(size) for j in range(i + 1, size) if perm[i] > perm[j]
        )
        yield (-1 if inversions % 2 else 1), rows


def oracle_multiply(ring: GrassmannianRing, lam, mu) -> ChowClass:
    """sigma_lam * sigma_mu evaluated without the LR rule.

    Both factors are expanded as determinants in special classes; every
    monomial of the product is then evaluated by iterated Pieri steps.
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    mu = mu if isinstance(mu, Partition) else Partition(mu)
    total = ring.zero()
    for s1, rows1 in _determinant_terms(lam.parts, ring.cols):
        for s2, rows2 in _determinant_terms(mu.parts, ring.cols):
            term = ring.one()
            for a in rows1 + rows2:
                term = pieri(term, a)
            total = total + s1 * s2 * term
    return total


def point_class(ring: GrassmannianRing) -> ChowClass:
    """The class of a point: the full-box Schubert class."""
    return ring.sigma((ring.cols,) * ring.rows)


def random_class(ring: GrassmannianRing, rng: Random, max_terms: int = 5) -> ChowClass:
    """Random class: up to `max_terms` basis classes with coefficients in [-9, 9]."""
    basis = ring.basis()
    terms = {}
    for p in rng.sample(basis, min(max_terms, len(basis))):
        c = rng.randint(-9, 9)
        if c:
            terms[p] = c
    return ChowClass(ring, terms)


def dense_class(ring: GrassmannianRing, rng: Random) -> ChowClass:
    """Random class on every basis element, with coefficients in [-9, 9]."""
    return ChowClass(ring, {p: rng.randint(-9, 9) for p in ring.basis()})


def random_homogeneous_class(ring: GrassmannianRing, rng: Random, degree: int) -> ChowClass:
    basis = ring.basis(degree)
    return ChowClass(ring, {p: rng.randint(-9, 9) for p in basis})


def random_bundle_vector(ring: GrassmannianRing, rng: Random, rank: int) -> ChernVector:
    """Random Chern vector: component i is a random homogeneous class of degree i."""
    top = min(rank, ring.dim)
    comps = [ring.one()]
    comps += [random_homogeneous_class(ring, rng, i) for i in range(1, top + 1)]
    return ChernVector(ring, rank, comps)


# --- universal Sym^d polynomials on exponent tuples --------------------------

def _tuple_mul(p: dict, q: dict, max_degree: int | None) -> dict:
    """Product of two tuple-keyed polynomials, dropping degrees above `max_degree`."""
    acc: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            if max_degree is not None and sum(e1) + sum(e2) > max_degree:
                continue
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def _tuple_elementary_monomial(r: int, exps: tuple[int, ...]) -> dict:
    """e_1^exps[0] * ... * e_r^exps[-1], each factor multiplied in from scratch."""
    out = {(0,) * r: 1}
    for k, a in enumerate(exps, start=1):
        ek = {tuple(int(i in subset) for i in range(r)): 1 for subset in combinations(range(r), k)}
        for _ in range(a):
            out = _tuple_mul(out, ek, None)
    return out


def _tuple_reduce(p: dict, r: int) -> dict:
    """Elementary-basis rewrite by lex-leading-term elimination."""
    work = dict(p)
    out: dict = {}
    while work:
        m = max(work)
        c = work[m]
        assert all(m[i] >= m[i + 1] for i in range(r - 1)), f"not symmetric at {m}"
        e_exps = tuple(m[i] - m[i + 1] for i in range(r - 1)) + (m[r - 1],)
        out[e_exps] = out.get(e_exps, 0) + c
        for e, k in _tuple_elementary_monomial(r, e_exps).items():
            new = work.get(e, 0) - c * k
            if new:
                work[e] = new
            else:
                work.pop(e, None)
    return out


def _compositions(r: int, d: int):
    """Exponent vectors of length r with entries summing to d."""
    if r == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in _compositions(r - 1, d - first):
            yield (first,) + rest


def tuple_sym_power_elementary(r: int, d: int, trunc: int) -> tuple:
    """Per-degree e-polynomials of c(Sym^d E) for rank-r E, in the tuple form of the cache files.

    The roots of Sym^d E are the forms sum(m_i x_i) with |m| = d; their
    product of (1 + root) is expanded up to degree `trunc`, and each degree
    is rewritten in e_1..e_r as a sorted tuple of (exponents, coefficient).
    """
    total = {(0,) * r: 1}
    for m in _compositions(r, d):
        factor = {(0,) * r: 1}
        for i, a in enumerate(m):
            if a:
                factor[tuple(int(j == i) for j in range(r))] = a
        total = _tuple_mul(total, factor, trunc)
    return tuple(
        tuple(sorted(_tuple_reduce({e: c for e, c in total.items() if sum(e) == k}, r).items()))
        for k in range(trunc + 1)
    )


def roots_sym_power_elementary(r: int, d: int, trunc: int) -> tuple:
    """Per-degree e-polynomials of c(Sym^d E) for rank-r E, in the tuple form of the cache files.

    The product of (1 + root) over all comb(d + r - 1, r - 1) roots is
    expanded in the packed kernel up to degree `trunc`, and each homogeneous
    piece is rewritten in e_1..e_r.
    """
    one = SymmetricPoly.constant(r, 1)
    total = one
    for m in _compositions(r, d):
        total = total.mul_truncated(one + SymmetricPoly.linear_form(m), trunc)
    by_degree = [{} for _ in range(trunc + 1)]
    for e, c in total.terms.items():
        by_degree[sum(e)][e] = c
    return tuple(tuple(sorted(reduce_to_elementary(SymmetricPoly(r, part)).items())) for part in by_degree)


def packed(value: tuple) -> tuple[SymmetricPoly, ...]:
    """Per-degree tuples of (exponents, coefficient) as packed e-polynomials,
    the form of `chern.sym_power_elementary`."""
    r = len(value[0][0][0])
    return tuple(elementary_ring_poly(r, dict(degree)) for degree in value)


def evaluate(p: SymmetricPoly, values: tuple[int, ...]) -> int:
    """The value of `p` at x_i = values[i]."""
    if len(values) != p.nvars:
        raise ValueError(f"need {p.nvars} values, got {len(values)}")
    total = 0
    for e, c in p.terms.items():
        term = c
        for v, a in zip(values, e):
            term *= v**a
        total += term
    return total


def elementary_to_monomials(nvars: int, epoly) -> SymmetricPoly:
    """Inverse of `reduce_to_elementary`: expand an e-polynomial into monomials."""
    out = SymmetricPoly(nvars)
    for exps, c in epoly.items():
        term = SymmetricPoly.constant(nvars, c)
        for i, a in enumerate(exps):
            for _ in range(a):
                term = term * elementary(nvars, i + 1)
        out = out + term
    return out


def power_table_sym_power(c: ChernVector, d: int) -> ChernVector:
    """Sym^d of `c` with every e-monomial a product of whole powers c_i^a.

    The powers of each Chern class come from one table per call, each power
    the one below it times c_i, and a monomial c_1^a_1 ... c_r^a_r multiplies
    its powers together from the left.  Only the universal polynomials are
    shared with `chern.sym_power`.
    """
    ring = c.ring
    new_rank = comb(c.rank + d - 1, d)
    powers = [[ring.one(), c.component(i)] for i in range(1, c.rank + 1)]
    components = []
    for epoly in sym_power_elementary(c.rank, d, min(new_rank, ring.dim)):
        acc = ring.zero()
        for exps, coeff in epoly.terms.items():
            term = None
            for table, a in zip(powers, exps):
                if a:
                    while len(table) <= a:
                        table.append(table[-1] * table[1])
                    term = table[a] if term is None else term * table[a]
            acc = acc + (ring.one() if term is None else term) * coeff
        components.append(acc)
    return ChernVector(ring, new_rank, components)


def schubert_calculator(command: str, base: GrassmannianRing, options: dict[str, int]):
    """The payload `curvecount chern <command>` prints on `base` for the
    integer `options` (keyed by option name), computed in the Schubert
    basis: Sym^d from `power_table_sym_power` and every other step a generic
    `chern` function over the Grassmannian, so it multiplies Schubert classes
    through the LR memo.  The twist class is by * c_1(U*), zero on a point."""
    cu = dual_universal_vector(base)
    if command == "quotient":
        num, den = (power_table_sym_power(cu, options[name]) for name in ("num", "den"))
        return whitney_quotient(num, den).to_payload()
    sym = power_table_sym_power(cu, options["degree"])
    if command == "segre":
        return [c.to_payload() for c in segre_from_chern(sym, options.get("trunc", base.dim))]
    if command == "dual":
        sym = dual(sym)
    elif command == "twist":
        sym = tensor_line(sym, cu.component(1) * options["by"])
    return sym.to_payload()


# --- projective bundles -------------------------------------------------------

def naive_pb_multiply(x: ProjBundleElement, y: ProjBundleElement) -> ProjBundleElement:
    """Product in P(E): every coefficient product through `*`, then the relation
    z^s = -(c_1 z^(s-1) + ... + c_s) applied from the top with `-` and `*`."""
    ring = x.ring
    s = ring.fiber_rank
    raw = [ring.base.zero() for _ in range(2 * s - 1)]
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            raw[i + j] = raw[i + j] + a * b
    while len(raw) > s:
        top = raw.pop()
        i = len(raw)
        for j in range(1, s + 1):
            raw[i - j] = raw[i - j] - top * ring.bundle.component(j)
    return ProjBundleElement(ring, raw)


# --- torus localization -------------------------------------------------------

def _excess_coefficient(w: list[int], v: list[int], k: int) -> int:
    """The t^k coefficient of prod(1 + w t) / prod(1 + v t), by integer series steps."""
    series = [1] + [0] * k
    for x in w:
        for i in range(k, 0, -1):
            series[i] += x * series[i - 1]
    for x in v:
        for i in range(1, k + 1):
            series[i] -= x * series[i - 1]
    return series[k]


def bott_count(kind: str, n: int, degrees, weights) -> int:
    """Lines, conics or a factor's equivalence on a general hypersurface or
    complete intersection in P^n by Bott's formula.

    The torus acts on the coordinates with the distinct integer `weights`
    (the weights of U* at a coordinate subspace).  Lines sum over the
    coordinate 2-planes S, conics over the coordinate 3-planes S and the
    six monomial conics q in each.  At a fixed point the forms bundle of
    degree d has the weights of the degree-d monomials in S (for conics,
    those q does not divide), and the tangent space those of Hom(U, Q)
    plus, for conics, q'/q for the other monomial conics q'.  The count is
    the sum of the product of the forms weights over the product of the
    tangent weights (Ellingsrud-Stromme, alg-geom/9411005).

    For kind "equivalence", `degrees` is (D, e): the lines absorbed by a
    degree-e factor of a degree-D hypersurface.  The numerator at S is then
    the t^k coefficient of prod(1 + w t) / prod(1 + v t), k = 2(n-1) - (e+1),
    with w the weights of Sym^D U* and v those of Sym^e U*, times the
    product of the v.  A weight vector that makes a tangent weight zero is
    rejected.
    """
    lam = list(weights)
    if len(lam) != n + 1:
        raise ValueError(f"need {n + 1} weights, got {len(lam)}")
    span = 3 if kind == "conics" else 2
    total = Fraction(0)
    for S in combinations(range(n + 1), span):
        grassmann = [lam[i] - lam[j] for i in S for j in range(n + 1) if j not in S]
        # A line is its plane S; a conic is one of the six monomial conics q in S,
        # whose forms drop the monomials q * r with r of degree d - 2.
        conics = list(combinations_with_replacement(S, 2)) if kind == "conics" else [()]
        for q in conics:
            if kind == "equivalence":
                D, e = degrees
                w, v = ([sum(lam[i] for i in m) for m in combinations_with_replacement(S, d)] for d in (D, e))
                numerator = _excess_coefficient(w, v, 2 * (n - 1) - (e + 1)) * prod(v)
            else:
                forms = []
                for d in degrees:
                    lower = combinations_with_replacement(S, d - 2) if q and d > 1 else ()
                    divisible = {tuple(sorted(q + r)) for r in lower}
                    monomials = [m for m in combinations_with_replacement(S, d) if m not in divisible]
                    forms += [sum(lam[i] for i in m) for m in monomials]
                numerator = prod(forms)
            wq = sum(lam[i] for i in q)
            tangent = grassmann + [sum(lam[i] for i in other) - wq for other in conics if other != q]
            denominator = prod(tangent)
            if not denominator:
                raise ValueError(f"the weights {lam} make a tangent weight zero")
            total += Fraction(numerator, denominator)
    if total.denominator != 1:
        raise ValueError(f"localization gave the non-integer {total}")
    return total.numerator


# --- command line -------------------------------------------------------------

def eager_parser() -> argparse.ArgumentParser:
    """The CLI parser with every subcommand's parser built up front, from
    `cli.COMMANDS` and `cli.CALCULATORS`: the reference for the help and
    usage-error output of the parser `cli.run` builds on demand."""
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
        help=f"directory for the universal-polynomial cache (or ${cli.CACHE_DIR_ENV})",
    )

    def add_commands(sub, prefix, commands, common=()):
        for name, summary, options, emit in commands:
            p = sub.add_parser(name, help=summary)
            for flag, keywords in common + options:
                p.add_argument(flag, **keywords)
            p.set_defaults(func=partial(emit, prefix + name, options))

    sub = parser.add_subparsers(dest="command", required=True)
    add_commands(sub, "", cli.COMMANDS)
    for group, (summary, commands) in cli.CALCULATORS.items():
        group_sub = sub.add_parser(group, help=summary).add_subparsers(dest="subcommand", required=True)
        add_commands(group_sub, f"{group}-", commands, (cli._GRASSMANNIAN,))
    return parser
