"""Shared test oracles and random generators.

The oracles here deliberately avoid the production Littlewood-Richardson
code path: `brute_lr_coefficient` fills skew tableaux cell by cell, and
`oracle_multiply` evaluates products through determinant expansion in
special classes followed by iterated Pieri steps only.
`tuple_sym_power_elementary` expands the universal Sym^d polynomials on
plain exponent tuples, without the packed `SymmetricPoly` kernel, and
`elementary_to_monomials` expands e-polynomials without the memoized
e-monomials of `reduce_to_elementary`.
"""

from __future__ import annotations

import os
from itertools import combinations, permutations
from pathlib import Path
from random import Random

from curvecount import ChernVector, ChowClass, GrassmannianRing, Partition, SymmetricPoly, elementary, pieri

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env() -> dict:
    """The environment for a subprocess that imports curvecount from this tree."""
    return dict(os.environ, PYTHONPATH=str(SRC))


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


def random_class(ring: GrassmannianRing, rng: Random, max_terms: int = 5) -> ChowClass:
    """Random class: up to `max_terms` basis classes with coefficients in [-9, 9]."""
    basis = ring.basis()
    terms = {}
    for p in rng.sample(basis, min(max_terms, len(basis))):
        c = rng.randint(-9, 9)
        if c:
            terms[p] = c
    return ChowClass(ring, terms)


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
    """Per-degree e-polynomials of c(Sym^d E) for rank-r E, in the production layout.

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
