"""Chern-class calculus via the splitting principle.

Operations act on `ChernVector`s whose components may live in any ambient
graded ring object: a Grassmannian Chow ring, a projective-bundle ring or
a `ChernRing`.
The ambient must expose `dim`, `zero()`, `one()` and
`sum_of_products(terms)`, the sum of coeff * x * y over (coeff, x, y)
triples, and its elements must support exact `+`, `-`, `*` (with each other
and with ints).  `check_element` tells whether a value is an element of an
ambient: by the ring it names, or for a packed polynomial, which names no
ring, by its variable count (`errors.ring_of`); `tensor_line` and the
projective-bundle constructor share it, and every `sum_of_products` names
a factor that is no element of its ring in the same words.  Each
component of a twist, sum or quotient is one `sum_of_products` call, so
the ambient can collect the products before it reduces them.  Every
series c(E)/c(S), a Whitney quotient or a Segre class, is one
`quotient_series`.

Symmetric powers go through universal polynomials in e_1..e_r.  The product
of (1 + root) over the formal roots of Sym^d of a rank-r bundle is one
symmetric factor per S_r orbit of the roots, each multiplied out in the
roots and rewritten once by `reduce_to_elementary`.  The total class takes
that product or Newton's identity on the power sums of the roots, by rank,
as `sym_power_elementary` says; it is kept as packed e-polynomials per degree, memoized per (rank,
power, truncation degree) in memory only: this module reads and writes no
file.  `ChernRing` is Z[c_1..c_r] truncated at a dimension, where they are
elements as they stand; its `evaluator`, `symfunc.elementary_substitution`
with e_i -> c_i, maps them to a given bundle, each e-monomial once as a
shorter one times one c_i; U* of a Grassmannian has one such map, kept with
its images for every later class of U*.  `sym_power` of any bundle is
`ChernRing.sym_power` under that map, and the `chern` calculators compute a
whole class in `ChernRing` and map it to the Schubert basis once, at the
end.  No count takes a class of this module.
"""

from __future__ import annotations

import operator
from itertools import permutations
from math import comb
from typing import Iterable, Sequence

from .errors import PreconditionError, RingMismatchError, not_in, ring_of
from .grassmannian import GrassmannianRing, universal_dual_chern
from .partitions import parts_of_weight
from .symfunc import DEGREE_LIMIT, SymmetricPoly, elementary_ring_poly, elementary_substitution
from .symfunc import reduce_to_elementary, sum_of_products, sym_power_newton


class ChernVector:
    """Rank plus the components [c_0 = 1, c_1, ...] of a total Chern class.

    The component list is truncated at min(rank, ambient dimension); missing
    trailing entries are zero.  Each component must be homogeneous of its
    index degree.
    """

    __slots__ = ("ring", "rank", "components")

    def __init__(self, ring, rank: int, components: Sequence):
        if rank < 0:
            raise PreconditionError(f"rank must be >= 0, got {rank}")
        components = tuple(components)
        if len(components) > min(rank, ring.dim) + 1:
            raise PreconditionError(
                f"{len(components)} components exceed min(rank={rank}, dim={ring.dim}) + 1"
            )
        if not components or components[0] != ring.one():
            raise PreconditionError("component 0 must be the ring identity")
        for i, comp in enumerate(components):
            if not comp.is_zero() and comp.degrees() - {i}:
                raise PreconditionError(f"component {i} is not homogeneous of degree {i}")
        self.ring = ring
        self.rank = rank
        self.components = components

    def component(self, i: int):
        """c_i, with zeros beyond the stored list."""
        if i < 0 or i >= len(self.components):
            return self.ring.zero()
        return self.components[i]

    def top(self):
        """The top Chern class c_rank (zero if it exceeds the ambient dimension)."""
        return self.component(self.rank)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, ChernVector):
            return NotImplemented
        if self.ring != other.ring or self.rank != other.rank:
            return False
        n = max(len(self.components), len(other.components))
        return all(self.component(i) == other.component(i) for i in range(n))

    def __repr__(self) -> str:
        return f"ChernVector(rank={self.rank}, components={list(self.components)})"

    def to_payload(self) -> dict:
        return {
            "rank": self.rank,
            "components": [c.to_payload() for c in self.components],
        }


def check_element(x, ring, what: str) -> None:
    """Raise RingMismatchError unless `x` is an element of the ambient `ring`.

    An element that names its ring must name an equal one; a packed
    polynomial, such as a `ChernRing` element, names only its variable
    count, which must be that of the ring's elements.
    """
    there = ring_of(ring.one(), what)
    if ring_of(x, what) != there:
        raise not_in(x, there, what)


def trivial_vector(ring, rank: int) -> ChernVector:
    """The Chern vector of a trivial bundle: all higher classes vanish."""
    return ChernVector(ring, rank, [ring.one()])


def dual_universal_vector(ring: GrassmannianRing) -> ChernVector:
    """Total Chern class of the dual universal subbundle on a Grassmannian."""
    top = min(ring.r, ring.dim)
    return ChernVector(ring, ring.r, [universal_dual_chern(i, ring) for i in range(top + 1)])


# --- universal symmetric-power polynomials ---------------------------------

_SYM_CACHE: dict[tuple[int, int, int], tuple[SymmetricPoly, ...]] = {}
_DUAL_MAPS: dict[GrassmannianRing, tuple] = {}  # (c(U*), the Schubert map of U*), per Grassmannian


def clear_universal_cache() -> None:
    """Drop the memoized universal polynomials, so that the next lookup of each
    key computes it again (for tests and benchmarks), and the table the
    rank-3 route keeps between the keys of one total class."""
    _SYM_CACHE.clear()
    sym_power_newton.cache_clear()


def _orbit_factor(lam: tuple[int, ...], trunc: int) -> SymmetricPoly:
    """The product of (1 + m.x) over the distinct rearrangements m of `lam`,
    in the packed e-monomial ring up to degree `trunc`: multiplied out in
    the roots and rewritten once by `reduce_to_elementary`.
    """
    orbit = SymmetricPoly.constant(len(lam), 1)
    for m in set(permutations(lam)):
        orbit = orbit.mul_truncated(SymmetricPoly.linear_form(m, 1), trunc)
    return elementary_ring_poly(len(lam), reduce_to_elementary(orbit))


def _sym_power_product(r: int, d: int, trunc: int) -> SymmetricPoly:
    """The product of (1 + root) over the roots of Sym^d(rank-r bundle), the
    total class, in e_1..e_r up to weighted degree `trunc`.

    The roots of Sym^d E are the forms sum(m_i x_i) with |m| = d, in one S_r
    orbit per partition of d into at most r parts; the orbit factors, each
    from `_orbit_factor`, are multiplied from the lexicographically largest
    partition down.
    """
    total = SymmetricPoly.constant(r, 1)
    for parts in reversed(list(parts_of_weight(d, r, d))):
        total = total.mul_truncated(_orbit_factor(parts + (0,) * (r - len(parts)), trunc), trunc)
    return total


def sym_power_elementary(r: int, d: int, trunc: int) -> tuple[SymmetricPoly, ...]:
    """Universal polynomials for Sym^d of a rank-r bundle up to degree trunc,
    memoized per key for the life of the process.

    A miss takes its route by rank alone.  Rank 3 takes Newton's identity on
    the power sums of the roots, `symfunc.sym_power_newton`.  Every other
    rank multiplies the orbit factors of `_sym_power_product`.
    """
    key = (r, d, trunc)
    if key in _SYM_CACHE:
        return _SYM_CACHE[key]
    value = sym_power_newton(d, trunc) if r == 3 else _sym_power_product(r, d, trunc).graded(trunc)
    _SYM_CACHE[key] = value
    return value


def sym_power_rank(r: int, d: int) -> int:
    """The rank of Sym^d of a rank-r bundle, for d >= 1."""
    if d < 1:
        raise PreconditionError(f"symmetric power needs d >= 1, got {d}")
    return comb(r + d - 1, d)


def sym_power(c: ChernVector, d: int) -> ChernVector:
    """Chern vector of the d-th symmetric power: `ChernRing.sym_power` up to
    degree min(new rank, dim), mapped to c's ambient by `ChernRing.evaluator`.
    d >= 1 and a bundle of rank >= 1 are checked first."""
    rank = sym_power_rank(c.rank, d)
    if c.rank < 1:
        raise PreconditionError(f"symmetric power needs a bundle of rank >= 1, got rank {c.rank}")
    generic = ChernRing(c.rank, min(c.ring.dim, rank))
    universal = generic.sym_power(d)
    return ChernVector(c.ring, universal.rank, map(generic.evaluator(c), universal.components))


# --- the Chern-class presentation -------------------------------------------

_RINGS: dict[tuple[int, int], "ChernRing"] = {}  # by (r, dim)


class ChernRing:
    """Z[c_1..c_r], truncated above degree `dim`: the polynomials in the Chern
    classes of a generic rank-r bundle, before any relation of a space.

    Elements are `SymmetricPoly`s in the packed e-monomial layout of
    `symfunc.elementary_ring_poly`, with c_i = e_i of weight i, so the
    universal Sym^d polynomials are elements as they stand and a sum of
    products collects into one dict.  The ring fits the `ChernVector`
    ambient contract.  A class on a space where the generic bundle becomes
    a given one, such as U* on a Grassmannian, is computed here and mapped
    there once by `evaluator`.  There is one read-only ring per (r, dim),
    compared by identity.
    """

    __slots__ = ("r", "dim")

    def __new__(cls, r: int, dim: int):
        r, dim = operator.index(r), operator.index(dim)
        ring = _RINGS.get((r, dim))
        if ring is not None:
            return ring
        if r < 1 or not 0 <= dim < DEGREE_LIMIT:
            raise PreconditionError(f"need rank >= 1 and 0 <= dim < {DEGREE_LIMIT}, got ({r}, {dim})")
        ring = super().__new__(cls)
        object.__setattr__(ring, "r", r)
        object.__setattr__(ring, "dim", dim)
        return _RINGS.setdefault((r, dim), ring)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        """Copies and unpickled rings are the one ring of their (r, dim)."""
        return ChernRing, (self.r, self.dim)

    def __repr__(self) -> str:
        return f"ChernRing(r={self.r}, dim={self.dim})"

    def zero(self) -> SymmetricPoly:
        return SymmetricPoly.constant(self.r, 0)

    def one(self) -> SymmetricPoly:
        return SymmetricPoly.constant(self.r, 1)

    def sum_of_products(self, terms: Iterable[tuple[int, SymmetricPoly, SymmetricPoly]]) -> SymmetricPoly:
        """The sum of coeff * x * y over (coeff, x, y) triples, up to degree dim."""
        return sum_of_products(self.r, terms, self.dim)

    def generators(self) -> ChernVector:
        """The generic bundle itself: c_i = e_i."""
        units = [tuple(int(j == i) for j in range(self.r)) for i in range(min(self.r, self.dim))]
        return ChernVector(self, self.r, [self.one()] + [elementary_ring_poly(self.r, {e: 1}) for e in units])

    def sym_power(self, d: int) -> ChernVector:
        """c(Sym^d) of the generic bundle: the universal polynomials, with no product.

        The cache key is (r, d, min(rank, dim)).
        """
        rank = sym_power_rank(self.r, d)
        if d == 1:
            return self.generators()
        return ChernVector(self, rank, sym_power_elementary(self.r, d, min(rank, self.dim)))

    def evaluator(self, c: ChernVector):
        """The ring map c_i -> c.component(i), a function that memoizes the image
        of each e-monomial.  For U* of a Grassmannian it is the ring's one shared
        map, whatever the dim of this ring; any other vector gets a fresh one."""
        if c.rank != self.r:
            raise PreconditionError(f"cannot evaluate rank-{self.r} classes on a rank-{c.rank} bundle")
        cu, image = _DUAL_MAPS.get(c.ring, (None, None)) if isinstance(c.ring, GrassmannianRing) else ((), None)
        if c.components == cu:
            return image
        image = elementary_substitution([c.component(i) for i in range(self.r + 1)], c.ring.zero())
        if cu is None and c.components == dual_universal_vector(c.ring).components:
            _DUAL_MAPS[c.ring] = c.components, image
        return image


# --- elementary bundle operations -------------------------------------------

def dual(c: ChernVector) -> ChernVector:
    """Chern vector of the dual bundle: c_i picks up (-1)^i."""
    comps = [comp if i % 2 == 0 else -comp for i, comp in enumerate(c.components)]
    return ChernVector(c.ring, c.rank, comps)


def tensor_line(c: ChernVector, t) -> ChernVector:
    """Chern vector of E tensor L for a line bundle L with c_1(L) = t.

    c_k(E ox L) = sum over i of binom(rank - i, k - i) c_i(E) t^(k - i).
    """
    ring = c.ring
    check_element(t, ring, "twist class")
    if not t.is_zero() and t.degrees() != {1}:
        raise PreconditionError("twist class must be homogeneous of degree 1")
    r = c.rank
    top = min(r, ring.dim)
    t_powers = [ring.one()]
    for _ in range(top):
        t_powers.append(t_powers[-1] * t)
    comps = [
        ring.sum_of_products((comb(r - i, k - i), c.component(i), t_powers[k - i]) for i in range(k + 1))
        for k in range(top + 1)
    ]
    return ChernVector(ring, r, comps)


def whitney_sum(a: ChernVector, b: ChernVector) -> ChernVector:
    """Chern vector of a direct sum: convolution of total classes."""
    if a.ring != b.ring:
        raise RingMismatchError("summands live in different ambient rings")
    ring = a.ring
    rank = a.rank + b.rank
    top = min(rank, ring.dim)
    comps = [
        ring.sum_of_products((1, a.component(i), b.component(k - i)) for i in range(k + 1))
        for k in range(top + 1)
    ]
    return ChernVector(ring, rank, comps)


def quotient_series(e: ChernVector, s: ChernVector, top: int) -> list:
    """Components 0..top of the total class c(E)/c(S).

    Power-series division, exact over the integers because c_0(S) = 1; the
    components of E and S beyond their stored lists are zero, and so is
    every component above the ambient's dimension.
    """
    ring = e.ring
    comps = [ring.one()]
    for k in range(1, min(top, ring.dim) + 1):
        products = ring.sum_of_products((1, s.component(j), comps[k - j]) for j in range(1, k + 1))
        comps.append(e.component(k) - products)
    return comps + [ring.zero()] * (top + 1 - len(comps))


def whitney_quotient(e: ChernVector, s: ChernVector, trunc: int | None = None) -> ChernVector:
    """Chern vector of the quotient in 0 -> S -> E -> Q -> 0: c(E)/c(S).

    The division is exact over the integers because c_0(S) = 1.
    """
    if e.ring != s.ring:
        raise RingMismatchError("bundles live in different ambient rings")
    if e.rank < s.rank:
        raise PreconditionError(f"quotient rank would be negative: {e.rank} < {s.rank}")
    ring = e.ring
    rank = e.rank - s.rank
    if trunc is None:
        trunc = ring.dim
    elif trunc < 0:
        raise PreconditionError(f"truncation degree must be >= 0, got {trunc}")
    return ChernVector(ring, rank, quotient_series(e, s, min(rank, trunc, ring.dim)))


def segre_from_chern(c: ChernVector, trunc: int) -> list:
    """Segre classes: the coefficients of the inverse of the total Chern class.

    Returns [s_0 = 1, s_1, ..., s_trunc] with s_1 = -c_1, s_2 = c_1^2 - c_2, ...;
    a truncation at or past DEGREE_LIMIT, the bound of every degree, is refused.
    """
    if trunc < 0:
        raise PreconditionError(f"truncation degree must be >= 0, got {trunc}")
    if trunc >= DEGREE_LIMIT:
        raise PreconditionError(f"truncation degree {trunc} must be below {DEGREE_LIMIT}")
    return quotient_series(trivial_vector(c.ring, 0), c, trunc)
