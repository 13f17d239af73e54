"""Chern-class calculus via the splitting principle.

Operations act on `ChernVector`s whose components may live in any ambient
graded ring object: a Grassmannian Chow ring, a projective-bundle ring or
a `ChernRing`.
The ambient must expose `dim`, `zero()`, `one()` and
`sum_of_products(terms)`, the sum of coeff * x * y over (coeff, x, y)
triples, and its elements must support exact `+`, `-`, `*` (with each other
and with ints).  `check_element` tells whether a value is an element of an
ambient: by the ring it names, or for a packed polynomial, which names no
ring, by its variable count; `tensor_line` and the projective-bundle
constructor share it.  Each component of a twist, sum or quotient is one
`sum_of_products` call, so the ambient can collect the products before it
reduces them.  Every series c(E)/c(S), a Whitney quotient, a Segre class or
the excess part of an equivalence, is one `quotient_series`.

Symmetric powers go through universal polynomials in e_1..e_r.  The
product of (unit + root) over the formal roots of Sym^d of a rank-r bundle
is one symmetric factor per S_r orbit of the roots, multiplied there.  A
one-root orbit and a rank-2 orbit take a closed form; only an orbit of
rank 3 or more with more than one root is multiplied out in the roots and
rewritten once by `reduce_to_elementary`.  With unit 0 it is the top class
at every rank.  The total class takes that product or Newton's identity
on the power sums of the roots, by rank, as `sym_power_elementary` says;
it is kept as packed e-polynomials per degree, cached per (rank, power,
truncation degree) in memory and optionally on disk.  A disk file is
served only if it is byte for byte the text `_store_cached` writes for its
key and its values at the roots (1, ..., r) are those of Sym^d, summed over
the multisets of d roots with no orbit walk; any other file is recomputed.  `ChernRing` is
Z[c_1..c_r] truncated at a dimension, where they are elements as they
stand; its `evaluator`, `symfunc.elementary_substitution` with e_i -> c_i,
maps them to a given bundle, each e-monomial once as a shorter one times
one c_i; U* of a Grassmannian has one such map, kept with its images for
every later class of U*.  `sym_power` of any bundle is `ChernRing.sym_power`
under that map, and the `chern` calculators compute a whole class in
`ChernRing` and map it to the Schubert basis once, at the end; a count maps
nothing.  With unit 0 the product is c_top(Sym^d) alone,
`ChernRing.sym_power_top`, with no cache; the line counts need nothing
else.
"""

from __future__ import annotations

import contextlib
import json
import operator
import os
import tempfile
from itertools import combinations_with_replacement, permutations
from math import comb
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import PreconditionError, RingMismatchError
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
    if not hasattr(x, "ring") and not hasattr(x, "nvars"):
        raise RingMismatchError(f"{what} is of type {type(x).__name__}, not an element of a ring")
    here, there = (getattr(y, "ring", None) or f"a ring in {y.nvars} variables" for y in (x, ring.one()))
    if here != there:
        raise RingMismatchError(f"{what} lives in {here}, not in {there}")


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
_CACHE_DIR: Path | None = None
_CACHE_FORMAT = 1  # bump when the layout of a cache file changes


def set_universal_cache_dir(path: str | Path | None) -> None:
    """Point the universal-polynomial cache at a directory (None disables disk)."""
    global _CACHE_DIR
    if path is not None:
        path = Path(path)
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise PreconditionError(f"cannot use {path} as the cache directory: {exc.strerror}") from exc
    _CACHE_DIR = path


@contextlib.contextmanager
def universal_cache_dir(path: str | Path | None) -> Iterator[None]:
    """Use `path` as the cache directory (None: memory only) inside the
    block, then restore the directory set before it."""
    global _CACHE_DIR
    previous = _CACHE_DIR
    set_universal_cache_dir(path)
    try:
        yield
    finally:
        _CACHE_DIR = previous


def clear_universal_cache() -> None:
    """Drop the in-memory universal polynomials, so that the next lookup of each
    key reads the disk or computes (for tests and benchmarks), and the table
    the rank-3 route keeps between the keys of one total class."""
    _SYM_CACHE.clear()
    sym_power_newton.cache_clear()


def _orbit_factor(lam: tuple[int, ...], unit: int, trunc: int) -> SymmetricPoly:
    """The product of (unit + m.x) over the distinct rearrangements m of `lam`,
    in the packed e-monomial ring up to degree `trunc`.

    Two shapes have a closed form: a one-root orbit (a, ..., a) is
    unit + a e1 at any rank, and a rank-2 orbit (a, b) with a != b is
    (unit + a x1 + b x2)(unit + b x1 + a x2)
    = unit^2 + unit (a + b) e1 + ab e1^2 + (a - b)^2 e2.  Any other orbit
    is multiplied out in the roots and rewritten once by `reduce_to_elementary`.
    """
    r, a, b = len(lam), lam[0], lam[-1]
    if a == b:
        by_degree = [{(0,) * r: unit}, {(1,) + (0,) * (r - 1): a}]
    elif r == 2:
        by_degree = [{(0, 0): unit * unit}, {(1, 0): unit * (a + b)}, {(2, 0): a * b, (0, 1): (a - b) ** 2}]
    else:
        orbit = SymmetricPoly.constant(r, 1)
        for m in set(permutations(lam)):
            orbit = orbit.mul_truncated(SymmetricPoly.linear_form(m, unit), trunc)
        return elementary_ring_poly(r, reduce_to_elementary(orbit))
    return elementary_ring_poly(r, {e: c for terms in by_degree[:trunc + 1] for e, c in terms.items()})


def _sym_power_product(r: int, d: int, unit: int, trunc: int) -> SymmetricPoly:
    """The product of (unit + root) over the roots of Sym^d(rank-r bundle), in
    e_1..e_r up to weighted degree `trunc`: the total class for unit 1, and
    the top class for unit 0 and `trunc` the rank.

    The roots of Sym^d E are the forms sum(m_i x_i) with |m| = d, in one S_r
    orbit per partition of d into at most r parts; the orbit factors, each
    from `_orbit_factor` (in closed form at rank <= 2), are multiplied from
    the lexicographically largest partition down.
    """
    total = SymmetricPoly.constant(r, 1)
    for parts in reversed(list(parts_of_weight(d, r, d))):
        total = total.mul_truncated(_orbit_factor(parts + (0,) * (r - len(parts)), unit, trunc), trunc)
    return total


def _cache_file(r: int, d: int, trunc: int) -> Path:
    return _CACHE_DIR / f"sym_r{r}_d{d}_t{trunc}.json"


def _cache_text(r: int, d: int, trunc: int, value: tuple[SymmetricPoly, ...]) -> str:
    """The text of the key's file: each degree sorted by exponents, coefficients as decimal strings."""
    degrees = [[[list(exps), str(coeff)] for exps, coeff in sorted(p.terms.items())] for p in value]
    return json.dumps({"format": _CACHE_FORMAT, "r": r, "d": d, "trunc": trunc, "degrees": degrees})


def _sym_power_at_roots(r: int, d: int, trunc: int) -> list[int]:
    """c_0..c_trunc of Sym^d of a rank-r bundle at the roots x = (1, ..., r): the e_k
    of the sums of the multisets of d roots, sharing no walk with the orbit products."""
    out = [1] + [0] * trunc
    for multiset in combinations_with_replacement(range(1, r + 1), d):
        root = sum(multiset)
        for k in range(trunc, 0, -1):
            out[k] += root * out[k - 1]
    return out


def _load_cached(r: int, d: int, trunc: int):
    """The stored polynomials for the key, or None when the file cannot be read
    or parsed, or is not byte for byte the `_cache_text` of the polynomials it
    parses to: another format or key, a repeated entry, an entry in the slot
    of another degree or a non-integer value all render differently.  A file
    that renders the same is still refused unless each degree, mapped by
    e_i -> e_i(1, ..., r), takes its value in `_sym_power_at_roots`; each
    e-monomial is positive there, so a changed coefficient changes a value."""
    try:
        text = _cache_file(r, d, trunc).read_text()
        entries = {tuple(exps): int(coeff) for degree in json.loads(text)["degrees"] for exps, coeff in degree}
        value = elementary_ring_poly(r, entries).graded(trunc)
    except (OSError, ValueError, TypeError, LookupError, ArithmeticError, RecursionError):
        return None
    if _cache_text(r, d, trunc, value) != text:
        return None
    at_roots = elementary_substitution(_sym_power_at_roots(r, 1, r), 0)  # Sym^1: e_0..e_r of (1, ..., r)
    return value if [at_roots(p) for p in value] == _sym_power_at_roots(r, d, trunc) else None


def _store_cached(r: int, d: int, trunc: int, value: tuple[SymmetricPoly, ...]) -> None:
    """Write `_cache_text` through a temporary file, so that no reader sees a partial file.

    A write that fails with an OSError (the directory gone, the disk full)
    leaves no temporary file behind and is dropped: the value is still
    served from memory, and a later process computes it again.  So is a
    value with a coefficient longer than `sys.get_int_max_str_digits()`
    allows, which has no text: nothing is written for it.
    """
    path = _cache_file(r, d, trunc)
    try:
        text = _cache_text(r, d, trunc, value)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    except (ValueError, OSError):
        return
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if not isinstance(exc, OSError):
            raise


def sym_power_elementary(r: int, d: int, trunc: int) -> tuple[SymmetricPoly, ...]:
    """Cached universal polynomials for Sym^d of a rank-r bundle up to degree trunc.

    A miss takes its route by rank alone.  Rank 3 takes Newton's identity on
    the power sums of the roots, `symfunc.sym_power_newton`.  Every other
    rank multiplies the orbit factors of `_sym_power_product` with unit 1:
    rank 2 has closed-form orbits, which power sums do not beat, and ranks 1
    and >= 4 have no power-sum route.  The top class, unit 0, is the orbit
    product at every rank (`ChernRing.sym_power_top`).
    """
    key = (r, d, trunc)
    if key in _SYM_CACHE:
        return _SYM_CACHE[key]
    value = _load_cached(r, d, trunc) if _CACHE_DIR is not None else None
    if value is None:
        value = sym_power_newton(d, trunc) if r == 3 else _sym_power_product(r, d, 1, trunc).graded(trunc)
        if _CACHE_DIR is not None:
            _store_cached(r, d, trunc, value)
    _SYM_CACHE[key] = value
    return value


def sym_power_rank(r: int, d: int) -> int:
    """The rank of Sym^d of a rank-r bundle, for d >= 1."""
    if d < 1:
        raise PreconditionError(f"symmetric power needs d >= 1, got {d}")
    return comb(r + d - 1, d)


def sym_power(c: ChernVector, d: int) -> ChernVector:
    """Chern vector of the d-th symmetric power: `ChernRing.sym_power` up to
    degree min(new rank, dim), which checks d >= 1 and rank >= 1, mapped to
    c's ambient by `ChernRing.evaluator`."""
    generic = ChernRing(c.rank, min(c.ring.dim, sym_power_rank(c.rank, d)))
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

    def sym_power_top(self, d: int) -> SymmetricPoly:
        """c_top(Sym^d) of the generic bundle alone, zero when the rank of Sym^d
        exceeds dim: the product of the roots m.x, one S_r orbit at a time.
        Each orbit's product is symmetric and homogeneous, so no lower degree
        is built; at rank 2 every orbit's product is its closed form."""
        rank = sym_power_rank(self.r, d)
        return self.zero() if rank > self.dim else _sym_power_product(self.r, d, 0, rank)

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
