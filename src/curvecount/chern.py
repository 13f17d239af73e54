"""Chern-class calculus via the splitting principle.

Operations act on `ChernVector`s whose components may live in any ambient
graded ring object: a Grassmannian Chow ring, a projective-bundle ring or
a `ChernRing`.
The ambient must expose `dim`, `zero()`, `one()` and
`sum_of_products(terms)`, the sum of coeff * x * y over (coeff, x, y)
triples, and its elements must support exact `+`, `-`, `*` (with each other
and with ints).  Each component of a twist, sum or quotient is one
`sum_of_products` call, so the ambient can collect the products before it
reduces them.

Symmetric powers go through universal polynomials: the total class of
Sym^d of a rank-r bundle is a product of one symmetric factor per S_r orbit
of its formal roots, each rewritten once in e_1..e_r and multiplied there.
Its components are kept as packed e-polynomials, cached per (rank, power,
truncation degree) in memory and optionally on disk.  `ChernRing` is
Z[c_1..c_r] truncated at a dimension, where they are elements as they stand;
its `evaluator`, `symfunc.elementary_substitution` with e_i -> c_i, maps
them to a given bundle, each e-monomial once as a shorter one times one c_i.
`sym_power` of any bundle is `ChernRing.sym_power` under that map, and the
counts and the `chern` calculators compute a whole class in `ChernRing` and
map it to the Schubert basis once, at the end.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import PreconditionError, RingMismatchError
from .grassmannian import GrassmannianRing, universal_dual_chern
from .symfunc import DEGREE_LIMIT, SymmetricPoly, elementary_ring_poly, elementary_substitution
from .symfunc import reduce_to_elementary, sum_of_products


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


def trivial_vector(ring, rank: int) -> ChernVector:
    """The Chern vector of a trivial bundle: all higher classes vanish."""
    return ChernVector(ring, rank, [ring.one()])


def dual_universal_vector(ring: GrassmannianRing) -> ChernVector:
    """Total Chern class of the dual universal subbundle on a Grassmannian."""
    top = min(ring.r, ring.dim)
    return ChernVector(ring, ring.r, [universal_dual_chern(i, ring) for i in range(top + 1)])


# --- universal symmetric-power polynomials ---------------------------------

_SYM_CACHE: dict[tuple[int, int, int], tuple[SymmetricPoly, ...]] = {}
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


def clear_universal_cache() -> None:
    """Drop the in-memory universal-polynomial cache, so that the next lookup
    of each key reads the disk or computes (for tests and benchmarks)."""
    _SYM_CACHE.clear()


def _partitions(total: int, parts: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing `parts`-tuples of nonnegative ints <= `cap` summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, cap), -(-total // parts) - 1, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def _distinct_permutations(values: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Each distinct rearrangement of `values` once; equal values must be adjacent."""
    if not values:
        yield ()
        return
    for i, v in enumerate(values):
        if i == 0 or v != values[i - 1]:
            for rest in _distinct_permutations(values[:i] + values[i + 1:]):
                yield (v,) + rest


def _orbit_factor(lam: tuple[int, ...], trunc: int) -> SymmetricPoly:
    """The product of (1 + m.x) over the distinct rearrangements m of `lam` up to
    degree `trunc`: symmetric, so rewritten once into the packed e-monomial ring."""
    one = SymmetricPoly.constant(len(lam), 1)
    roots = _distinct_permutations(lam)
    orbit = one + SymmetricPoly.linear_form(next(roots))
    for m in roots:
        orbit = orbit.mul_truncated(one + SymmetricPoly.linear_form(m), trunc)
    return elementary_ring_poly(len(lam), reduce_to_elementary(orbit))


def _compute_sym_power_elementary(r: int, d: int, trunc: int) -> tuple[SymmetricPoly, ...]:
    """Per-degree e-polynomials of the total class of Sym^d(rank-r bundle).

    The roots of Sym^d E are the forms sum(m_i x_i) over exponent vectors m
    with |m| = d.  They fall into S_r orbits, one per partition of d into at
    most r parts; the orbit factors are multiplied in e_1..e_r up to
    weighted degree `trunc`, and split by that degree.
    """
    total = SymmetricPoly.constant(r, 1)
    for lam in _partitions(d, r, d):
        total = total.mul_truncated(_orbit_factor(lam, trunc), trunc)
    return total.graded(trunc)


def _cache_file(r: int, d: int, trunc: int) -> Path:
    return _CACHE_DIR / f"sym_r{r}_d{d}_t{trunc}.json"


def _load_cached(r: int, d: int, trunc: int):
    """The stored polynomials for the key, or None when the file is missing,
    unreadable, of another format version, holds another key, or does not
    have trunc + 1 degrees of distinct r-entry exponent tuples of
    non-negative ints, each of the weighted degree sum(i * a_i) of its slot,
    with integer coefficients."""
    path = _cache_file(r, d, trunc)
    if not path.is_file():
        return None
    try:
        data = json.loads(path.read_text())
        if (data["format"], data["r"], data["d"], data["trunc"]) != (_CACHE_FORMAT, r, d, trunc):
            return None
        value = tuple(
            tuple((tuple(exps), int(str(coeff))) for exps, coeff in degree)  # int(True), int(2.5) would pass
            for degree in data["degrees"]
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return None
    if len(value) != trunc + 1 or any(
        len(exps) != r
        or any(type(a) is not int or a < 0 for a in exps)
        or sum(i * a for i, a in enumerate(exps, 1)) != weight
        for weight, degree in enumerate(value)
        for exps, _ in degree
    ) or any(len(dict(degree)) != len(degree) for degree in value):
        return None
    return tuple(elementary_ring_poly(r, dict(degree)) for degree in value)


def _store_cached(r: int, d: int, trunc: int, value: tuple[SymmetricPoly, ...]) -> None:
    """Write each degree sorted by exponents, through a temporary file, so that no reader sees a partial file.

    A write that fails with an OSError (the directory gone, the disk full)
    leaves no temporary file behind and is dropped: the value is still
    served from memory, and a later process computes it again.
    """
    payload = {
        "format": _CACHE_FORMAT,
        "r": r,
        "d": d,
        "trunc": trunc,
        "degrees": [[[list(exps), str(coeff)] for exps, coeff in sorted(p.terms.items())] for p in value],
    }
    path = _cache_file(r, d, trunc)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(payload))
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if not isinstance(exc, OSError):
            raise


def sym_power_elementary(r: int, d: int, trunc: int) -> tuple[SymmetricPoly, ...]:
    """Cached universal polynomials for Sym^d of a rank-r bundle up to degree trunc."""
    key = (r, d, trunc)
    if key in _SYM_CACHE:
        return _SYM_CACHE[key]
    value = _load_cached(r, d, trunc) if _CACHE_DIR is not None else None
    if value is None:
        value = _compute_sym_power_elementary(r, d, trunc)
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

@dataclass(frozen=True, slots=True)
class ChernRing:
    """Z[c_1..c_r], truncated above degree `dim`: the polynomials in the Chern
    classes of a generic rank-r bundle, before any relation of a space.

    Elements are `SymmetricPoly`s in the packed e-monomial layout of
    `symfunc.elementary_ring_poly`, with c_i = e_i of weight i, so the
    universal Sym^d polynomials are elements as they stand and a sum of
    products collects into one dict.  The ring fits the `ChernVector`
    ambient contract.  A class on a space where the generic bundle becomes
    a given one, such as U* on a Grassmannian, is computed here and mapped
    there once by `evaluator`.  Two rings are equal when their rank and
    dimension are.
    """

    r: int
    dim: int

    def __post_init__(self):
        if self.r < 1 or not 0 <= self.dim < DEGREE_LIMIT:
            raise PreconditionError(f"need rank >= 1 and 0 <= dim < {DEGREE_LIMIT}, got ({self.r}, {self.dim})")

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
        """The ring map c_i -> c.component(i), as a function with its own monomial memo."""
        if c.rank != self.r:
            raise PreconditionError(f"cannot evaluate rank-{self.r} classes on a rank-{c.rank} bundle")
        return elementary_substitution([c.component(i) for i in range(self.r + 1)], c.ring.zero())


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
    here, there = (getattr(x, "ring", None) or f"a ring in {x.nvars} variables" for x in (t, ring.one()))
    if here != there:
        raise RingMismatchError(f"twist class lives in {here}, not in {there}")
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


def _quotient_series(e: ChernVector, s: ChernVector, top: int) -> list:
    """Components 0..top of the total class c(E)/c(S).

    Power-series division, exact over the integers because c_0(S) = 1; the
    components of E and S beyond their stored lists are zero.
    """
    ring = e.ring
    comps = [ring.one()]
    for k in range(1, top + 1):
        products = ring.sum_of_products((1, s.component(j), comps[k - j]) for j in range(1, k + 1))
        comps.append(e.component(k) - products)
    return comps


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
    return ChernVector(ring, rank, _quotient_series(e, s, min(rank, trunc, ring.dim)))


def segre_from_chern(c: ChernVector, trunc: int) -> list:
    """Segre classes: the coefficients of the inverse of the total Chern class.

    Returns [s_0 = 1, s_1, ..., s_trunc] with s_1 = -c_1, s_2 = c_1^2 - c_2, ...
    """
    if trunc < 0:
        raise PreconditionError(f"truncation degree must be >= 0, got {trunc}")
    return _quotient_series(trivial_vector(c.ring, 0), c, trunc)
