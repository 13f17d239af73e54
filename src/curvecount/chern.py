"""Chern-class calculus via the splitting principle.

Operations act on `ChernVector`s whose components may live in any ambient
graded ring object: a Grassmannian Chow ring or a projective-bundle ring.
The ambient must expose `dim`, `zero()` and `one()`, and its elements must
support exact `+`, `-`, `*` (with each other and with ints).

Symmetric powers go through universal polynomials: the total class of
Sym^d of a rank-r bundle is expanded once in formal roots, rewritten in the
elementary basis, and then evaluated on the actual Chern components of any
input bundle.  The universal data is cached in memory per (rank, power,
truncation degree) and optionally on disk.
"""

from __future__ import annotations

import json
import os
import tempfile
from math import comb
from pathlib import Path
from typing import Iterator, Sequence

from .errors import PreconditionError, RingMismatchError
from .grassmannian import GrassmannianRing, universal_dual_chern
from .symfunc import SymmetricPoly, reduce_to_elementary


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

_SYM_CACHE: dict[tuple[int, int, int], tuple] = {}
_CACHE_DIR: Path | None = None
_CACHE_FORMAT = 1  # bump when the layout of a cache file changes


def set_universal_cache_dir(path: str | Path | None) -> None:
    """Point the universal-polynomial cache at a directory (None disables disk)."""
    global _CACHE_DIR
    _CACHE_DIR = Path(path) if path is not None else None
    if _CACHE_DIR is not None:
        _CACHE_DIR.mkdir(parents=True, exist_ok=True)


def clear_universal_cache() -> None:
    """Drop the in-memory universal-polynomial cache (used by transparency tests)."""
    _SYM_CACHE.clear()


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _compute_sym_power_elementary(r: int, d: int, trunc: int) -> tuple:
    """Per-degree e-polynomials of the total class of Sym^d(rank-r bundle).

    The roots of Sym^d E are the forms sum(m_i x_i) over exponent vectors m
    with |m| = d; the product of (1 + root) is expanded up to total degree
    `trunc` and each homogeneous piece rewritten in e_1..e_r.
    """
    total = SymmetricPoly.constant(r, 1)
    for m in _compositions(d, r):
        factor = SymmetricPoly.constant(r, 1) + SymmetricPoly.linear_form(m)
        total = total.mul_truncated(factor, trunc)
    out = []
    for k in range(trunc + 1):
        epoly = reduce_to_elementary(total.homogeneous_part(k))
        out.append(tuple(sorted(epoly.items())))
    return tuple(out)


def _cache_file(r: int, d: int, trunc: int) -> Path:
    return _CACHE_DIR / f"sym_r{r}_d{d}_t{trunc}.json"


def _load_cached(r: int, d: int, trunc: int):
    """The stored polynomials for the key, or None when the file is missing,
    unreadable, of another format version, or holds another key."""
    path = _cache_file(r, d, trunc)
    if not path.is_file():
        return None
    try:
        data = json.loads(path.read_text())
        if (data["format"], data["r"], data["d"], data["trunc"]) != (_CACHE_FORMAT, r, d, trunc):
            return None
        return tuple(
            tuple((tuple(exps), int(coeff)) for exps, coeff in degree)
            for degree in data["degrees"]
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return None


def _store_cached(r: int, d: int, trunc: int, value: tuple) -> None:
    """Write through a temporary file, so that no reader sees a partial file."""
    payload = {
        "format": _CACHE_FORMAT,
        "r": r,
        "d": d,
        "trunc": trunc,
        "degrees": [[[list(exps), str(coeff)] for exps, coeff in degree] for degree in value],
    }
    path = _cache_file(r, d, trunc)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(payload))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def sym_power_elementary(r: int, d: int, trunc: int) -> tuple:
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


def _evaluate_elementary(epoly, c: ChernVector, powers: list[list]):
    """Evaluate an e-polynomial on the Chern components of `c`.

    `powers[i]` lists the powers c_(i+1)^0, c_(i+1)^1, ... of `c` built so
    far; a missing power is appended from the one below it, so callers share
    one table across the e-polynomials of all components.
    """
    ring = c.ring
    acc = ring.zero()
    for exps, coeff in epoly:
        term = None
        for i, a in enumerate(exps):
            if a:
                table = powers[i]
                while len(table) <= a:
                    table.append(table[-1] * table[1])
                term = table[a] if term is None else term * table[a]
        acc = acc + (ring.one() if term is None else term) * coeff
    return acc


def sym_power(c: ChernVector, d: int) -> ChernVector:
    """Chern vector of the d-th symmetric power."""
    if d < 1:
        raise PreconditionError(f"symmetric power needs d >= 1, got {d}")
    if c.rank < 1:
        raise PreconditionError("symmetric power needs a bundle of rank >= 1")
    if d == 1:
        return c
    new_rank = comb(c.rank + d - 1, d)
    trunc = min(new_rank, c.ring.dim)
    universal = sym_power_elementary(c.rank, d, trunc)
    powers = [[c.ring.one(), c.component(i)] for i in range(1, c.rank + 1)]
    components = [_evaluate_elementary(epoly, c, powers) for epoly in universal]
    return ChernVector(c.ring, new_rank, components)


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
    if t.ring != ring:
        raise RingMismatchError("twist class lives in a different ambient ring")
    if not t.is_zero() and t.degrees() != {1}:
        raise PreconditionError("twist class must be homogeneous of degree 1")
    r = c.rank
    top = min(r, ring.dim)
    t_powers = [ring.one()]
    for _ in range(top):
        t_powers.append(t_powers[-1] * t)
    comps = []
    for k in range(top + 1):
        acc = ring.zero()
        for i in range(k + 1):
            factor = comb(r - i, k - i)
            if factor:
                acc = acc + factor * (c.component(i) * t_powers[k - i])
        comps.append(acc)
    return ChernVector(ring, r, comps)


def whitney_sum(a: ChernVector, b: ChernVector) -> ChernVector:
    """Chern vector of a direct sum: convolution of total classes."""
    if a.ring != b.ring:
        raise RingMismatchError("summands live in different ambient rings")
    ring = a.ring
    rank = a.rank + b.rank
    top = min(rank, ring.dim)
    comps = []
    for k in range(top + 1):
        acc = ring.zero()
        for i in range(k + 1):
            acc = acc + a.component(i) * b.component(k - i)
        comps.append(acc)
    return ChernVector(ring, rank, comps)


def _quotient_series(e: ChernVector, s: ChernVector, top: int) -> list:
    """Components 0..top of the total class c(E)/c(S).

    Power-series division, exact over the integers because c_0(S) = 1; the
    components of E and S beyond their stored lists are zero.
    """
    comps = [e.ring.one()]
    for k in range(1, top + 1):
        acc = e.component(k)
        for j in range(1, k + 1):
            acc = acc - s.component(j) * comps[k - j]
        comps.append(acc)
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
