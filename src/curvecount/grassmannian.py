"""Exact Chow-ring arithmetic on Grassmannians in the Schubert basis.

Classes on Gr(r, N) (r-dimensional subspaces of an N-dimensional space) are
finite integer combinations of Schubert classes indexed by partitions inside
the r x (N-r) box.  Products use the Littlewood-Richardson rule, computed by
enumerating chains of horizontal strips with the lattice-word condition;
results are memoized per (pair of partitions, box).  Everything is exact:
coefficients are plain Python integers.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Iterable, Mapping

from .errors import PreconditionError, RingMismatchError
from .partitions import Partition, horizontal_strips, partitions_in_box


class GrassmannianRing:
    """Chow ring of Gr(r, N), the r-dimensional subspaces of an N-space.

    r == N is allowed and gives a point (zero-dimensional ring), which the
    projective-bundle layer uses to model plain projective spaces.
    """

    __slots__ = ("r", "N")

    def __init__(self, r: int, N: int):
        if not 0 < r <= N:
            raise PreconditionError(f"need 0 < r <= N, got Gr({r},{N})")
        self.r = r
        self.N = N

    @property
    def rows(self) -> int:
        return self.r

    @property
    def cols(self) -> int:
        return self.N - self.r

    @property
    def dim(self) -> int:
        return self.r * (self.N - self.r)

    def contains(self, p: Partition) -> bool:
        return p.fits(self.rows, self.cols)

    def zero(self) -> "ChowClass":
        return ChowClass(self, {})

    def one(self) -> "ChowClass":
        return ChowClass(self, {Partition(): 1})

    def sigma(self, parts: Iterable[int]) -> "ChowClass":
        """The Schubert basis class for the given partition."""
        p = parts if isinstance(parts, Partition) else Partition(parts)
        if not self.contains(p):
            raise PreconditionError(f"{p} does not fit the box of {self}")
        return ChowClass(self, {p: 1})

    def point_class(self) -> "ChowClass":
        """The class of a point: the full-box Schubert class."""
        return self.sigma((self.cols,) * self.rows)

    def basis(self, weight: int | None = None) -> list[Partition]:
        all_parts = partitions_in_box(self.rows, self.cols)
        if weight is None:
            return all_parts
        return [p for p in all_parts if p.weight == weight]

    def __eq__(self, other) -> bool:
        if isinstance(other, GrassmannianRing):
            return (self.r, self.N) == (other.r, other.N)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.r, self.N))

    def __repr__(self) -> str:
        return f"Gr({self.r},{self.N})"


class ChowClass:
    """An element of a Grassmannian Chow ring in the Schubert basis.

    `terms` maps in-box partitions to nonzero integers; the zero class has
    no terms.  Instances are treated as immutable: all arithmetic returns
    new objects, so sharing across threads is safe.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: GrassmannianRing, terms: Mapping[Partition, int]):
        clean: dict[Partition, int] = {}
        for p, c in terms.items():
            if not isinstance(p, Partition):
                p = Partition(p)
            c = int(c)
            if c == 0:
                continue
            if not ring.contains(p):
                raise PreconditionError(f"{p} does not fit the box of {ring}")
            clean[p] = c
        self.ring = ring
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, parts) -> int:
        p = parts if isinstance(parts, Partition) else Partition(parts)
        return self.terms.get(p, 0)

    def degrees(self) -> set[int]:
        """Weights of the homogeneous components present."""
        return {p.weight for p in self.terms}

    def homogeneous_part(self, k: int) -> "ChowClass":
        return ChowClass(self.ring, {p: c for p, c in self.terms.items() if p.weight == k})

    def _check_ring(self, other: "ChowClass") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(f"classes live on {self.ring} and {other.ring}")

    def __add__(self, other):
        if not isinstance(other, ChowClass):
            return NotImplemented
        self._check_ring(other)
        acc = dict(self.terms)
        for p, c in other.terms.items():
            acc[p] = acc.get(p, 0) + c
        return ChowClass(self.ring, acc)

    def __sub__(self, other):
        if not isinstance(other, ChowClass):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ChowClass(self.ring, {p: -c for p, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return ChowClass(self.ring, {p: c * other for p, c in self.terms.items()})
        if isinstance(other, ChowClass):
            return multiply(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        out = self.ring.one()
        for _ in range(exponent):
            out = out * self
            if out.is_zero():
                break
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, ChowClass):
            return self.ring == other.ring and self.terms == other.terms
        return NotImplemented

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for p, c in sorted(self.terms.items()):
            name = "s" + repr(list(p.parts)) if p else "1"
            bits.append(name if c == 1 else f"{c}*{name}")
        return " + ".join(bits)

    def to_payload(self) -> list[list]:
        """Serialized form: [[parts, coefficient-as-decimal-string], ...], lex-sorted."""
        return [[list(p.parts), str(c)] for p, c in sorted(self.terms.items())]


def _is_lattice_chain(chain: list[tuple[int, ...]], rows: int) -> bool:
    """Lattice-word check for a chain of horizontal strips.

    Entries of stratum i sit in columns [chain[i-1][row], chain[i][row]);
    reading rows top to bottom, right to left, every prefix must contain at
    least as many labels i as labels i+1.
    """
    stages = len(chain) - 1
    counts = [0] * (stages + 1)
    for row in range(rows):
        for i in range(stages, 0, -1):
            for _ in range(chain[i][row] - chain[i - 1][row]):
                counts[i] += 1
                if i >= 2 and counts[i] > counts[i - 1]:
                    return False
    return True


@lru_cache(maxsize=None)
def _lr_expansion(lam: tuple[int, ...], mu: tuple[int, ...], rows: int, cols: int):
    """Expansion of sigma_lam * sigma_mu inside the rows x cols box.

    Returns a tuple of (nu_parts, coefficient) pairs.  The rule is symmetric
    in lam and mu, so callers normalize the key order before the cache.
    """
    base = Partition(lam)
    mu_p = Partition(mu)
    counts: dict[tuple[int, ...], int] = {}

    def extend(chain: list[tuple[int, ...]], stage: int) -> None:
        if stage == len(mu_p):
            if _is_lattice_chain(chain, rows):
                nu = chain[-1]
                counts[nu] = counts.get(nu, 0) + 1
            return
        shape = Partition(chain[-1])
        for nu in horizontal_strips(shape, mu_p[stage], rows, cols):
            extend(chain + [nu.padded(rows)], stage + 1)

    extend([base.padded(rows)], 0)
    return tuple(sorted(counts.items()))


def pieri(c: ChowClass, a: int) -> ChowClass:
    """Multiply by the special Schubert class sigma_a.

    Adds `a` boxes, no two in the same column, discarding shapes that leave
    the box.  a == 0 returns the class unchanged.
    """
    if a < 0:
        raise PreconditionError(f"special class index must be >= 0, got {a}")
    if a == 0:
        return c
    ring = c.ring
    acc: dict[Partition, int] = {}
    for p, coeff in c.terms.items():
        for nu in horizontal_strips(p, a, ring.rows, ring.cols):
            acc[nu] = acc.get(nu, 0) + coeff
    return ChowClass(ring, acc)


def multiply(x: ChowClass, y: ChowClass) -> ChowClass:
    """Product of two classes via the Littlewood-Richardson rule."""
    if x.ring != y.ring:
        raise RingMismatchError(f"cannot multiply classes on {x.ring} and {y.ring}")
    ring = x.ring
    acc: dict[Partition, int] = {}
    for lp, lc in x.terms.items():
        for mp, mc in y.terms.items():
            a, b = sorted((lp.parts, mp.parts))
            for nu, k in _lr_expansion(a, b, ring.rows, ring.cols):
                nu_p = Partition(nu)
                acc[nu_p] = acc.get(nu_p, 0) + lc * mc * k
    return ChowClass(ring, acc)


def _permutation_sign(perm: tuple[int, ...]) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def giambelli(lam, ring: GrassmannianRing) -> ChowClass:
    """The basis class sigma_lam as a determinant in special classes.

    Expands det(sigma_{lam_i + j - i}) by permutations, evaluating each
    monomial in special classes through iterated Pieri products.  This is an
    LR-free route to any Schubert class and doubles as the cross-check for
    `multiply`.
    """
    p = lam if isinstance(lam, Partition) else Partition(lam)
    if not ring.contains(p):
        raise PreconditionError(f"{p} does not fit the box of {ring}")
    size = len(p)
    if size == 0:
        return ring.one()
    total = ring.zero()
    for perm in permutations(range(size)):
        row_indices = [p[i] + perm[i] - i for i in range(size)]
        if any(m < 0 or m > ring.cols for m in row_indices):
            continue
        term = ring.one()
        for m in row_indices:
            term = pieri(term, m)
        total = total + _permutation_sign(perm) * term
    return total


def integrate(c: ChowClass) -> int:
    """Degree of the zero-dimensional part: the coefficient of the point class."""
    full_box = Partition((c.ring.cols,) * c.ring.rows)
    return c.terms.get(full_box, 0)


def dual_partition(lam, ring: GrassmannianRing) -> Partition:
    """Complement of the diagram in the box; the Poincare-dual index."""
    p = lam if isinstance(lam, Partition) else Partition(lam)
    if not ring.contains(p):
        raise PreconditionError(f"{p} does not fit the box of {ring}")
    padded = p.padded(ring.rows)
    return Partition(tuple(ring.cols - padded[ring.rows - 1 - i] for i in range(ring.rows)))


def universal_dual_chern(i: int, ring: GrassmannianRing) -> ChowClass:
    """i-th Chern class of the dual universal subbundle: sigma_(1,...,1).

    Zero when the column does not fit the box (point rings); an error when
    the index exceeds the bundle rank r.
    """
    if i < 0 or i > ring.r:
        raise PreconditionError(f"Chern index {i} outside 0..{ring.r} for rank-{ring.r} bundle")
    if i == 0:
        return ring.one()
    p = Partition((1,) * i)
    if not ring.contains(p):
        return ring.zero()
    return ChowClass(ring, {p: 1})
