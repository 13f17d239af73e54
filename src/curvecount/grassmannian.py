"""Exact Chow-ring arithmetic on Grassmannians in the Schubert basis.

Classes on Gr(r, N) (r-dimensional subspaces of an N-dimensional space) are
finite integer combinations of Schubert classes indexed by partitions inside
the r x (N-r) box.  Arithmetic works on basis indices: a partition's index is
its position among the box's partitions in lexicographic order, so () is 0
and the full box is last.  Each box has one table, filled as partitions are
first met, that maps parts tuples to indices and back.  Below the API a
partition is its parts tuple; `Partition` objects are built only from
outside input (`GrassmannianRing._parts_of`) and for results (`terms`,
`basis`, `dual_partition`).  Products use the Littlewood-Richardson rule,
computed by enumerating chains of horizontal strips with the lattice-word
condition; the expansion of each sorted pair of partitions in a box is
memoized as (index, coefficient) pairs, and each box keeps a table of those
expansions keyed by the sorted pair of basis indices, packed into one int.
Each box also keeps a table of horizontal strips by (parts, size), which
the LR chains and Pieri share, so each strip set is enumerated once.
A product with a one-column class sigma_(1^k) skips the LR memo: the dual
Pieri rule fills its table entry from the vertical strips.
`GrassmannianRing.sum_of_products` is the one product kernel, and
`multiply` is its one-term call.  It works in two phases: the first sums
the scaled coefficient products of all terms per product-table key, the
second walks each key's expansion once into one {index: int} dict and
drops zeros once.  Only this module knows the index storage.  Everything
is exact: coefficients are plain Python integers.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import permutations, zip_longest
from math import comb
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import PreconditionError, RingMismatchError
from .partitions import Partition, horizontal_strips, partitions_in_box, partitions_of_weight, vertical_strips


class _Box:
    """Basis table of the rows x cols box: parts and weight by index.

    An index is the lexicographic rank of the partition among all partitions
    in the box, computed from the parts alone, so entries are added as
    partitions are first met and the box is never enumerated.  `products`
    maps the key i * size + j of an index pair i <= j to the expansion of
    sigma_i * sigma_j; an int key, unlike a tuple, leaves the garbage
    collector nothing to track.  `strips` maps (parts, size) to the tuple of
    parts of each in-box nu with nu/parts a horizontal strip of `size`
    boxes, so the LR chains and Pieri enumerate each strip set once per box.
    Entries are only ever added, with the same values, so concurrent readers
    are safe.
    """

    __slots__ = ("rows", "cols", "size", "last", "index", "parts", "weights", "products", "strips", "partition")

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        self.size = comb(rows + cols, rows)  # the number of partitions in the box
        self.last = self.size - 1  # the index of the full box
        self.index: dict[tuple[int, ...], int] = {}
        self.parts: dict[int, tuple[int, ...]] = {}
        self.weights: dict[int, int] = {}
        self.products: dict[int, tuple] = {}
        self.strips: dict[tuple[tuple[int, ...], int], tuple[tuple[int, ...], ...]] = {}
        # The interned `Partition` of an index, built the first time it is asked for.
        self.partition = lru_cache(maxsize=None)(lambda i: Partition(self.parts[i]))
        self.rank(())  # index 0, the unit class

    def rank(self, parts: tuple[int, ...]) -> int:
        """Index of an in-box partition, given its parts without trailing zeros.

        Partitions below it in lex order first differ from it at some row i,
        holding a value v < parts[i] there over rows - 1 - i rows of parts at
        most v; summing binom(rows - 1 - i + v, v) over v < parts[i] gives
        binom(rows - 1 - i + parts[i], parts[i] - 1).
        """
        i = self.index.get(parts)
        if i is None:
            i = sum(comb(self.rows - 1 - row + p, p - 1) for row, p in enumerate(parts))
            self.parts[i] = parts
            self.weights[i] = sum(parts)
            self.index[parts] = i
        return i

    def horizontal(self, parts: tuple[int, ...], size: int) -> tuple[tuple[int, ...], ...]:
        """The horizontal strips of `size` boxes on `parts` in this box, enumerated once."""
        strips = self.strips.get((parts, size))
        if strips is None:
            strips = self.strips[parts, size] = tuple(horizontal_strips(parts, size, self.rows, self.cols))
        return strips

    def product(self, key: int) -> tuple:
        """The expansion of a product-table key, filled on a miss.

        A one-column factor sigma_(1^k), such as c_k(U*), takes the dual Pieri
        rule: one term of coefficient 1 per vertical strip.  Any other pair
        goes to the LR memo.
        """
        i, j = divmod(key, self.size)
        lam, mu = self.parts[i], self.parts[j]
        if lam[:1] in ((), (1,)):  # the unit or a column goes second
            lam, mu = mu, lam
        if mu[:1] in ((), (1,)):
            strips = vertical_strips(lam, len(mu), self.rows, self.cols)
            expansion = tuple(sorted((self.rank(nu), 1) for nu in strips))
        else:
            expansion = _lr_expansion(lam, mu, self.rows, self.cols)
        self.products[key] = expansion
        return expansion


_BOXES: dict[tuple[int, int], _Box] = {}  # by (rows, cols); cold-cache tests clear the product tables here


def _box(rows: int, cols: int) -> _Box:
    """The one table of the rows x cols box."""
    return _BOXES.get((rows, cols)) or _BOXES.setdefault((rows, cols), _Box(rows, cols))


class GrassmannianRing:
    """Chow ring of Gr(r, N), the r-dimensional subspaces of an N-space.

    r == N is allowed and gives a point (zero-dimensional ring), which the
    projective-bundle layer uses to model plain projective spaces.
    """

    __slots__ = ("r", "N", "box")

    def __init__(self, r: int, N: int):
        if not 0 < r <= N:
            raise PreconditionError(f"need 0 < r <= N, got Gr({r},{N})")
        self.r = r
        self.N = N
        self.box = _box(r, N - r)

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

    def _parts_of(self, lam) -> tuple[int, ...]:
        """Parts of a `Partition` or iterable of parts, checked to fit the box."""
        p = lam if isinstance(lam, Partition) else Partition(lam)
        if not self.contains(p):
            raise PreconditionError(f"{p} does not fit the box of {self}")
        return p.parts

    def zero(self) -> "ChowClass":
        return ChowClass._trusted(self, {})

    def one(self) -> "ChowClass":
        return ChowClass._trusted(self, {0: 1})

    def sigma(self, parts: Iterable[int]) -> "ChowClass":
        """The Schubert basis class for the given partition."""
        return ChowClass._trusted(self, {self.box.rank(self._parts_of(parts)): 1})

    def basis(self, weight: int | None = None) -> list[Partition]:
        if weight is None:
            return partitions_in_box(self.rows, self.cols)
        return partitions_of_weight(weight, self.rows, self.cols)

    def sum_of_products(self, terms: Iterable[tuple[int, "ChowClass", "ChowClass"]]) -> "ChowClass":
        """The sum of coeff * x * y over (coeff, x, y) triples of classes on this ring.

        Two phases.  The first sums coeff * a * b over every term and pair of
        basis classes by product-table key, skipping a pair whose weights sum
        past the ring dimension before any lookup.  The second fetches or
        fills the expansion of each key with a nonzero sum once and adds it
        scaled, so pairs that share a key walk its expansion once.
        """
        box = self.box
        weights, products, size = box.weights, box.products, box.size
        room = self.dim
        pairs: dict[int, int] = {}
        get = pairs.get
        for coeff, x, y in terms:
            # Identity first: the usual operands cost no __eq__ call.
            if (x.ring is not self or y.ring is not self) and (x.ring != self or y.ring != self):
                raise RingMismatchError(f"cannot multiply classes on {x.ring} and {y.ring} in {self}")
            if not coeff:
                continue
            ys = y._coeffs.items()
            for i, a in x._coeffs.items():
                left = room - weights[i]
                a *= coeff
                row = i * size
                for j, b in ys:
                    if weights[j] > left:
                        continue
                    key = row + j if i <= j else j * size + i
                    pairs[key] = get(key, 0) + a * b
        acc: dict[int, int] = {}
        get = acc.get
        for key, ab in pairs.items():
            if not ab:
                continue
            expansion = products.get(key)
            if expansion is None:
                expansion = box.product(key)
            for k, m in expansion:
                acc[k] = get(k, 0) + (ab if m == 1 else ab * m)
        return ChowClass._trusted(self, {k: v for k, v in acc.items() if v})

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if isinstance(other, GrassmannianRing):
            return (self.r, self.N) == (other.r, other.N)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.r, self.N))

    def __repr__(self) -> str:
        return f"Gr({self.r},{self.N})"


class ChowClass:
    """An element of a Grassmannian Chow ring in the Schubert basis.

    Coefficients are stored by basis index of the ring's box; the zero class
    has none.  `terms` is a read-only view keyed by `Partition`.  Instances
    are treated as immutable: all arithmetic returns new objects, so sharing
    across threads is safe.
    """

    __slots__ = ("ring", "_coeffs")

    def __init__(self, ring: GrassmannianRing, terms: Mapping[Partition, int]):
        clean: dict[int, int] = {}
        for p, c in terms.items():
            parts = ring._parts_of(p)
            c = operator.index(c)
            if c:
                clean[ring.box.rank(parts)] = c
        self.ring = ring
        self._coeffs = clean

    @classmethod
    def _trusted(cls, ring: GrassmannianRing, coeffs: dict[int, int]) -> "ChowClass":
        """A class from nonzero coefficients keyed by basis indices of `ring`."""
        out = cls.__new__(cls)
        out.ring = ring
        out._coeffs = coeffs
        return out

    @property
    def terms(self) -> Mapping[Partition, int]:
        partition = self.ring.box.partition
        return MappingProxyType({partition(i): c for i, c in self._coeffs.items()})

    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, parts) -> int:
        p = parts if isinstance(parts, Partition) else Partition(parts)
        if not self.ring.contains(p):
            return 0
        return self._coeffs.get(self.ring.box.rank(p.parts), 0)

    def degrees(self) -> set[int]:
        """Weights of the homogeneous components present."""
        weights = self.ring.box.weights
        return {weights[i] for i in self._coeffs}

    def _check_ring(self, other: "ChowClass") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(f"classes live on {self.ring} and {other.ring}")

    def __add__(self, other):
        if not isinstance(other, ChowClass):
            return NotImplemented
        self._check_ring(other)
        acc = dict(self._coeffs)
        for i, c in other._coeffs.items():
            c += acc.get(i, 0)
            if c:
                acc[i] = c
            else:
                del acc[i]
        return ChowClass._trusted(self.ring, acc)

    def __sub__(self, other):
        if not isinstance(other, ChowClass):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ChowClass._trusted(self.ring, {i: -c for i, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return self.ring.zero()
            return ChowClass._trusted(self.ring, {i: c * other for i, c in self._coeffs.items()})
        if isinstance(other, ChowClass):
            return multiply(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise PreconditionError(f"negative powers are not defined, got {exponent}")
        out = self.ring.one()
        for _ in range(exponent):
            out = out * self
            if out.is_zero():
                break
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, ChowClass):
            return self.ring == other.ring and self._coeffs == other._coeffs
        return NotImplemented

    def __repr__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = self.ring.box.parts
        bits = []
        for i, c in sorted(self._coeffs.items()):
            name = "s" + repr(list(parts[i])) if i else "1"
            bits.append(name if c == 1 else f"{c}*{name}")
        return " + ".join(bits)

    def to_payload(self) -> list[list]:
        """Serialized form: [[parts, coefficient-as-decimal-string], ...], lex-sorted."""
        parts = self.ring.box.parts
        return [[list(parts[i]), str(c)] for i, c in sorted(self._coeffs.items())]


def _is_lattice_step(before: tuple[int, ...], shape: tuple[int, ...], nu: tuple[int, ...]) -> bool:
    """Lattice-word check between two consecutive strata of a strip chain.

    The earlier stratum fills columns [before[row], shape[row]) of each row
    and the later one [shape[row], nu[row]).  Reading rows top to bottom and
    each right to left, a row's later entries come before its earlier ones,
    so the later label may never outnumber the earlier one counted over the
    rows above.  A chain is lattice exactly when every consecutive pair is,
    so the check runs as each stratum is added.
    """
    earlier = later = 0
    for b, s, n in zip_longest(before, shape, nu, fillvalue=0):
        later += n - s
        if later > earlier:
            return False
        earlier += s - b
    return True


@lru_cache(maxsize=None)
def _lr_expansion(lam: tuple[int, ...], mu: tuple[int, ...], rows: int, cols: int):
    """Expansion of sigma_lam * sigma_mu inside the rows x cols box.

    Returns a tuple of (nu index, coefficient) pairs in index order, with
    indices into the box table of `_box(rows, cols)`.  The rule is symmetric
    in lam and mu, so callers normalize the key order before the cache.
    """
    box = _box(rows, cols)
    strips = box.horizontal
    counts: dict[tuple[int, ...], int] = {}

    def extend(before: tuple[int, ...] | None, shape: tuple[int, ...], stage: int) -> None:
        if stage == len(mu):
            counts[shape] = counts.get(shape, 0) + 1
            return
        for nu in strips(shape, mu[stage]):
            if before is None or _is_lattice_step(before, shape, nu):
                extend(shape, nu, stage + 1)

    extend(None, lam, 0)
    rank = box.rank
    return tuple(sorted((rank(nu), k) for nu, k in counts.items()))


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
    box = ring.box
    acc: dict[int, int] = {}
    for i, coeff in c._coeffs.items():
        for nu in box.horizontal(box.parts[i], a):
            k = box.rank(nu)
            acc[k] = acc.get(k, 0) + coeff
    return ChowClass._trusted(ring, {k: v for k, v in acc.items() if v})


def multiply(x: ChowClass, y: ChowClass) -> ChowClass:
    """Product of two classes via the Littlewood-Richardson rule."""
    return x.ring.sum_of_products([(1, x, y)])


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
    p = ring._parts_of(lam)
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
    if not isinstance(c, ChowClass):
        raise PreconditionError(f"can only integrate a ChowClass, not a {type(c).__name__}")
    return c._coeffs.get(c.ring.box.last, 0)


def dual_partition(lam, ring: GrassmannianRing) -> Partition:
    """Complement of the diagram in the box; the Poincare-dual index."""
    p = ring._parts_of(lam)
    return Partition((ring.cols,) * (ring.rows - len(p)) + tuple(ring.cols - q for q in reversed(p)))


def universal_dual_chern(i: int, ring: GrassmannianRing) -> ChowClass:
    """i-th Chern class of the dual universal subbundle: sigma_(1,...,1).

    Zero when the column does not fit the box (point rings); an error when
    the index exceeds the bundle rank r.
    """
    if i < 0 or i > ring.r:
        raise PreconditionError(f"Chern index {i} outside 0..{ring.r} for rank-{ring.r} bundle")
    if i and not ring.cols:
        return ring.zero()
    return ring.sigma((1,) * i)
