"""Exact Chow-ring arithmetic on Grassmannians in the Schubert basis.

Classes on Gr(r, N) (r-dimensional subspaces of an N-dimensional space) are
finite integer combinations of Schubert classes indexed by partitions inside
the r x (N-r) box.  Arithmetic works on basis indices: a partition's index is
its position among the box's partitions in lexicographic order, so () is 0
and the full box is last.  There is one `GrassmannianRing` per (r, N), and
it holds its own tables, filled as partitions are first met: parts tuples
to indices and back, product expansions and horizontal strips.  Below the
API a partition is its parts tuple; `Partition` objects are built only from
outside input (`GrassmannianRing._parts_of`) and for results (`terms`,
`basis`, `dual_partition`).  Products use the Littlewood-Richardson rule.
On a box of at most three rows an LR tableau is fixed by three integers,
so the coefficients are counts of integer points (`_lr_three_rows`); a
taller box enumerates chains of horizontal strips with the lattice-word
condition.  Both rules count straight into the ring's basis indices.  Each
ring keeps one memo of products: a table of (index, coefficient)
expansions keyed by the ordered pair of basis indices, packed into one
int; a pair and its mirror share one expansion, filled once by the LR rule
(`_lr_expansion`, which keeps nothing itself) and stored by `product` as
the rule returns it; one-column classes sigma_(1^k) take the same rule.
The ring's table of horizontal strips by (parts, size) serves the LR
chains and Pieri alike, so each strip set is enumerated once.
`GrassmannianRing.sum_of_products` is the one product kernel, and
`multiply` is its one-term call.  It works in two phases: the first sums
the scaled coefficient products of all terms per product-table key,
dropping a term whole when the lowest weights of its classes sum past the
ring dimension and checking no pair, since every rule expands a pair past
the dimension to nothing; the second walks each key's expansion once into
one {index: int} dict and drops zeros once.  Only this module knows the
index storage.  Everything is exact: coefficients are plain Python
integers.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import combinations, permutations, zip_longest
from math import comb
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import PreconditionError, RingMismatchError, not_in
from .partitions import Partition, horizontal_strips, partitions_in_box, partitions_of_weight


_RINGS: dict[tuple[int, int], "GrassmannianRing"] = {}  # by (r, N); cold-cache tests clear the product tables here


class GrassmannianRing:
    """Chow ring of Gr(r, N), the r-dimensional subspaces of an N-space.

    r == N is allowed and gives a point (zero-dimensional ring), which the
    projective-bundle layer uses to model plain projective spaces.  There is
    one ring per (r, N), compared by identity, and it is the basis table of
    its rows x cols box (rows = r, cols = N - r): an index is the lex rank
    of a partition in the box, computed from its parts, so entries are added
    as partitions are first met and the box is never enumerated.  `products`
    maps the key i * size + j of indices i and j to the expansion of
    sigma_i * sigma_j, one object under both orders (an int key leaves the
    garbage collector nothing to track); `strips` maps (parts, size) to the
    in-box horizontal strips of `size` boxes on `parts`, which the LR chains
    and Pieri share.  Entries are only ever added, with the same values, so
    concurrent readers are safe.
    """

    __slots__ = ("r", "N", "rows", "cols", "dim", "size", "last",
                 "index", "parts", "weights", "products", "strips", "partition")

    def __new__(cls, r: int, N: int):
        r, N = operator.index(r), operator.index(N)
        ring = _RINGS.get((r, N))
        if ring is not None:
            return ring
        if not 0 < r <= N:
            raise PreconditionError(f"need 0 < r <= N, got Gr({r},{N})")
        ring = super().__new__(cls)
        ring.r = ring.rows = r
        ring.N = N
        ring.cols = N - r
        ring.dim = r * (N - r)
        ring.size = comb(N, r)  # the number of partitions in the box
        ring.last = ring.size - 1  # the index of the full box
        ring.index: dict[tuple[int, ...], int] = {}
        ring.parts: dict[int, tuple[int, ...]] = {}
        ring.weights: dict[int, int] = {}
        ring.products: dict[int, tuple] = {}
        ring.strips: dict[tuple[tuple[int, ...], int], tuple[tuple[int, ...], ...]] = {}
        # The interned `Partition` of an index, built the first time it is asked for.
        ring.partition = lru_cache(maxsize=None)(lambda i: Partition(ring.parts[i]))
        ring.rank(())  # index 0, the unit class
        return _RINGS.setdefault((r, N), ring)

    def __reduce__(self):
        """Copies and unpickled rings are the one ring of their (r, N)."""
        return GrassmannianRing, (self.r, self.N)

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
        """The horizontal strips of `size` boxes on `parts` in the box, enumerated once."""
        strips = self.strips.get((parts, size))
        if strips is None:
            strips = self.strips[parts, size] = tuple(horizontal_strips(parts, size, self.rows, self.cols))
        return strips

    def product(self, key: int) -> tuple:
        """The expansion of a product-table key, filled on a miss.

        The expansion is stored under the key and its mirror j * size + i
        alike, so a miss on one is a miss on both and each unordered pair is
        computed once.  Every pair takes the LR rule, whose (index,
        coefficient) expansion in index order is stored as it stands.
        A unit or one-column factor sigma_(1^k), such as c_k(U*), goes
        second, so in a taller box the column is the strip word of the chains.
        """
        i, j = sorted(divmod(key, self.size))
        lam, mu = self.parts[i], self.parts[j]
        if lam[:1] in ((), (1,)):  # the unit or a column goes second
            lam, mu = mu, lam
        expansion = _lr_expansion(lam, mu, self)
        self.products[i * self.size + j] = self.products[j * self.size + i] = expansion
        return expansion

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
        return ChowClass._trusted(self, {self.rank(self._parts_of(parts)): 1})

    def basis(self, weight: int | None = None) -> list[Partition]:
        if weight is None:
            return partitions_in_box(self.rows, self.cols)
        return partitions_of_weight(weight, self.rows, self.cols)

    def sum_of_products(self, terms: Iterable[tuple[int, "ChowClass", "ChowClass"]]) -> "ChowClass":
        """The sum of coeff * x * y over (coeff, x, y) triples of classes on this ring.

        Two phases.  The first sums coeff * a * b over every term and pair of
        basis classes by the ordered-pair key i * size + j.  A product of
        weight past the ring dimension is zero, so a term whose lowest
        weights sum past the dimension is dropped whole.  Every other term
        runs all its pairs unchecked, the shorter class outside: a pair past
        the dimension gets the empty expansion its rule returns, kept in the
        table like any other.  The second fetches or fills the expansion of
        each key with a nonzero sum once and adds it scaled, so pairs that
        share a key walk its expansion once.
        """
        products, size, room = self.products, self.size, self.dim
        pairs: dict[int, int] = {}
        get = pairs.get
        for coeff, x, y in terms:
            try:
                if x.ring is not self or y.ring is not self:
                    raise RingMismatchError(f"cannot multiply classes on {x.ring} and {y.ring} in {self}")
            except AttributeError:
                raise not_in(y if hasattr(x, "ring") else x, self) from None
            if x._lowest_weight() + y._lowest_weight() > room:
                continue
            xs, ys = x._coeffs.items(), y._coeffs.items()
            if len(xs) > len(ys):
                xs, ys = ys, xs
            for i, a in xs:
                a *= coeff
                row = i * size
                for j, b in ys:
                    key = row + j
                    pairs[key] = get(key, 0) + a * b
        acc: dict[int, int] = {}
        get = acc.get
        for key, ab in pairs.items():
            if not ab:
                continue
            expansion = products.get(key)
            if expansion is None:
                expansion = self.product(key)
            for k, m in expansion:
                acc[k] = get(k, 0) + (ab if m == 1 else ab * m)
        return ChowClass._trusted(self, {k: v for k, v in acc.items() if v})

    def __repr__(self) -> str:
        return f"Gr({self.r},{self.N})"


class ChowClass:
    """An element of a Grassmannian Chow ring in the Schubert basis.

    Coefficients are stored by basis index of the ring; the zero class
    has none.  `terms` is a read-only view keyed by `Partition`.  Instances
    are treated as immutable: all arithmetic returns new objects, so sharing
    across threads is safe.  `_low`, the lowest weight of the terms, is set
    by `_lowest_weight` on first use and kept.
    """

    __slots__ = ("ring", "_coeffs", "_low")

    def __init__(self, ring: GrassmannianRing, terms: Mapping[Partition, int]):
        clean: dict[int, int] = {}
        for p, c in terms.items():
            parts = ring._parts_of(p)
            c = operator.index(c)
            if c:
                clean[ring.rank(parts)] = c
        self.ring = ring
        self._coeffs = clean

    @classmethod
    def _trusted(cls, ring: GrassmannianRing, coeffs: dict[int, int]) -> "ChowClass":
        """A class from nonzero coefficients keyed by basis indices of `ring`."""
        out = cls.__new__(cls)
        out.ring = ring
        out._coeffs = coeffs
        return out

    def _lowest_weight(self) -> int:
        """Lowest weight of the terms; dim + 1 for the zero class, so no
        product with it passes the dimension check."""
        try:
            return self._low
        except AttributeError:
            self._low = min(self.degrees(), default=self.ring.dim + 1)
            return self._low

    @property
    def terms(self) -> Mapping[Partition, int]:
        partition = self.ring.partition
        return MappingProxyType({partition(i): c for i, c in self._coeffs.items()})

    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, parts) -> int:
        p = parts if isinstance(parts, Partition) else Partition(parts)
        if not self.ring.contains(p):
            return 0
        return self._coeffs.get(self.ring.rank(p.parts), 0)

    def degrees(self) -> set[int]:
        """Weights of the homogeneous components present."""
        weights = self.ring.weights
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
        """(c + n)^p for c the degree-0 coefficient: the sum of binom(p, j) c^(p-j) n^j
        over j <= dim, since n^(dim+1) = 0, so at most dim products for any p."""
        exponent = operator.index(exponent)
        if exponent < 0:
            raise PreconditionError(f"negative powers are not defined, got {exponent}")
        c = self._coeffs.get(0, 0)
        n = ChowClass._trusted(self.ring, {i: a for i, a in self._coeffs.items() if i})
        out = self.ring.one() * c ** exponent
        n_j = self.ring.one()
        for j in range(1, min(exponent, self.ring.dim) + 1):
            n_j = n_j * n
            if n_j.is_zero():
                break
            out = out + n_j * (comb(exponent, j) * c ** (exponent - j))
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, ChowClass):
            return self.ring == other.ring and self._coeffs == other._coeffs
        return NotImplemented

    def __repr__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = self.ring.parts
        bits = []
        for i, c in sorted(self._coeffs.items()):
            name = "s" + repr(list(parts[i])) if i else "1"
            bits.append(name if c == 1 else f"{c}*{name}")
        return " + ".join(bits)

    def to_payload(self) -> list[list]:
        """Serialized form: [[parts, coefficient-as-decimal-string], ...], lex-sorted."""
        parts = self.ring.parts
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


def _lr_three_rows(lam: tuple[int, ...], mu: tuple[int, ...], ring: GrassmannianRing) -> dict[int, int]:
    """LR coefficients c^nu_{lam, mu} in a box of at most three rows, by basis index of nu.

    Row 1 of an LR tableau (Fulton, Young Tableaux, section 5) holds only
    1s and row 2 only 1s and 2s, so with content mu a tableau is fixed by b,
    the 1s in row 1, and x and y, the 1s and 2s in row 2: row 3 then holds
    p = mu1 - b - x ones, q = mu2 - y twos and mu3 threes, and
    nu = (lam1 + b, lam2 + x + y, lam3 + p + q + mu3).  The bounds on b, x
    and y are the column-strict and lattice-word conditions: the 1s of rows
    2 and 3 sit under lam, the 2s of row 2 under lam or 1s, the 2s of row 3
    under lam or the 1s of row 2, and the reading word never has more 2s
    than 1s or more 3s than 2s.  These bounds make nu a partition:
    x <= lam1 - lam2 and y <= b give nu2 <= nu1, and
    nu2 - nu3 = [y - (mu1 + mu2 + lam3 - lam2 - b - 2x)] + [y - mu3], where
    the lower bounds on y make both brackets >= 0.  Since mu3 <= y <= b and
    x <= lam1 - lam2, no b below mu3, mu2 + lam2 - lam1 or
    mu1 + lam3 - lam1 leaves room for x and y.  Each point within the
    bounds where nu has no more parts than the ring's rows is one tableau,
    counted under the index of nu in the ring.
    """
    l1, l2, l3 = lam + (0,) * (3 - len(lam))
    m1, m2, m3 = mu + (0,) * (3 - len(mu))
    rows, index = ring.rows, ring.index
    weight = l1 + l2 + l3 + m1 + m2 + m3
    counts: dict[int, int] = {}
    b_low = m3
    if b_low < m2 + l2 - l1:
        b_low = m2 + l2 - l1
    if b_low < m1 + l3 - l1:
        b_low = m1 + l3 - l1
    b_top = ring.cols - l1
    if m1 < b_top:
        b_top = m1
    for b in range(b_low, b_top + 1):
        n1 = l1 + b
        x_low = m1 - b - l2 + l3
        if x_low < m2 - b:
            x_low = m2 - b
        if x_low < 0:
            x_low = 0
        x_top = l1 - l2
        if m1 - b < x_top:
            x_top = m1 - b
        y_top = m2 if m2 < b else b
        for x in range(x_low, x_top + 1):
            low = m1 + m2 + l3 - l2 - b - 2 * x
            if low < m3:
                low = m3
            for n2 in range(l2 + x + low, l2 + x + y_top + 1):
                n3 = weight - n1 - n2
                nu = (n1, n2, n3) if n3 else (n1, n2) if n2 else (n1,) if n1 else ()
                if len(nu) <= rows:
                    k = index.get(nu)
                    if k is None:
                        k = ring.rank(nu)
                    counts[k] = counts.get(k, 0) + 1
    return counts


def _lr_chains(lam: tuple[int, ...], mu: tuple[int, ...], ring: GrassmannianRing) -> dict[int, int]:
    """LR coefficients c^nu_{lam, mu} in the ring's box, by basis index of
    nu, from chains of horizontal strips of sizes mu1, mu2, ... out of the
    ring's strip table, checking the lattice-word condition as each is
    added and ranking each chain's last shape in the ring."""
    strips, rank = ring.horizontal, ring.rank
    counts: dict[int, int] = {}

    def extend(before: tuple[int, ...] | None, shape: tuple[int, ...], stage: int) -> None:
        if stage == len(mu):
            k = rank(shape)
            counts[k] = counts.get(k, 0) + 1
            return
        for nu in strips(shape, mu[stage]):
            if before is None or _is_lattice_step(before, shape, nu):
                extend(shape, nu, stage + 1)

    extend(None, lam, 0)
    return counts


@lru_cache(maxsize=0)
def _lr_expansion(lam: tuple[int, ...], mu: tuple[int, ...], ring: GrassmannianRing) -> tuple[tuple[int, int], ...]:
    """Expansion of sigma_lam * sigma_mu inside the box of `ring`.

    Returns the (index, coefficient) pairs in index order, which
    `GrassmannianRing.product` keeps as they stand in the ring's table, so
    this rule stores nothing: its cache of size 0 only counts the fills,
    one miss each.  Both rules count straight into the ring's basis
    indices.  A box of at most three rows counts its LR tableaux by their
    content (`_lr_three_rows`); a taller box enumerates strip chains
    (`_lr_chains`) from the ring's strip table.
    """
    counts = _lr_three_rows(lam, mu, ring) if ring.rows <= 3 else _lr_chains(lam, mu, ring)
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
    acc: dict[int, int] = {}
    for i, coeff in c._coeffs.items():
        for nu in ring.horizontal(ring.parts[i], a):
            k = ring.rank(nu)
            acc[k] = acc.get(k, 0) + coeff
    return ChowClass._trusted(ring, {k: v for k, v in acc.items() if v})


def multiply(x: ChowClass, y: ChowClass) -> ChowClass:
    """Product of two classes via the Littlewood-Richardson rule."""
    try:
        ring = x.ring
    except AttributeError:
        raise not_in(x, "a Grassmannian") from None
    return ring.sum_of_products([(1, x, y)])


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
        total = total + (-1) ** sum(s > t for s, t in combinations(perm, 2)) * term
    return total


def integrate(c: ChowClass) -> int:
    """Degree of the zero-dimensional part: the coefficient of the point class."""
    if not isinstance(c, ChowClass):
        raise PreconditionError(f"can only integrate a ChowClass, not a {type(c).__name__}")
    return c._coeffs.get(c.ring.last, 0)


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
