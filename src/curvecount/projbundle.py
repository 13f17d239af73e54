"""Chow ring of a projectivized bundle P(E) over any ambient base ring.

The base is the ambient of E's `ChernVector`: a Grassmannian Chow ring, a
`ChernRing`, or another projective bundle.  Coefficients are checked by
`chern.check_element`, and the layer reaches the base only through its
`zero`, `one`, `dim` and `sum_of_products`.

P(E) parametrizes rank-1 subspaces of E.  Writing z for the first Chern
class of the dual of the tautological subline bundle, every class is a
polynomial in z of degree < rank(E) with base-ring coefficients, and z
satisfies

    z^s + c_1(E) z^(s-1) + ... + c_s(E) = 0        (s = rank E).

Fiber integration sends z^(s-1+j) to the degree-j Segre class of E, the
inverse of the total Chern class.  Elements are kept z-reduced at all
times.  A sum of products collects every product of nonzero coefficients
as a term of its z-degree, 2s - 1 lists in all, and z-reduces from the top
down by appending the relation's products as terms; each degree is then
summed by one `sum_of_products` call of the base, so this layer never
touches the base's storage.  Over a `ChernRing` base no product is a
Schubert product: `pb_pushforward` returns a polynomial in the Chern
classes.  The conic demo and the benchmark's conic chain take this route,
on P(Sym^2 U*) over Gr(3, n+1); `pipelines.count_curves` does not, since
a line count needs no bundle and a conic count is a localization sum.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

from .chern import ChernVector, check_element
from .errors import PreconditionError, RingMismatchError
from .grassmannian import integrate


class ProjBundleRing:
    """Chow ring of P(E) for a Chern vector E over the ambient of E."""

    __slots__ = ("base", "bundle", "_relation")

    def __init__(self, bundle: ChernVector):
        if bundle.rank < 1:
            raise PreconditionError("cannot projectivize a rank-0 bundle")
        self.base = bundle.ring
        self.bundle = bundle
        # The nonzero c_j(E), j >= 1, of the relation, with their indices.
        self._relation = [(j, c) for j, c in enumerate(bundle.components[1:], 1) if not c.is_zero()]

    @property
    def fiber_rank(self) -> int:
        return self.bundle.rank

    @property
    def dim(self) -> int:
        return self.base.dim + self.fiber_rank - 1

    def zero(self) -> "ProjBundleElement":
        return ProjBundleElement(self, [])

    def one(self) -> "ProjBundleElement":
        return ProjBundleElement(self, [self.base.one()])

    def zeta(self) -> "ProjBundleElement":
        """The hyperplane class z (reduces to -c_1(E) when the fiber is a point)."""
        return ProjBundleElement(self, [self.base.zero(), self.base.one()])

    def pullback(self, c) -> "ProjBundleElement":
        return ProjBundleElement(self, [c])

    def sum_of_products(
        self, terms: Iterable[tuple[int, "ProjBundleElement", "ProjBundleElement"]]
    ) -> "ProjBundleElement":
        """The sum of coeff * x * y over (coeff, x, y) triples, z-reduced once.

        Each product of two nonzero coefficients becomes a base term in the
        list of its z-degree; zero coefficients add no term.
        """
        raw: list[list] = [[] for _ in range(2 * self.fiber_rank - 1)]
        for coeff, x, y in terms:
            if x.ring != self or y.ring != self:
                raise RingMismatchError("elements live on different projective bundles")
            if not coeff:
                continue
            for i, a in enumerate(x.coeffs):
                if not a.is_zero():
                    for j, b in enumerate(y.coeffs):
                        if not b.is_zero():
                            raw[i + j].append((coeff, a, b))
        return ProjBundleElement._trusted(self, self._reduce(raw))

    def _reduce(self, raw: list[list]) -> tuple:
        """The fiber_rank z-reduced coefficients of the sum of raw[i] z^i.

        raw[i] is a list of (coeff, x, y) product terms on the base and is
        consumed: the relation z^s = -(c_1 z^(s-1) + ... + c_s) folds each
        degree from the top down into the s degrees below it, as terms.
        """
        s = self.fiber_rank
        raw += [[] for _ in range(s - len(raw))]
        for i in range(len(raw) - 1, s - 1, -1):
            top = self.base.sum_of_products(raw[i])
            if not top.is_zero():
                for j, c in self._relation:
                    raw[i - j].append((-1, top, c))
        return tuple(self.base.sum_of_products(terms) for terms in raw[:s])

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if isinstance(other, ProjBundleRing):
            return self.base == other.base and self.bundle == other.bundle
        return NotImplemented

    def __repr__(self) -> str:
        return f"P(rank-{self.fiber_rank} bundle over {self.base})"


class ProjBundleElement:
    """A z-reduced polynomial in the hyperplane class with base coefficients."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: ProjBundleRing, coeffs: Sequence):
        one = ring.base.one()
        raw = []
        for a in coeffs:
            check_element(a, ring.base, "coefficient")
            raw.append([] if a.is_zero() else [(1, a, one)])
        self.ring = ring
        self.coeffs = ring._reduce(raw)

    @classmethod
    def _trusted(cls, ring: ProjBundleRing, coeffs: tuple) -> "ProjBundleElement":
        """An element from exactly fiber_rank z-reduced coefficients on the base of `ring`."""
        out = cls.__new__(cls)
        out.ring = ring
        out.coeffs = coeffs
        return out

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.coeffs)

    def degrees(self) -> set[int]:
        """Total degrees present (base degree plus z-exponent)."""
        out: set[int] = set()
        for i, a in enumerate(self.coeffs):
            out |= {w + i for w in a.degrees()}
        return out

    def _check_ring(self, other: "ProjBundleElement") -> None:
        if self.ring != other.ring:
            raise RingMismatchError("elements live on different projective bundles")

    def __add__(self, other):
        if not isinstance(other, ProjBundleElement):
            return NotImplemented
        self._check_ring(other)
        return ProjBundleElement._trusted(self.ring, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if not isinstance(other, ProjBundleElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ProjBundleElement._trusted(self.ring, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return ProjBundleElement._trusted(self.ring, tuple(a * other for a in self.coeffs))
        if isinstance(other, ProjBundleElement):
            return pb_multiply(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int):
        """Square and multiply, about 2 log2(p) products for any base; once a
        square vanishes, every later factor does too, so the power is zero."""
        exponent = operator.index(exponent)
        if exponent < 0:
            raise PreconditionError(f"negative powers are not defined, got {exponent}")
        out, square = self.ring.one(), self
        while exponent:
            if exponent & 1:
                out = out * square
            exponent >>= 1
            if exponent:
                square = square * square
                if square.is_zero():
                    return self.ring.zero()
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, ProjBundleElement):
            return self.ring == other.ring and self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self) -> str:
        bits = [f"({a})*z^{i}" for i, a in enumerate(self.coeffs) if not a.is_zero()]
        return " + ".join(bits) if bits else "0"


def pb_multiply(x: ProjBundleElement, y: ProjBundleElement) -> ProjBundleElement:
    """Product in the projective-bundle ring, reduced to canonical form."""
    return x.ring.sum_of_products([(1, x, y)])


def pb_pushforward(x: ProjBundleElement):
    """Fiber integration to the base: a_i z^i maps to a_i * s_(i - (s-1))(E).

    A z-reduced element has no power of z above s - 1, so only its z^(s-1)
    coefficient survives, times s_0(E) = 1.
    """
    return x.coeffs[-1]


def pb_integrate(x: ProjBundleElement) -> int:
    """Integral over the total space: push to the base, then take the degree.

    The base must be a Grassmannian; push down from any other base, map the
    class to one, and integrate it there.
    """
    return integrate(pb_pushforward(x))


def pullback_vector(ring: ProjBundleRing, c: ChernVector) -> ChernVector:
    """Pull a Chern vector on the base up to the projective bundle; its
    components are normal on the base, so each is a z^0 coefficient as it stands."""
    if c.ring != ring.base:
        raise RingMismatchError(f"vector on {c.ring} is not defined over the base {ring.base}")
    zeros = (ring.base.zero(),) * (ring.fiber_rank - 1)
    comps = [ProjBundleElement._trusted(ring, (comp,) + zeros) for comp in c.components]
    return ChernVector(ring, c.rank, comps)
