"""Chow ring of a projectivized bundle P(E) over a Grassmannian base.

P(E) parametrizes rank-1 subspaces of E.  Writing z for the first Chern
class of the dual of the tautological subline bundle, every class is a
polynomial in z of degree < rank(E) with base-ring coefficients, and z
satisfies

    z^s + c_1(E) z^(s-1) + ... + c_s(E) = 0        (s = rank E).

Fiber integration sends z^(s-1+j) to the degree-j Segre class of E, the
inverse of the total Chern class.  Elements are kept z-reduced at all
times, so reduction is interleaved with multiplication.
"""

from __future__ import annotations

from typing import Sequence

from .chern import ChernVector, segre_from_chern
from .errors import PreconditionError, RingMismatchError
from .grassmannian import ChowClass, GrassmannianRing, integrate


class ProjBundleRing:
    """Chow ring of P(E) for a Chern vector E over a Grassmannian base."""

    __slots__ = ("base", "bundle", "_chern", "_segre")

    def __init__(self, bundle: ChernVector):
        if not isinstance(bundle.ring, GrassmannianRing):
            raise PreconditionError("projective bundles are supported over Grassmannian bases")
        if bundle.rank < 1:
            raise PreconditionError("cannot projectivize a rank-0 bundle")
        self.base = bundle.ring
        self.bundle = bundle
        self._chern = [bundle.component(i) for i in range(bundle.rank + 1)]
        self._segre = segre_from_chern(bundle, self.base.dim)

    @property
    def fiber_rank(self) -> int:
        return self.bundle.rank

    @property
    def dim(self) -> int:
        return self.base.dim + self.fiber_rank - 1

    def chern(self, j: int) -> ChowClass:
        if j < 0 or j > self.fiber_rank:
            return self.base.zero()
        return self._chern[j]

    def segre(self, j: int) -> ChowClass:
        if j < 0:
            return self.base.zero()
        if j >= len(self._segre):
            return self.base.zero()
        return self._segre[j]

    def zero(self) -> "ProjBundleElement":
        return ProjBundleElement(self, [])

    def one(self) -> "ProjBundleElement":
        return ProjBundleElement(self, [self.base.one()])

    def zeta(self) -> "ProjBundleElement":
        """The hyperplane class z (reduces to -c_1(E) when the fiber is a point)."""
        return ProjBundleElement(self, [self.base.zero(), self.base.one()])

    def pullback(self, c: ChowClass) -> "ProjBundleElement":
        if c.ring != self.base:
            raise RingMismatchError(f"class on {c.ring} is not a class on the base {self.base}")
        return ProjBundleElement(self, [c])

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

    def __init__(self, ring: ProjBundleRing, coeffs: Sequence[ChowClass]):
        s = ring.fiber_rank
        raw = list(coeffs)
        for a in raw:
            if a.ring != ring.base:
                raise RingMismatchError("coefficients must be classes on the base")
        # Apply the defining relation until the z-degree is below the rank.
        while len(raw) > s:
            top = raw.pop()
            if top.is_zero():
                continue
            i = len(raw)
            for j in range(1, s + 1):
                raw[i - j] = raw[i - j] - top * ring.chern(j)
        raw += [ring.base.zero()] * (s - len(raw))
        self.ring = ring
        self.coeffs = tuple(raw)

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
        return ProjBundleElement(
            self.ring, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        if not isinstance(other, ProjBundleElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ProjBundleElement(self.ring, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return ProjBundleElement(self.ring, [a * other for a in self.coeffs])
        if isinstance(other, ProjBundleElement):
            return pb_multiply(self, other)
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
        if isinstance(other, ProjBundleElement):
            return self.ring == other.ring and self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self) -> str:
        bits = [f"({a})*z^{i}" for i, a in enumerate(self.coeffs) if not a.is_zero()]
        return " + ".join(bits) if bits else "0"

    def to_payload(self) -> list[list]:
        """Serialized form: [[z-exponent, serialized base class], ...]."""
        return [[i, a.to_payload()] for i, a in enumerate(self.coeffs) if not a.is_zero()]


def pb_multiply(x: ProjBundleElement, y: ProjBundleElement) -> ProjBundleElement:
    """Product in the projective-bundle ring, reduced to canonical form."""
    if x.ring != y.ring:
        raise RingMismatchError("elements live on different projective bundles")
    ring = x.ring
    s = ring.fiber_rank
    raw = [ring.base.zero() for _ in range(2 * s - 1)]
    for i, a in enumerate(x.coeffs):
        if a.is_zero():
            continue
        for j, b in enumerate(y.coeffs):
            if b.is_zero():
                continue
            raw[i + j] = raw[i + j] + a * b
    return ProjBundleElement(ring, raw)


def pb_pushforward(x: ProjBundleElement) -> ChowClass:
    """Fiber integration to the base: a_i z^i maps to a_i * s_(i - (s-1))(E)."""
    ring = x.ring
    s = ring.fiber_rank
    acc = ring.base.zero()
    for i, a in enumerate(x.coeffs):
        j = i - (s - 1)
        if j < 0 or a.is_zero():
            continue
        acc = acc + a * ring.segre(j)
    return acc


def pb_integrate(x: ProjBundleElement) -> int:
    """Integral over the total space: push to the base, then take the degree."""
    return integrate(pb_pushforward(x))


def pullback_vector(ring: ProjBundleRing, c: ChernVector) -> ChernVector:
    """Pull a Chern vector on the base up to the projective bundle."""
    if c.ring != ring.base:
        raise RingMismatchError(f"vector on {c.ring} is not defined over the base {ring.base}")
    comps = [ring.pullback(comp) for comp in c.components]
    return ChernVector(ring, c.rank, comps)
