"""Symmetric polynomials over the integers, and the elementary-basis rewrite.

The splitting principle reduces every characteristic-class formula to
symmetric-function algebra in formal root variables.  This module supplies
the exact kernel for that: sparse integer polynomials, and the rewrite of a
symmetric polynomial as a polynomial in the elementary symmetric functions
e_1..e_r by repeated lexicographic leading-term elimination.  Monomials are
stored packed into ints; only this module knows that layout, and
`sum_of_products` is its one product kernel: `SymmetricPoly.mul_truncated`
is its one-term call, and `chern.ChernRing` calls it directly.  A
polynomial in e_1..e_r (the layout of `elementary_ring_poly`) goes to any
other ring through one kernel, `elementary_substitution`, the ring map
e_i -> values[i], which reads the packed keys as they stand; the
elementary-basis rewrite takes each e-monomial's expansion in the variables
from it too, with e_i -> e_i.  `sym_power_newton` builds the e_k of the
forms m.x, |m| = d, in three variables from their power sums, with no
rewrite: each is a sum of monomial symmetric functions, each a product of
power sums of x times a shift by e_3.  Tables kept between calls are
`functools` caches.
"""

from __future__ import annotations

import functools
import operator
from itertools import combinations
from math import comb
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InternalCheckError, RingMismatchError, not_in

Exponents = tuple[int, ...]

FIELD_BITS = 16  # width of each packed exponent field
DEGREE_LIMIT = 1 << FIELD_BITS  # total degrees must stay below this
_FIELD_MASK = DEGREE_LIMIT - 1


def _pack(e: Exponents, degree: int | None = None) -> int:
    """One int for the monomial x^e: the degree (sum(e) by default), then e[0], ..., e[-1], low last."""
    degree = sum(e) if degree is None else degree
    if min(e, default=0) < 0:
        raise ValueError(f"negative exponent in {tuple(e)}")
    if degree >= DEGREE_LIMIT:
        raise OverflowError(f"monomial degree {degree} does not fit {FIELD_BITS}-bit exponent fields")
    key = degree
    for a in e:
        key = (key << FIELD_BITS) | a
    return key


def _unpack(key: int, nvars: int) -> Exponents:
    out = [0] * nvars
    for i in range(nvars - 1, -1, -1):
        out[i] = key & _FIELD_MASK
        key >>= FIELD_BITS
    return tuple(out)


class SymmetricPoly:
    """Sparse integer polynomial in `nvars` formal variables.

    Each monomial is stored as one int (Kronecker substitution): its total
    degree in the top field, then its exponents in FIELD_BITS-bit fields.
    A monomial product is then one addition, a degree bound one comparison,
    and int order is graded lex order.  `terms` is a read-only view keyed by
    exponent tuples.  Construction does not force symmetry;
    `reduce_to_elementary` rejects non-symmetric input when the elimination
    gets stuck on a non-dominant leading term.
    """

    __slots__ = ("nvars", "_packed")

    def __init__(self, nvars: int, terms: Mapping[Exponents, int] | None = None):
        self.nvars = nvars
        clean: dict[int, int] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise ValueError(f"exponent tuple {e} does not have {nvars} entries")
                c = operator.index(c)
                if c:
                    clean[_pack(e)] = c
        self._packed = clean

    @classmethod
    def _trusted(cls, nvars: int, packed: dict[int, int]) -> "SymmetricPoly":
        """A polynomial from nonzero coefficients keyed by packed monomials."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out._packed = packed
        return out

    @classmethod
    def constant(cls, nvars: int, c: int) -> "SymmetricPoly":
        return cls._trusted(nvars, {0: c} if c else {})

    @classmethod
    def linear_form(cls, coeffs: tuple[int, ...], unit: int = 0) -> "SymmetricPoly":
        """The form unit + sum(coeffs[i] * x_i)."""
        n = len(coeffs)
        terms = {(0,) * n: unit} if unit else {}
        for i, m in enumerate(coeffs):
            if m:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = m
        return cls(n, terms)

    @property
    def terms(self) -> Mapping[Exponents, int]:
        return MappingProxyType({_unpack(k, self.nvars): c for k, c in self._packed.items()})

    def is_zero(self) -> bool:
        return not self._packed

    def degree(self) -> int:
        return max(self._packed) >> (FIELD_BITS * self.nvars) if self._packed else 0

    def degrees(self) -> set[int]:
        """The degrees of the homogeneous components present."""
        shift = FIELD_BITS * self.nvars
        return {k >> shift for k in self._packed}

    def graded(self, top: int) -> tuple["SymmetricPoly", ...]:
        """The homogeneous components of degree 0..top."""
        parts: list[dict[int, int]] = [{} for _ in range(top + 1)]
        for k, c in self._packed.items():
            parts[k >> FIELD_BITS * self.nvars][k] = c
        return tuple(SymmetricPoly._trusted(self.nvars, part) for part in parts)

    def __add__(self, other):
        if not isinstance(other, SymmetricPoly) or other.nvars != self.nvars:
            return NotImplemented
        acc = dict(self._packed)
        for e, c in other._packed.items():
            c += acc.get(e, 0)
            if c:
                acc[e] = c
            else:
                del acc[e]
        return SymmetricPoly._trusted(self.nvars, acc)

    def __neg__(self):
        return SymmetricPoly._trusted(self.nvars, {e: -c for e, c in self._packed.items()})

    def __sub__(self, other):
        if not isinstance(other, SymmetricPoly) or other.nvars != self.nvars:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return SymmetricPoly(self.nvars)
            return SymmetricPoly._trusted(self.nvars, {e: c * other for e, c in self._packed.items()})
        if isinstance(other, SymmetricPoly) and other.nvars == self.nvars:
            return self.mul_truncated(other, None)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def mul_truncated(self, other: "SymmetricPoly", max_degree: int | None) -> "SymmetricPoly":
        """Product, discarding monomials of total degree above `max_degree`."""
        top = self.degree() + other.degree()
        if max_degree is not None and max_degree < top:
            top = max_degree
        return sum_of_products(self.nvars, [(1, self, other)], top)

    def __eq__(self, other) -> bool:
        if isinstance(other, SymmetricPoly):
            return self.nvars == other.nvars and self._packed == other._packed
        return NotImplemented

    def __repr__(self) -> str:
        if not self._packed:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(f"x{i}^{a}" if a > 1 else f"x{i}" for i, a in enumerate(e) if a)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def sum_of_products(nvars: int, terms: Iterable[tuple[int, SymmetricPoly, SymmetricPoly]], top: int) -> SymmetricPoly:
    """The sum of coeff * x * y over (coeff, x, y) triples of polynomials in
    `nvars` variables, discarding monomials of degree above `top`.

    A packed sum is exact while its degree fits the exponent fields, and
    the degree bound becomes one bound on packed keys: a key below `limit`
    has degree at most `top`, so with the terms of y in key order the inner
    loop stops at the first key past it.  Every product adds into one dict,
    and zeros are dropped once at the end.  Raises OverflowError when a
    kept product could overflow a field.
    """
    if top >= DEGREE_LIMIT:
        raise OverflowError(f"product degree {top} does not fit {FIELD_BITS}-bit exponent fields")
    limit = (top + 1) << (FIELD_BITS * nvars)
    acc: dict[int, int] = {}
    get = acc.get
    for coeff, x, y in terms:
        try:
            if x.nvars != nvars or y.nvars != nvars:
                bad = x.nvars if x.nvars != nvars else y.nvars
                raise RingMismatchError(f"cannot multiply a polynomial in {bad} variables in a ring of {nvars}")
        except AttributeError:
            raise not_in(y if hasattr(x, "nvars") else x, f"a ring in {nvars} variables") from None
        right = sorted(y._packed.items())
        for k1, c1 in x._packed.items():
            c1 *= coeff
            for k2, c2 in right:
                k = k1 + k2
                if k >= limit:
                    break
                acc[k] = get(k, 0) + c1 * c2
    return SymmetricPoly._trusted(nvars, {k: c for k, c in acc.items() if c})


def elementary(nvars: int, k: int) -> SymmetricPoly:
    """The k-th elementary symmetric polynomial e_k in `nvars` variables."""
    if k < 0 or k > nvars:
        return SymmetricPoly(nvars)
    terms: dict[Exponents, int] = {}
    for subset in combinations(range(nvars), k):
        e = [0] * nvars
        for i in subset:
            e[i] = 1
        terms[tuple(e)] = 1
    return SymmetricPoly(nvars, terms)


def elementary_ring_poly(nvars: int, epoly: Mapping[Exponents, int]) -> SymmetricPoly:
    """An e-polynomial {(a_1, ..., a_r): c} as a packed polynomial in e_1..e_r.

    Each key carries the weighted degree sum(i * a_i), the degree in the
    roots, in its degree field, so `mul_truncated` truncates by that degree.
    Every a_i is at most the weighted degree, so the fields add exactly
    wherever the degree check of `mul_truncated` passes.
    """
    return SymmetricPoly._trusted(
        nvars, {_pack(e, sum(i * a for i, a in enumerate(e, 1))): c for e, c in epoly.items() if c}
    )


def elementary_substitution(values: Sequence, zero) -> Callable[[SymmetricPoly], object]:
    """The ring map e_i -> values[i] on e-polynomials in len(values) - 1
    variables in the layout of `elementary_ring_poly`, into a ring with one
    values[0] and zero `zero`.  The map memoizes each e-monomial's image by
    packed key; a missing one is built, by a loop rather than recursion, as
    its predecessor times values[i] for the last e_i present, the one in the
    lowest nonzero field j, and singles[j] is the key of that e_i alone.
    `image.monomial(key)` is the shared image of one e-monomial by its key."""
    nvars = len(values) - 1
    singles = [((nvars - j) << FIELD_BITS * nvars) | (1 << FIELD_BITS * j) for j in range(nvars)]
    memo = {0: values[0], **{key: values[nvars - j] for j, key in enumerate(singles)}}

    def monomial(key: int):
        chain = []
        while key not in memo:
            j = ((key & -key).bit_length() - 1) // FIELD_BITS
            chain.append((key, values[nvars - j]))
            key -= singles[j]
        term = memo[key]
        for key, factor in reversed(chain):
            term = memo[key] = term * factor
        return term

    def image(p: SymmetricPoly):
        if p.nvars != nvars:
            raise RingMismatchError(f"cannot map a polynomial in {p.nvars} variables by e_1..e_{nvars}")
        acc = zero
        for key, coeff in p._packed.items():
            acc = acc + monomial(key) * coeff
        return acc

    image.monomial = monomial
    return image


def _divided(p: SymmetricPoly, n: int) -> SymmetricPoly:
    """p / n, which must be exact: a remainder raises InternalCheckError."""
    out = {}
    for key, c in p._packed.items():
        out[key], rest = divmod(c, n)
        if rest:
            raise InternalCheckError(f"coefficient {c} is not divisible by {n}")
    return SymmetricPoly._trusted(p.nvars, out)


@functools.lru_cache(maxsize=1)
def _two_part_monomials(top: int) -> list[tuple[int, int, SymmetricPoly]]:
    """(a, b, m_(a,b)) for a >= b >= 0, a + b <= top, in e_1..e_3: with the power
    sums p_k = e1 p_(k-1) - e2 p_(k-2) + e3 p_(k-3), m_(a) = p_a, m_(a,b) =
    p_a p_b - p_(a+b) for a > b > 0 and (p_a^2 - p_2a) / 2 for a = b.  Only the
    table of the last `top` is kept, which the keys of one truncation degree share."""
    one, e1, e2, e3 = (elementary_ring_poly(3, {e: 1}) for e in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    p = [one * 3, e1, e1 * e1 - e2 * 2]
    for k in range(3, top + 1):
        p.append(sum_of_products(3, [(1, p[k - 1], e1), (-1, p[k - 2], e2), (1, p[k - 3], e3)], k))
    table = [(0, 0, one)]
    for n in range(1, top + 1):
        for b in range(n // 2 + 1):
            m = p[n - b] * p[b] - p[n] if b else p[n]
            table.append((n - b, b, _divided(m, 2) if 2 * b == n else m))
    return table


def _form_power_sums(d: int, top: int) -> list[SymmetricPoly]:
    """P_0..P_top in e_1..e_3, P_k = sum over |m| = d of (m.x)^k in three variables:
    the sum over lambda |- k of multinomial(k; lambda) S_lambda(d) m_lambda, with
    S_lambda(d) = sum over |m| = d of prod m_i^lambda_i (0^0 = 1), one
    convolution per (lambda_2, lambda_3), and m_(a+c,b+c,c) = e3^c m_(a,b)."""
    powers = [[a**j for a in range(d + 1)] for j in range(top + 1)]
    convolutions: dict[tuple[int, int], list[int]] = {}
    sums: list[dict[int, int]] = [{} for _ in range(top + 1)]
    e3 = _pack((0, 0, 1), 3)
    for a, b, m in _two_part_monomials(top):
        for c in range((top - a - b) // 3 + 1):
            if (b + c, c) not in convolutions:
                u, v = powers[b + c], powers[c]
                convolutions[b + c, c] = [sum(map(operator.mul, u[:s + 1], v[s::-1])) for s in range(d + 1)]
            k, shift = a + b + 3 * c, c * e3
            weight = sum(map(operator.mul, powers[a + c], reversed(convolutions[b + c, c])))
            weight *= comb(k, a + c) * comb(b + 2 * c, c)
            acc, get = sums[k], sums[k].get
            for key, coeff in m._packed.items():
                acc[key + shift] = get(key + shift, 0) + weight * coeff
    return [SymmetricPoly._trusted(3, {key: c for key, c in acc.items() if c}) for acc in sums]


def sym_power_newton(d: int, top: int) -> tuple[SymmetricPoly, ...]:
    """e_0..e_top of the forms m.x, |m| = d, in three variables, as polynomials
    in e_1..e_3: the total Chern class of Sym^d of a rank-3 bundle, by Newton's
    identity n e_n = sum_(k <= n) (-1)^(k-1) P_k e_(n-k) on the power sums of
    `_form_power_sums` (Macdonald, I.2).  Each e_n is one `sum_of_products`
    and one exact division by n.  `sym_power_newton.cache_clear()` drops the
    kept table of `_two_part_monomials`."""
    sums = _form_power_sums(d, top)
    out = [SymmetricPoly.constant(3, 1)]
    for n in range(1, top + 1):
        terms = [(-1 if k % 2 == 0 else 1, sums[k], out[n - k]) for k in range(1, n + 1)]
        out.append(_divided(sum_of_products(3, terms, n), n))
    return tuple(out)


sym_power_newton.cache_clear = _two_part_monomials.cache_clear


@functools.cache
def _expansions(r: int) -> Callable[[int], SymmetricPoly]:
    """Each e-monomial in e_1..e_r by packed key, expanded in the r variables."""
    return elementary_substitution([elementary(r, i) for i in range(r + 1)], SymmetricPoly(r)).monomial


def reduce_to_elementary(p: SymmetricPoly) -> dict[Exponents, int]:
    """Rewrite a symmetric polynomial in the elementary basis.

    Returns a map from exponent tuples (a_1, ..., a_r) to integers, meaning
    sum of coeff * e_1^a_1 * ... * e_r^a_r.  The loop peels the leading
    monomial x^m in graded lex order (necessarily with weakly decreasing m
    when the input is symmetric) against e_1^(m_1-m_2) ... e_r^(m_r), which
    is homogeneous with the same leading term and coefficient 1.  A
    non-dominant leading term signals a non-symmetric input and raises
    ValueError.
    """
    r = p.nvars
    expand = _expansions(r)
    low = (1 << FIELD_BITS * r) - 1  # the exponent fields
    work = dict(p._packed)
    out: dict[Exponents, int] = {}
    while work:
        key = max(work)
        c = work[key]
        m = _unpack(key, r)
        if any(m[i] < m[i + 1] for i in range(r - 1)):
            raise ValueError(f"input is not symmetric: stuck on leading monomial {m}")
        # Field by field m_i - m_(i+1), with no borrow as m is dominant; the
        # weighted degree of those e-exponents is the degree of m, so the
        # degree field stays: the key of the e-monomial in the layout of
        # `elementary_ring_poly`.
        e_key = key - ((key << FIELD_BITS) & low)
        e_exps = _unpack(e_key, r)
        out[e_exps] = out.get(e_exps, 0) + c
        for e, k in expand(e_key)._packed.items():
            new = work.get(e, 0) - c * k
            if new:
                work[e] = new
            else:
                work.pop(e, None)
    return out

