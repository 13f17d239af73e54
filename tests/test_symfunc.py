from itertools import permutations
from math import comb
from random import Random

import pytest

from curvecount import InternalCheckError, RingMismatchError, SymmetricPoly, elementary, reduce_to_elementary
from curvecount import symfunc
from curvecount.chern import _sym_power_product, clear_universal_cache, sym_power_elementary
from curvecount.symfunc import DEGREE_LIMIT, elementary_ring_poly, sum_of_products

from helpers import elementary_to_monomials, evaluate, packed, roots_sym_power_elementary, tuple_sym_power_elementary


def total_class(r, d, trunc):
    """The per-degree e-polynomials of c(Sym^d) of a rank-r bundle, as the cache holds them."""
    return _sym_power_product(r, d, trunc).graded(trunc)


def x_power(nvars, i, a=1):
    e = [0] * nvars
    e[i] = a
    return SymmetricPoly(nvars, {tuple(e): 1})


def symmetrize(p: SymmetricPoly) -> SymmetricPoly:
    acc = SymmetricPoly(p.nvars)
    for perm in permutations(range(p.nvars)):
        acc = acc + SymmetricPoly(
            p.nvars, {tuple(e[i] for i in perm): c for e, c in p.terms.items()}
        )
    return acc


def random_symmetric(rng: Random, nvars: int, max_degree: int) -> SymmetricPoly:
    acc = SymmetricPoly(nvars)
    for _ in range(rng.randint(1, 4)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        mono = SymmetricPoly(nvars, {tuple(exps): rng.randint(-3, 3)})
        acc = acc + symmetrize(mono)
    return acc


class TestReduceToElementary:
    def test_power_sum_two_vars(self):
        # x^2 + y^2 = e1^2 - 2 e2, by hand.
        p = x_power(2, 0, 2) + x_power(2, 1, 2)
        assert reduce_to_elementary(p) == {(2, 0): 1, (0, 1): -2}

    def test_e2_itself(self):
        p = SymmetricPoly(2, {(1, 1): 1})
        assert reduce_to_elementary(p) == {(0, 1): 1}

    def test_degree_four_hand_case(self):
        # x^3 y + x y^3 = e2 (e1^2 - 2 e2) = e1^2 e2 - 2 e2^2, by hand.
        p = SymmetricPoly(2, {(3, 1): 1, (1, 3): 1})
        assert reduce_to_elementary(p) == {(2, 1): 1, (0, 2): -2}

    def test_constant(self):
        assert reduce_to_elementary(SymmetricPoly.constant(3, 7)) == {(0, 0, 0): 7}

    def test_zero(self):
        assert reduce_to_elementary(SymmetricPoly(3)) == {}

    @pytest.mark.parametrize("n", [500, 1200])
    def test_deep_e_monomial_needs_no_recursion(self, n):
        # (xy)^n = e2^n: its expansion is built by a loop, as deep as n.
        assert reduce_to_elementary(SymmetricPoly(2, {(n, n): 1})) == {(0, n): 1}
        assert reduce_to_elementary(SymmetricPoly(2, {(n + 1, n): 1, (n, n + 1): 1})) == {(1, n): 1}

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            reduce_to_elementary(x_power(2, 0))
        with pytest.raises(ValueError):
            reduce_to_elementary(SymmetricPoly(2, {(2, 0): 1, (1, 1): 1}))

    def test_round_trip_random(self):
        rng = Random(95)
        for _ in range(20):
            nvars = rng.randint(1, 4)
            p = random_symmetric(rng, nvars, 6)
            epoly = reduce_to_elementary(p)
            assert elementary_to_monomials(nvars, epoly) == p

    def test_random_evaluation_agreement(self):
        # Evaluating the e-polynomial at the elementary symmetric values of a
        # random integer tuple must reproduce the original polynomial's value.
        rng = Random(777)
        for _ in range(25):
            nvars = rng.randint(1, 4)
            p = random_symmetric(rng, nvars, 8)
            epoly = reduce_to_elementary(p)
            values = tuple(rng.randint(-5, 5) for _ in range(nvars))
            e_values = [evaluate(elementary(nvars, k), values) for k in range(1, nvars + 1)]
            total = 0
            for exps, c in epoly.items():
                term = c
                for i, a in enumerate(exps):
                    term *= e_values[i] ** a
                total += term
            assert total == evaluate(p, values)


class TestSymmetricPoly:
    def test_permutation_invariance_of_symmetrized_input(self):
        rng = Random(4)
        p = random_symmetric(rng, 3, 5)
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            permuted = SymmetricPoly(
                3, {tuple(e[i] for i in perm): c for e, c in p.terms.items()}
            )
            assert permuted == p

    def test_arithmetic(self):
        x, y = x_power(2, 0), x_power(2, 1)
        assert (x + y) * (x + y) == x * x + 2 * (x * y) + y * y
        assert (x - y) + (y - x) == SymmetricPoly(2)
        assert 3 * x == x * 3

    def test_truncated_multiplication(self):
        x, y = x_power(2, 0), x_power(2, 1)
        p = (SymmetricPoly.constant(2, 1) + x).mul_truncated(
            SymmetricPoly.constant(2, 1) + y, 1
        )
        assert p == SymmetricPoly.constant(2, 1) + x + y
        with pytest.raises(RingMismatchError, match="a polynomial in 3 variables in a ring of 2"):
            x.mul_truncated(x_power(3, 0), 1)

    def test_zero_scaled_terms_add_nothing(self):
        x, y = x_power(2, 0), x_power(2, 1)
        assert sum_of_products(2, [(0, x, y)], 4).is_zero()
        assert sum_of_products(2, [(0, x, y), (3, x, x), (0, y, y)], 4) == 3 * (x * x)

    def test_evaluate(self):
        p = SymmetricPoly(2, {(2, 1): 3, (0, 0): -1})
        assert evaluate(p, (2, 5)) == 3 * 4 * 5 - 1

    def test_elementary_values(self):
        assert elementary(3, 1) == x_power(3, 0) + x_power(3, 1) + x_power(3, 2)
        assert elementary(3, 3) == SymmetricPoly(3, {(1, 1, 1): 1})
        assert elementary(3, 4).is_zero()

    def test_exponent_length_checked(self):
        with pytest.raises(ValueError):
            SymmetricPoly(2, {(1, 2, 3): 1})


def monomial_symmetric(lam):
    """m_lambda in three variables: x^alpha once for each distinct rearrangement alpha of lambda."""
    return SymmetricPoly(3, {alpha: 1 for alpha in set(permutations(lam))})


class TestNewtonRoute:
    def test_matches_the_orbit_product(self):
        # d = 2..12 and every truncation up to min(rank, 30): 271 keys.  An
        # orbit product cut at t is the uncut one's degrees 0..t, and the
        # keys of one truncation share the kept table.
        orbits = {d: total_class(3, d, min(comb(d + 2, 2), 30)) for d in range(2, 13)}
        keys = [(d, trunc) for trunc in range(31) for d in orbits if trunc < len(orbits[d])]
        assert len(keys) == 271
        for d, trunc in keys:
            assert symfunc.sym_power_newton(d, trunc) == orbits[d][:trunc + 1], (d, trunc)

    @pytest.mark.parametrize("key", [(3, 11, 18), (3, 9, 18)])
    def test_universal_polynomials_match_roots_oracle(self, key):
        clear_universal_cache()
        assert sym_power_elementary(*key) == packed(roots_sym_power_elementary(*key))
        clear_universal_cache()

    def test_monomial_symmetric_functions_match_their_expansion(self):
        # Each m_lambda of weight <= 10, three parts as e3^c times two.
        for a, b, m in symfunc._two_part_monomials(10):
            for c in range((10 - a - b) // 3 + 1):
                lam = (a + c, b + c, c)
                shifted = m * elementary_ring_poly(3, {(0, 0, c): 1})
                assert elementary_to_monomials(3, shifted.terms) == monomial_symmetric(lam), lam

    def test_inexact_division_raises(self, monkeypatch):
        exact = symfunc._form_power_sums

        def off_by_one(d, top):
            sums = exact(d, top)
            sums[2] = sums[2] + elementary_ring_poly(3, {(0, 1, 0): 1})
            return sums

        monkeypatch.setattr(symfunc, "_form_power_sums", off_by_one)
        with pytest.raises(InternalCheckError, match="not divisible by 2"):
            symfunc.sym_power_newton(3, 2)

    def test_cache_clear_drops_the_kept_table(self):
        table = symfunc._two_part_monomials  # cache_info(): (hits, misses, maxsize, currsize)
        clear_universal_cache()
        symfunc.sym_power_newton(4, 6)
        assert table.cache_info() == (0, 1, 1, 1)
        symfunc.sym_power_newton(2, 6)  # the same top reuses the table
        assert table.cache_info() == (1, 1, 1, 1)
        symfunc.sym_power_newton(3, 5)  # another top replaces it
        assert table.cache_info() == (1, 2, 1, 1)
        clear_universal_cache()
        assert table.cache_info().currsize == 0


class TestPackedKernel:
    @pytest.mark.parametrize("d, r", [(d, r) for r in (1, 2, 3, 4) for d in (1, 2, 3, 4) if (r, d) != (4, 4)])
    def test_universal_polynomials_match_tuple_oracle(self, r, d):
        # Every truncation from 0 through the rank, and one past it, where the
        # product is no longer cut.  Truncating at t keeps degrees 0..t as
        # they are, so one uncut oracle expansion serves every t.
        rank = comb(r + d - 1, d)
        uncut = tuple_sym_power_elementary(r, d, rank + 1)
        for trunc in range(rank + 2):
            assert total_class(r, d, trunc) == packed(uncut[:trunc + 1])

    @pytest.mark.parametrize("key", [(2, 53, 54), (3, 11, 18), (3, 9, 18), (4, 4, 12)])
    def test_universal_polynomials_match_roots_oracle(self, key):
        assert total_class(*key) == packed(roots_sym_power_elementary(*key))

    def test_elementary_ring_grades_by_weight(self):
        # e2 has degree 2 in the roots, so e1 * e2 is cut at degree 2 and kept at 3.
        e1 = elementary_ring_poly(2, {(1, 0): 1})
        e2 = elementary_ring_poly(2, {(0, 1): 1})
        assert e1.mul_truncated(e2, 2).is_zero()
        assert e1.mul_truncated(e2, 3) == elementary_ring_poly(2, {(1, 1): 1})
        assert (e1 * e2).degree() == 3

    def test_terms_view_round_trips(self):
        p = SymmetricPoly(3, {(2, 0, 1): 5, (0, 0, 0): -1, (1, 1, 1): 7})
        assert p.terms == {(2, 0, 1): 5, (0, 0, 0): -1, (1, 1, 1): 7}
        assert SymmetricPoly(3, p.terms) == p
        with pytest.raises(TypeError):
            p.terms[(0, 0, 0)] = 2

    def test_products_exact_up_to_the_field_limit(self):
        top = DEGREE_LIMIT - 1
        x = x_power(2, 0)
        below = SymmetricPoly(2, {(top - 1, 0): 3, (0, top - 1): 2})
        assert below.mul_truncated(x, top) == SymmetricPoly(2, {(top, 0): 3, (1, top - 1): 2})
        assert below.mul_truncated(x, top - 1).is_zero()
        at_limit = SymmetricPoly(2, {(top, 0): 1})
        assert at_limit.mul_truncated(x, top).is_zero()

    def test_field_overflow_raises(self):
        with pytest.raises(OverflowError):
            SymmetricPoly(2, {(DEGREE_LIMIT, 0): 1})
        with pytest.raises(OverflowError):
            SymmetricPoly(2, {(DEGREE_LIMIT // 2, DEGREE_LIMIT // 2): 1})
        at_limit = SymmetricPoly(2, {(DEGREE_LIMIT - 1, 0): 1})
        with pytest.raises(OverflowError):
            at_limit * x_power(2, 1)
        with pytest.raises(OverflowError):
            at_limit.mul_truncated(x_power(2, 1), DEGREE_LIMIT)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            SymmetricPoly(2, {(-1, 1): 1})

    @pytest.mark.parametrize("coeff", [2.5, 0.0, "7"])
    def test_non_integral_coefficient_rejected(self, coeff):
        with pytest.raises(TypeError):
            SymmetricPoly(2, {(1, 0): coeff})
        assert SymmetricPoly(2, {(1, 0): True}) == x_power(2, 0)
