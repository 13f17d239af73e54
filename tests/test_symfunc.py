from itertools import permutations
from math import comb
from random import Random

import pytest

from curvecount import SymmetricPoly, elementary, reduce_to_elementary
from curvecount.chern import _compute_sym_power_elementary, _orbit_factor
from curvecount.symfunc import DEGREE_LIMIT, elementary_ring_poly

from helpers import elementary_to_monomials, evaluate, packed, roots_sym_power_elementary, tuple_sym_power_elementary


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
        with pytest.raises(ValueError, match="in 2 and 3 variables"):
            x.mul_truncated(x_power(3, 0), 1)

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


class TestPackedKernel:
    @pytest.mark.parametrize("d, r", [(d, r) for r in (1, 2, 3, 4) for d in (1, 2, 3, 4) if (r, d) != (4, 4)])
    def test_universal_polynomials_match_tuple_oracle(self, r, d):
        # Every truncation from 0 through the rank, and one past it, where the
        # product is no longer cut.  Truncating at t keeps degrees 0..t as
        # they are, so one uncut oracle expansion serves every t.
        rank = comb(r + d - 1, d)
        uncut = tuple_sym_power_elementary(r, d, rank + 1)
        for trunc in range(rank + 2):
            assert _compute_sym_power_elementary(r, d, trunc) == packed(uncut[:trunc + 1])

    @pytest.mark.parametrize("key", [(2, 53, 54), (3, 11, 18), (3, 9, 18), (4, 4, 12)])
    def test_universal_polynomials_match_roots_oracle(self, key):
        assert _compute_sym_power_elementary(*key) == packed(roots_sym_power_elementary(*key))

    @pytest.mark.parametrize("a, b", [(5, 0), (4, 1), (3, 2), (7, 2), (3, 3)])
    def test_rank_two_orbit_factor(self, a, b):
        # (1 + a x1 + b x2)(1 + b x1 + a x2) = 1 + d e1 + ab e1^2 + (a-b)^2 e2
        # for a != b; a single root a(x1 + x2) when a == b.
        d = a + b
        if a != b:
            expected = {(0, 0): 1, (1, 0): d, (2, 0): a * b, (0, 1): (a - b) ** 2}
        else:
            expected = {(0, 0): 1, (1, 0): a}
        assert _orbit_factor((a, b), 2) == elementary_ring_poly(2, expected)
        assert _orbit_factor((a, b), 1) == elementary_ring_poly(2, {(0, 0): 1, (1, 0): d if a != b else a})

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
