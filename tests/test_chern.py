import copy
import pickle
from itertools import combinations, product
from math import comb, prod
from random import Random

import pytest

from curvecount import (
    ChernVector,
    GrassmannianRing,
    PreconditionError,
    ProjBundleRing,
    RingMismatchError,
    count_curves,
    dual,
    dual_universal_vector,
    equivalence_lines_on_factor,
    integrate,
    pullback_vector,
    segre_from_chern,
    sym_power,
    tensor_line,
    trivial_vector,
    whitney_quotient,
    whitney_sum,
)
from curvecount.chern import ChernRing, clear_universal_cache, sym_power_elementary
from curvecount.symfunc import DEGREE_LIMIT, SymmetricPoly, elementary_substitution, reduce_to_elementary

from helpers import cap_products, clear_product_memos, power_table_sym_power, random_bundle_vector

GR25 = GrassmannianRing(2, 5)
GR35 = GrassmannianRing(3, 5)


def line_vector(ring, c1):
    return ChernVector(ring, 1, [ring.one(), c1])


class TestChernVector:
    def test_component_zero_must_be_identity(self):
        with pytest.raises(PreconditionError):
            ChernVector(GR25, 2, [GR25.zero()])

    def test_negative_rank_rejected(self):
        with pytest.raises(PreconditionError, match="^rank must be >= 0, got -1$"):
            ChernVector(GR25, -1, [GR25.one()])

    def test_component_list_bounded(self):
        with pytest.raises(PreconditionError):
            ChernVector(GR25, 1, [GR25.one(), GR25.sigma((1,)), GR25.sigma((1, 1))])

    def test_components_must_be_homogeneous(self):
        with pytest.raises(PreconditionError):
            ChernVector(GR25, 2, [GR25.one(), GR25.sigma((1, 1))])

    def test_missing_components_are_zero(self):
        v = trivial_vector(GR25, 3)
        assert v.component(2) == GR25.zero()
        assert v.top() == GR25.zero()


class TestSymPower:
    def test_degree_one_is_identity(self):
        cu = dual_universal_vector(GR25)
        assert sym_power(cu, 1) == cu

    def test_universal_cubic_polynomials_rank_two(self):
        # Hand root expansion: the top class of Sym^3 of a rank-2 bundle is
        # 3x(2x+y)(x+2y)3y = 9 e2 (2 e1^2 + e2) = 18 e1^2 e2 + 9 e2^2,
        # and the first class is 6(x + y) = 6 e1.
        x = SymmetricPoly(2, {(1, 0): 1})
        y = SymmetricPoly(2, {(0, 1): 1})
        top = 9 * (x * y) * (2 * x + y) * (x + 2 * y)
        assert reduce_to_elementary(top) == {(2, 1): 18, (0, 2): 9}

        universal = sym_power_elementary(2, 3, 4)
        assert universal[1].terms == {(1, 0): 6}
        assert universal[4].terms == {(2, 1): 18, (0, 2): 9}

    def test_cubic_sym_power_on_gr25(self):
        cu = dual_universal_vector(GR25)
        v = sym_power(cu, 3)
        c1, c2 = GR25.sigma((1,)), GR25.sigma((1, 1))
        assert v.rank == 4
        assert v.component(1) == 6 * c1
        assert v.component(4) == 18 * (c1 * c1 * c2) + 9 * (c2 * c2)

    def test_rank_and_first_class(self):
        for ring, r in ((GR25, 2), (GR35, 3)):
            cu = dual_universal_vector(ring)
            for d in range(1, 6):
                v = sym_power(cu, d)
                expected_rank = comb(r + d - 1, d)
                assert v.rank == expected_rank
                assert v.component(1) == (d * expected_rank // r) * cu.component(1)

    def test_quintic_sym_power_feeds_line_count(self):
        v = sym_power(dual_universal_vector(GR25), 5)
        assert v.rank == 6
        from curvecount import integrate

        assert integrate(v.top()) == 2875

    @pytest.mark.parametrize("d", [0, -1])
    def test_preconditions(self, d):
        # The public route and the generic ring refuse a degree the same way.
        cu = dual_universal_vector(GR25)
        for call in (lambda: sym_power(cu, d), lambda: ChernRing(2, 6).sym_power(d)):
            with pytest.raises(PreconditionError, match=rf"^symmetric power needs d >= 1, got {d}$"):
                call()
        with pytest.raises(PreconditionError, match=r"^symmetric power needs a bundle of rank >= 1, got rank 0$"):
            sym_power(trivial_vector(GR25, 0), 2)

    @pytest.mark.parametrize("r, degrees", [(2, range(1, 7)), (3, range(2, 5))], ids=["Gr(2,7)", "Gr(3,7)"])
    def test_universal_bundle_matches_power_table(self, r, degrees):
        cu = dual_universal_vector(GrassmannianRing(r, 7))
        for d in degrees:
            assert sym_power(cu, d) == power_table_sym_power(cu, d)

    def test_non_universal_vector_matches_power_table(self):
        conic_space = sym_power(dual_universal_vector(GrassmannianRing(3, 6)), 2)
        assert sym_power(conic_space, 2) == power_table_sym_power(conic_space, 2)

    def test_projective_bundle_vector_matches_power_table(self):
        conic_space = sym_power(dual_universal_vector(GR35), 2)
        lifted = pullback_vector(ProjBundleRing(conic_space), conic_space)
        assert sym_power(lifted, 2) == power_table_sym_power(lifted, 2)

    def test_ring_dimension_beyond_the_packing_limit(self):
        # dim Gr(2, 40000) = 79996 does not fit a packed exponent field, so
        # there is no ChernRing of that dimension; sym_power works in one of
        # degree min(rank, dim) = 4.
        ring = GrassmannianRing(2, 40000)
        with pytest.raises(PreconditionError):
            ChernRing(2, ring.dim)
        v = sym_power(dual_universal_vector(ring), 3)
        assert v.rank == 4
        assert v.component(2) == 21 * ring.sigma((1, 1)) + 11 * ring.sigma((2,))

    def test_every_product_is_by_one_component(self, monkeypatch):
        import curvecount.grassmannian as grassmannian

        cu = dual_universal_vector(GrassmannianRing(2, 9))
        products = []
        original = grassmannian.multiply
        monkeypatch.setattr(grassmannian, "multiply", lambda x, y: products.append((x, y)) or original(x, y))
        v = sym_power(cu, 7)
        by_components = products[:]
        products.clear()
        assert power_table_sym_power(cu, 7) == v
        assert by_components and len(by_components) <= len(products)
        components = {id(comp) for comp in cu.components}
        assert all(id(x) in components or id(y) in components for x, y in by_components)


class TestDual:
    def test_trivial_bundle_self_dual(self):
        v = trivial_vector(GR25, 3)
        assert dual(v) == v

    def test_line_bundle(self):
        t = GR25.sigma((1,))
        assert dual(line_vector(GR25, t)) == line_vector(GR25, -t)

    def test_involution(self):
        rng = Random(23)
        v = random_bundle_vector(GR25, rng, 4)
        assert dual(dual(v)) == v


class TestTensorLine:
    def test_zero_twist(self):
        rng = Random(5)
        v = random_bundle_vector(GR25, rng, 3)
        assert tensor_line(v, GR25.zero()) == v

    def test_line_times_line(self):
        s = GR25.sigma((1,))
        twisted = tensor_line(line_vector(GR25, s), 2 * s)
        assert twisted == line_vector(GR25, 3 * s)

    def test_rank_two_hand_expansion(self):
        # (1 + x + t)(1 + y + t): c1 -> c1 + 2t, c2 -> c2 + c1 t + t^2.
        rng = Random(6)
        v = random_bundle_vector(GR25, rng, 2)
        t = GR25.sigma((1,))
        tw = tensor_line(v, t)
        assert tw.component(1) == v.component(1) + 2 * t
        assert tw.component(2) == v.component(2) + v.component(1) * t + t * t

    def test_twist_round_trip(self):
        rng = Random(7)
        v = random_bundle_vector(GR35, rng, 3)
        t = GR35.sigma((1,))
        assert tensor_line(tensor_line(v, t), -t) == v

    def test_dual_compatibility(self):
        rng = Random(8)
        v = random_bundle_vector(GR25, rng, 3)
        t = GR25.sigma((1,))
        assert dual(tensor_line(v, t)) == tensor_line(dual(v), -t)

    def test_twist_must_be_degree_one(self):
        v = trivial_vector(GR25, 2)
        with pytest.raises(PreconditionError):
            tensor_line(v, GR25.sigma((1, 1)))

    def test_ring_mismatch(self):
        v = trivial_vector(GR25, 2)
        with pytest.raises(RingMismatchError):
            tensor_line(v, GR35.sigma((1,)))
        generic = ChernRing(2, GR25.dim).generators()
        with pytest.raises(RingMismatchError):
            tensor_line(v, generic.component(1))
        with pytest.raises(RingMismatchError):
            tensor_line(generic, GR25.sigma((1,)))
        with pytest.raises(RingMismatchError, match="in 2 variables, not in a ring in 3 variables"):
            tensor_line(ChernRing(3, 6).sym_power(2), ChernRing(2, 6).generators().component(1))
        with pytest.raises(RingMismatchError, match="^twist class is of type int, not an element of a ring$"):
            tensor_line(dual_universal_vector(GrassmannianRing(2, 4)), 3)


class TestWhitney:
    def test_sum_with_trivial_bumps_rank(self):
        rng = Random(9)
        a = random_bundle_vector(GR25, rng, 2)
        summed = whitney_sum(a, trivial_vector(GR25, 3))
        assert summed.rank == 5
        for i in range(3):
            assert summed.component(i) == a.component(i)

    def test_two_line_bundles(self):
        s, t = GR25.sigma((1,)), 2 * GR25.sigma((1,))
        v = whitney_sum(line_vector(GR25, s), line_vector(GR25, t))
        assert v.component(1) == s + t
        assert v.component(2) == s * t

    def test_quotient_round_trip(self):
        rng = Random(10)
        a = random_bundle_vector(GR25, rng, 3)
        b = random_bundle_vector(GR25, rng, 2)
        assert whitney_quotient(whitney_sum(a, b), b) == a

    def test_quotient_by_trivial(self):
        rng = Random(12)
        e = random_bundle_vector(GR25, rng, 4)
        assert whitney_quotient(e, trivial_vector(GR25, 0)) == e

    def test_rank_order_enforced(self):
        with pytest.raises(PreconditionError):
            whitney_quotient(trivial_vector(GR25, 1), trivial_vector(GR25, 2))

    def test_negative_truncation_rejected(self):
        e = random_bundle_vector(GR25, Random(15), 3)
        with pytest.raises(PreconditionError):
            whitney_quotient(e, trivial_vector(GR25, 1), -1)
        assert whitney_quotient(e, trivial_vector(GR25, 1), 0) == trivial_vector(GR25, 2)

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            whitney_sum(trivial_vector(GR25, 1), trivial_vector(GR35, 1))
        with pytest.raises(RingMismatchError):
            whitney_quotient(trivial_vector(GR25, 2), trivial_vector(GR35, 1))


class TestSegre:
    def test_trivial_bundle(self):
        s = segre_from_chern(trivial_vector(GR25, 3), 4)
        assert s[0] == GR25.one()
        assert all(si.is_zero() for si in s[1:])

    def test_line_bundle_geometric_series(self):
        t = GR25.sigma((1,))
        s = segre_from_chern(line_vector(GR25, t), 4)
        for i in range(5):
            assert s[i] == (-1) ** i * t**i

    def test_first_classes(self):
        rng = Random(13)
        v = random_bundle_vector(GR25, rng, 3)
        s = segre_from_chern(v, 2)
        c1, c2 = v.component(1), v.component(2)
        assert s[1] == -c1
        assert s[2] == c1 * c1 - c2

    def test_negative_truncation_rejected(self):
        with pytest.raises(PreconditionError):
            segre_from_chern(trivial_vector(GR25, 2), -3)
        assert segre_from_chern(trivial_vector(GR25, 2), 0) == [GR25.one()]

    def test_truncation_at_the_degree_limit_rejected(self):
        with pytest.raises(PreconditionError, match=f"truncation degree {DEGREE_LIMIT} must be below {DEGREE_LIMIT}"):
            segre_from_chern(trivial_vector(GR25, 2), DEGREE_LIMIT)

    def test_no_products_above_the_ambient_dimension(self, monkeypatch):
        # Every class above dim Gr(2,4) = 4 is zero, so a series asked to
        # degree 104 takes one sum of products per degree 1..4 and no more.
        calls = []
        kernel = ChernRing.sum_of_products
        monkeypatch.setattr(ChernRing, "sum_of_products", lambda ring, terms: calls.append(1) or kernel(ring, terms))
        ring = ChernRing(2, 4)
        s = segre_from_chern(ring.sym_power(2), 104)
        assert len(calls) <= 4
        assert len(s) == 105 and all(si.is_zero() for si in s[5:])
        assert s[:5] == segre_from_chern(ring.sym_power(2), 4)

    def test_convolution_with_chern_is_one(self):
        rng = Random(14)
        for _ in range(10):
            v = random_bundle_vector(GR25, rng, 3)
            s = segre_from_chern(v, GR25.dim)
            for k in range(GR25.dim + 1):
                conv = GR25.zero()
                for j in range(k + 1):
                    conv = conv + v.component(j) * s[k - j]
                assert conv == (GR25.one() if k == 0 else GR25.zero())


class TestChernRing:
    def test_evaluation_of_universal_polynomials_is_sym_power(self):
        for base in (GR25, GR35, GrassmannianRing(3, 7)):
            ring = ChernRing(base.r, base.dim)
            cu = dual_universal_vector(base)
            schubert = ring.evaluator(cu)
            for d in range(1, 6):
                universal = ring.sym_power(d)
                assert [schubert(x) for x in universal.components] == list(sym_power(cu, d).components)
                assert universal.rank == comb(base.r + d - 1, d)

    def test_sym_power_uses_the_keys_of_sym_power(self):
        import curvecount.chern as chern

        clear_universal_cache()
        ring = ChernRing(2, GR25.dim)
        ring.sym_power(1)
        ring.sym_power(5)
        assert set(chern._SYM_CACHE) == {(2, 5, 6)}
        sym_power(dual_universal_vector(GR25), 5)
        assert set(chern._SYM_CACHE) == {(2, 5, 6)}

    def test_evaluation_reads_no_terms_view(self, monkeypatch):
        # From the warm cache to a count or a Schubert class, the universal
        # polynomials are read through their packed keys only, and so is the
        # class a count integrates.
        cu = dual_universal_vector(GrassmannianRing(3, 7))
        count_curves("conics", 6, [8])
        count_curves("lines", 8, [13])
        equivalence_lines_on_factor(5, 2, 4)
        warm = [sym_power(cu, d) for d in (2, 3, 4)]
        reads = []
        view = SymmetricPoly.terms
        monkeypatch.setattr(SymmetricPoly, "terms", property(lambda p: reads.append(p) or view.fget(p)))
        assert count_curves("conics", 6, [8]).count == 21553784182784
        assert count_curves("lines", 8, [13]).count == 210776836330775
        assert equivalence_lines_on_factor(5, 2, 4).count == 1300
        assert [sym_power(cu, d) for d in (2, 3, 4)] == warm
        assert reads == []

    @pytest.mark.parametrize("r, d", [(1, 7), (2, 1), (2, 2), (2, 53), (2, 96), (3, 9), (4, 5), (5, 3)])
    def test_top_of_sym_power_is_the_product_of_the_roots(self, r, d):
        # At x = (2, 3, 5, ...) the e-polynomial, read with e_i at its value
        # e_i(x), is the product of the roots m.x over all |m| = d.  An even d
        # at rank 2 brings in the one-root orbit (d/2, d/2).
        x = (2, 3, 5, 7, 11)[:r]
        e = [sum(prod(c) for c in combinations(x, i)) for i in range(1, r + 1)]
        rank = comb(r + d - 1, d)
        top = ChernRing(r, rank).sym_power(d).top()
        value = sum(c * prod(v**a for v, a in zip(e, exps)) for exps, c in top.terms.items())
        roots = [m for m in product(range(d + 1), repeat=r) if sum(m) == d]
        assert len(roots) == rank
        assert value == prod(sum(a * b for a, b in zip(m, x)) for m in roots)

    def test_equal_rings_are_one_ambient(self):
        a, b = ChernRing(2, 6), ChernRing(r=2, dim=6)
        assert a is b and a == b and hash(a) == hash(b)
        assert a != ChernRing(2, 5) and a != ChernRing(3, 6) and a != GrassmannianRing(2, 6)
        assert a.sym_power(3) == b.sym_power(3)
        assert whitney_sum(a.sym_power(2), b.sym_power(3)) == whitney_sum(a.sym_power(2), a.sym_power(3))
        with pytest.raises(RingMismatchError):
            whitney_sum(a.sym_power(2), ChernRing(2, 5).sym_power(3))

    def test_twist_over_the_generic_bundle(self):
        # c_1 of the generic bundle maps to c_1(U*) = sigma_1 on Gr(3, 6).
        ring, base = ChernRing(3, 6), GrassmannianRing(3, 6)
        cu = dual_universal_vector(base)
        schubert = ring.evaluator(cu)
        twisted = tensor_line(ring.sym_power(2), ring.generators().component(1))
        expected = tensor_line(sym_power(cu, 2), base.sigma((1,)))
        assert [schubert(x) for x in twisted.components] == list(expected.components)

    def test_sum_of_products_truncates_at_dim(self):
        ring = ChernRing(2, 4)
        c1, c2 = ring.generators().components[1:]
        total = ring.sum_of_products([(3, c1, c1 * c1), (-2, c2, c2), (5, c2, c2 * c1)])
        assert total == 3 * (c1 * c1 * c1) - 2 * (c2 * c2)
        assert total.degrees() == {3, 4}
        assert ring.sum_of_products([]) == ring.zero()

    def test_sum_of_products_names_a_factor_that_is_no_polynomial(self):
        ring = ChernRing(2, 4)
        c1 = ring.generators().component(1)
        for terms in ([(1, ring.one(), 2)], [(1, 2, c1)]):
            with pytest.raises(RingMismatchError, match="^factor is of type int, not an element of a ring$"):
                ring.sum_of_products(terms)
        # A Schubert class names its Grassmannian.
        with pytest.raises(RingMismatchError, match=r"^factor lives in Gr\(2,5\), not in a ring in 2 variables$"):
            ring.sum_of_products([(1, c1, GR25.sigma((1,)))])

    def test_generators_stop_at_dim(self):
        # In degree <= 2, c_3 of a rank-3 bundle is zero.
        generic = ChernRing(3, 2).generators()
        assert [c.terms for c in generic.components] == [{(0, 0, 0): 1}, {(1, 0, 0): 1}, {(0, 1, 0): 1}]
        assert generic.top().is_zero()

    def test_u_star_maps_through_one_shared_map_per_grassmannian(self, monkeypatch):
        base, other = GrassmannianRing(3, 9), GrassmannianRing(3, 7)
        cu = dual_universal_vector(base)
        clear_product_memos()
        first = [sym_power(cu, d) for d in (2, 5, 11)]
        assert first == [power_table_sym_power(cu, d) for d in (2, 5, 11)]
        shared = ChernRing(3, base.dim).evaluator(cu)
        assert ChernRing(3, 4).evaluator(dual_universal_vector(base)) is shared
        assert ChernRing(3, 4).evaluator(dual(cu)) is not shared
        assert ChernRing(3, other.dim).evaluator(dual_universal_vector(other)) is not shared
        with pytest.raises(PreconditionError):
            ChernRing(2, 4).evaluator(cu)
        expected = [power_table_sym_power(v, 3) for v in (dual(cu), dual_universal_vector(other))]
        cap_products(monkeypatch, 0)
        assert [sym_power(cu, d) for d in (2, 5, 11)] == first
        monkeypatch.undo()
        assert [sym_power(v, 3) for v in (dual(cu), dual_universal_vector(other))] == expected
        clear_product_memos()
        fresh = ChernRing(3, 4).evaluator(dual(cu))
        assert ChernRing(3, base.dim).evaluator(cu) not in (shared, fresh)

    def test_one_read_only_ring_per_key(self):
        ring = ChernRing(3, 18)
        assert repr(ring) == "ChernRing(r=3, dim=18)"
        assert copy.copy(ring) is ring and copy.deepcopy(ring) is ring and pickle.loads(pickle.dumps(ring)) is ring
        for name in ("r", "dim", "other"):
            with pytest.raises(AttributeError):
                setattr(ring, name, 4)
        with pytest.raises(AttributeError):
            del ring.r
        assert (ring.r, ring.dim) == (3, 18)

    @pytest.mark.parametrize("r, dim", [(2.0, 5), (2, 5.0), ("2", 5), (2, None)])
    def test_non_integer_sizes_rejected(self, r, dim):
        with pytest.raises(TypeError):
            ChernRing(r, dim)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            ChernRing(0, 4)
        with pytest.raises(PreconditionError):
            ChernRing(2, -1)
        with pytest.raises(PreconditionError):
            ChernRing(3, 6).evaluator(dual_universal_vector(GR25))
        schubert = ChernRing(2, 8).evaluator(dual_universal_vector(GrassmannianRing(2, 6)))
        for other in (ChernRing(1, 4), ChernRing(3, 4)):
            with pytest.raises(RingMismatchError, match=f"polynomial in {other.r} variables by e_1..e_2$"):
                schubert(other.generators().component(1))
        small = ChernRing(2, 6).one()
        for terms in ([(1, small, small)], [(1, ChernRing(3, 6).one(), small)]):
            with pytest.raises(RingMismatchError, match="^cannot multiply a polynomial in 2 variables in a ring of 3$"):
                ChernRing(3, 6).sum_of_products(terms)


def _elementary_of(values: list[int], top: int) -> list[int]:
    """e_0..e_top of `values`, from their power sums by Newton's identity."""
    p = [sum(v**k for v in values) for k in range(top + 1)]
    e = [1]
    for n in range(1, top + 1):
        total = sum((-1) ** (k - 1) * p[k] * e[n - k] for k in range(1, n + 1))
        assert total % n == 0
        e.append(total // n)
    return e


class TestUniversalCache:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_sym_power_takes_its_value_at_the_roots(self, r, d):
        # At the roots x = (1, ..., r), Sym^d has the roots m.x over every m
        # with |m| = d, so each degree of the universal polynomials, mapped by
        # e_i -> e_i(1, ..., r), is the e_k of those values.  Each e-monomial
        # is positive there, so a changed coefficient changes a value.
        values = [sum(i * a for i, a in enumerate(m, 1)) for m in product(range(d + 1), repeat=r) if sum(m) == d]
        rank = comb(r + d - 1, d)
        assert len(values) == rank
        at_roots = elementary_substitution(_elementary_of(list(range(1, r + 1)), r), 0)
        clear_universal_cache()
        for trunc in (0, rank, rank + 3):
            assert [at_roots(p) for p in sym_power_elementary(r, d, trunc)] == _elementary_of(values, trunc), trunc

    @pytest.mark.parametrize("r, d, high", [(1, 4, 4), (2, 5, 9), (3, 11, 18), (4, 3, 23)])
    def test_truncation_keeps_the_lower_degrees(self, r, d, high):
        # Each degree is the same whatever the truncation and whichever key
        # of the same (r, d) was computed first: the rank-3 route keeps a
        # table between the keys of one total class.
        low = 2
        clear_universal_cache()
        short_first = sym_power_elementary(r, d, low), sym_power_elementary(r, d, high)
        clear_universal_cache()
        long_first = sym_power_elementary(r, d, high)
        assert short_first == (sym_power_elementary(r, d, low), long_first)
        assert long_first[: low + 1] == short_first[0]
        clear_universal_cache()

    def test_memory_cache_transparent(self):
        clear_universal_cache()
        cold = sym_power_elementary(2, 4, 5)
        warm = sym_power_elementary(2, 4, 5)
        assert cold is warm
        clear_universal_cache()
        assert sym_power_elementary(2, 4, 5) == cold
