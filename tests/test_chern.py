import copy
import json
import pickle
import sys
from itertools import combinations, product
from math import comb, prod
from pathlib import Path
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
from curvecount import chern
from curvecount.chern import ChernRing, clear_universal_cache, set_universal_cache_dir, sym_power_elementary
from curvecount.symfunc import DEGREE_LIMIT, SymmetricPoly, reduce_to_elementary

from helpers import cap_products, clear_product_memos, packed, power_table_sym_power, random_bundle_vector
from helpers import roots_sym_power_elementary

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
        with pytest.raises(PreconditionError):
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

    @pytest.mark.parametrize("r, dim", [(2, 8), (3, 15), (4, 10)])
    def test_sym_power_top_is_the_top_of_sym_power(self, r, dim):
        # Sym^8 at rank 2, Sym^5 at rank 3 and Sym^3 at rank 4 already have
        # a rank above dim, so both sides are zero there.
        ring = ChernRing(r, dim)
        tops = [ring.sym_power_top(d) for d in range(1, 9)]
        assert tops == [ring.sym_power(d).top() for d in range(1, 9)]
        assert [top.is_zero() for top in tops] == [comb(r + d - 1, d) > dim for d in range(1, 9)]

    @pytest.mark.parametrize("r, d", [(1, 7), (2, 1), (2, 2), (2, 53), (2, 96), (3, 9), (4, 5), (5, 3)])
    def test_sym_power_top_is_the_product_of_the_roots(self, r, d):
        # At x = (2, 3, 5, ...) the e-polynomial, read with e_i at its value
        # e_i(x), is the product of the roots m.x over all |m| = d.  An even d
        # at rank 2 brings in the one-root orbit (d/2, d/2).
        x = (2, 3, 5, 7, 11)[:r]
        e = [sum(prod(c) for c in combinations(x, i)) for i in range(1, r + 1)]
        rank = comb(r + d - 1, d)
        top = ChernRing(r, rank).sym_power_top(d)
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
    def test_cache_check_takes_sym_power_at_the_roots(self, r, d):
        # The values of the forms m.x at x = (1, ..., r), over every m with |m| = d.
        # At d = 1 and trunc = rank = r this is the call that `_load_cached`
        # maps e_i -> e_i(1, ..., r) by.
        values = [sum(i * a for i, a in enumerate(m, 1)) for m in product(range(d + 1), repeat=r) if sum(m) == d]
        rank = comb(r + d - 1, d)
        assert len(values) == rank
        for trunc in (0, rank, rank + 3):
            assert chern._sym_power_at_roots(r, d, trunc) == _elementary_of(values, trunc), trunc

    def test_memory_cache_transparent(self):
        clear_universal_cache()
        cold = sym_power_elementary(2, 4, 5)
        warm = sym_power_elementary(2, 4, 5)
        assert cold is warm
        clear_universal_cache()
        assert sym_power_elementary(2, 4, 5) == cold

    def test_disk_cache_round_trip(self, tmp_path):
        try:
            set_universal_cache_dir(tmp_path)
            clear_universal_cache()
            first = sym_power_elementary(3, 2, 6)
            assert any(tmp_path.iterdir())
            clear_universal_cache()
            assert sym_power_elementary(3, 2, 6) == first
        finally:
            set_universal_cache_dir(None)
            clear_universal_cache()

    def test_corrupt_disk_cache_recomputed(self, tmp_path):
        try:
            set_universal_cache_dir(tmp_path)
            clear_universal_cache()
            value = sym_power_elementary(2, 2, 3)
            [path] = list(tmp_path.iterdir())
            path.write_text("{not json")
            clear_universal_cache()
            assert sym_power_elementary(2, 2, 3) == value
        finally:
            set_universal_cache_dir(None)
            clear_universal_cache()

    def test_disk_format_serves_sym_power(self, tmp_path, monkeypatch):
        # A file written from the roots oracle is read back as the universal
        # polynomials, with no fresh computation behind it.
        import curvecount.chern as chern

        def refuse(*key):
            raise AssertionError(f"computed {key} instead of reading the cache file")

        try:
            set_universal_cache_dir(tmp_path)
            clear_universal_cache()
            chern._store_cached(2, 5, 6, packed(roots_sym_power_elementary(2, 5, 6)))
            monkeypatch.setattr(chern, "_sym_power_product", refuse)
            assert integrate(sym_power(dual_universal_vector(GR25), 5).top()) == 2875
        finally:
            set_universal_cache_dir(None)
            clear_universal_cache()

    # Each damage replaces the exponents (field 0) or the coefficient (field 1)
    # of the first entry of one degree of Sym^5 on a rank-2 bundle.  Degree 6
    # holds (0, 3), (2, 2) and (4, 1): [2, 2] repeats an entry, which packing
    # would collapse to one coefficient.
    @pytest.mark.parametrize("degree, field, value", [
        (1, 0, [-1, 1]), (1, 0, [1.5, 0]), (1, 0, [True, 0]), (1, 0, [0, 1]), (6, 1, 2.5), (6, 1, True),
        (6, 0, [2, 2]),
    ], ids=["negative", "float", "bool", "wrong weighted degree", "float coefficient", "bool coefficient",
            "repeated exponents"])
    def test_corrupt_entry_recomputed(self, tmp_path, degree, field, value):
        import curvecount.chern as chern

        path = tmp_path / "sym_r2_d5_t6.json"
        try:
            set_universal_cache_dir(tmp_path)
            clear_universal_cache()
            assert equivalence_lines_on_factor(5, 1, 4).count == 1275
            intact = json.loads(path.read_text())
            stored = json.loads(path.read_text())
            stored["degrees"][degree][0][field] = value
            path.write_text(json.dumps(stored))
            assert chern._load_cached(2, 5, 6) is None
            clear_universal_cache()
            assert equivalence_lines_on_factor(5, 1, 4).count == 1275
            assert json.loads(path.read_text()) == intact
        finally:
            set_universal_cache_dir(None)
            clear_universal_cache()

    def test_reformatted_cache_file_recomputed_and_rewritten(self, tmp_path, monkeypatch):
        # The same payload with other whitespace is not the file this version
        # writes, so it is computed again and replaced by the canonical text.
        import curvecount.chern as chern

        path = tmp_path / "sym_r2_d5_t6.json"
        computed = []
        product = chern._sym_power_product
        monkeypatch.setattr(chern, "_sym_power_product", lambda *key: computed.append(key) or product(*key))
        try:
            set_universal_cache_dir(tmp_path)
            clear_universal_cache()
            value = sym_power_elementary(2, 5, 6)
            canonical = path.read_text()
            path.write_text(json.dumps(json.loads(canonical), indent=1))
            clear_universal_cache()
            assert sym_power_elementary(2, 5, 6) == value
            assert len(computed) == 2
            assert path.read_text() == canonical
        finally:
            set_universal_cache_dir(None)
            clear_universal_cache()

    @pytest.mark.parametrize("degree, entry, before, after", [
        (1, 0, "15", "16"), (4, 1, "1183", "1883"), (6, 1, "1450", "1451"),
    ])
    def test_changed_coefficient_digit_recomputed_and_rewritten(self, tmp_path, monkeypatch,
                                                                degree, entry, before, after):
        # The damaged file renders to its own bytes, so only the check of its
        # values at the roots (1, 2) tells it from the file this version writes.
        import curvecount.chern as chern

        path = tmp_path / "sym_r2_d5_t6.json"
        computed = []
        product = chern._sym_power_product
        monkeypatch.setattr(chern, "_sym_power_product", lambda *key: computed.append(key) or product(*key))
        try:
            set_universal_cache_dir(tmp_path)
            clear_universal_cache()
            value = sym_power_elementary(2, 5, 6)
            canonical = path.read_text()
            stored = json.loads(canonical)
            assert stored["degrees"][degree][entry][1] == before
            stored["degrees"][degree][entry][1] = after
            damaged = json.dumps(stored)
            path.write_text(damaged)
            entries = {tuple(e): int(c) for part in stored["degrees"] for e, c in part}
            assert chern._cache_text(2, 5, 6, chern.elementary_ring_poly(2, entries).graded(6)) == damaged
            assert chern._load_cached(2, 5, 6) is None
            clear_universal_cache()
            assert sym_power_elementary(2, 5, 6) == value
            assert len(computed) == 2
            assert path.read_text() == canonical
        finally:
            set_universal_cache_dir(None)
            clear_universal_cache()

    def test_unreadable_cache_file_recomputed(self, tmp_path, monkeypatch):
        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        try:
            set_universal_cache_dir(tmp_path)
            clear_universal_cache()
            assert equivalence_lines_on_factor(5, 1, 4).count == 1275
            clear_universal_cache()
            monkeypatch.setattr(Path, "read_text", denied)
            assert equivalence_lines_on_factor(5, 1, 4).count == 1275
        finally:
            set_universal_cache_dir(None)
            clear_universal_cache()

    def test_disk_cache_of_another_format_recomputed(self, tmp_path):
        try:
            set_universal_cache_dir(tmp_path)
            clear_universal_cache()
            value = sym_power_elementary(2, 2, 3)
            [path] = list(tmp_path.iterdir())
            stored = json.loads(path.read_text())
            del stored["format"]
            stored["degrees"] = [[] for _ in stored["degrees"]]
            path.write_text(json.dumps(stored))
            clear_universal_cache()
            assert sym_power_elementary(2, 2, 3) == value
            assert "format" in json.loads(path.read_text())
        finally:
            set_universal_cache_dir(None)
            clear_universal_cache()

    def test_removed_cache_dir_does_not_fail_a_count(self, tmp_path):
        cache = tmp_path / "cache"
        try:
            set_universal_cache_dir(cache)
            cache.rmdir()
            clear_universal_cache()
            assert integrate(sym_power(dual_universal_vector(GR25), 5).top()) == 2875
            value = sym_power_elementary(2, 5, 6)
            assert value == packed(roots_sym_power_elementary(2, 5, 6))
            assert sym_power_elementary(2, 5, 6) is value  # kept in memory
            assert not cache.exists()
        finally:
            set_universal_cache_dir(None)
            clear_universal_cache()

    def test_failed_cache_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        import curvecount.chern as chern

        def full_disk(src, dst):
            raise OSError(28, "No space left on device")

        try:
            set_universal_cache_dir(tmp_path)
            clear_universal_cache()
            monkeypatch.setattr(chern.os, "replace", full_disk)
            assert sym_power_elementary(2, 3, 4) == packed(roots_sym_power_elementary(2, 3, 4))
            assert list(tmp_path.iterdir()) == []
        finally:
            set_universal_cache_dir(None)
            clear_universal_cache()

    def test_cache_write_error_other_than_os_error_propagates(self, tmp_path, monkeypatch):
        import curvecount.chern as chern

        def interrupted(src, dst):
            raise KeyboardInterrupt

        try:
            set_universal_cache_dir(tmp_path)
            clear_universal_cache()
            monkeypatch.setattr(chern.os, "replace", interrupted)
            with pytest.raises(KeyboardInterrupt):
                sym_power_elementary(2, 3, 4)
            assert list(tmp_path.iterdir()) == []
        finally:
            set_universal_cache_dir(None)
            clear_universal_cache()

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no integer string limit")
    def test_value_past_the_digit_limit_is_not_written(self, tmp_path):
        import curvecount.chern as chern

        value = packed(((((0, 0), 1),), (((1, 0), 10 ** 640),)))  # a 641-digit coefficient of e_1
        limit = sys.get_int_max_str_digits()
        try:
            set_universal_cache_dir(tmp_path)
            sys.set_int_max_str_digits(640)
            chern._store_cached(2, 1, 1, value)
            assert list(tmp_path.iterdir()) == []
        finally:
            sys.set_int_max_str_digits(limit)
            set_universal_cache_dir(None)
            clear_universal_cache()
