from random import Random

import pytest

from curvecount import (
    ChowClass,
    GrassmannianRing,
    Partition,
    PreconditionError,
    RingMismatchError,
    dual_partition,
    giambelli,
    integrate,
    multiply,
    pieri,
    universal_dual_chern,
)
from curvecount.grassmannian import _box, _lr_expansion
from curvecount.partitions import partitions_in_box

from helpers import brute_lr_coefficient, clear_product_memos, oracle_multiply, point_class, random_class

GR24 = GrassmannianRing(2, 4)
GR25 = GrassmannianRing(2, 5)
GR35 = GrassmannianRing(3, 5)
GR36 = GrassmannianRing(3, 6)


class TestRing:
    def test_dimensions(self):
        assert GR24.dim == 4
        assert GR25.dim == 6
        assert GR35.dim == 6
        assert GrassmannianRing(1, 1).dim == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(PreconditionError):
            GrassmannianRing(0, 4)
        with pytest.raises(PreconditionError):
            GrassmannianRing(5, 4)

    def test_constructor_rejects_out_of_box_keys(self):
        with pytest.raises(PreconditionError):
            ChowClass(GR24, {Partition((3,)): 1})
        with pytest.raises(PreconditionError):
            ChowClass(GR24, {(3,): 0})
        with pytest.raises(PreconditionError):
            GR24.sigma((1, 1, 1))

    def test_zero_coefficients_dropped(self):
        c = ChowClass(GR24, {Partition((1,)): 0, Partition((2,)): 3})
        assert c.terms == {Partition((2,)): 3}

    @pytest.mark.parametrize("coeff", [1.5, 0.0, "7"])
    def test_non_integral_coefficient_rejected(self, coeff):
        with pytest.raises(TypeError):
            ChowClass(GR24, {(1,): coeff})
        assert ChowClass(GR24, {(1,): True}) == GR24.sigma((1,))


class TestBasisIndex:
    @pytest.mark.parametrize("rows, cols", [(1, 1), (2, 2), (2, 3), (3, 3), (3, 5), (4, 2), (2, 0)])
    def test_index_is_lex_position(self, rows, cols):
        box = _box(rows, cols)
        basis = partitions_in_box(rows, cols)
        assert [box.rank(p.parts) for p in basis] == list(range(len(basis)))
        assert box.rank(()) == 0
        assert box.rank(basis[-1].parts) == box.last == len(basis) - 1

    def test_terms_view_interns_partitions(self):
        c = 2 * GR35.sigma((2, 1)) - GR35.sigma((1,))
        assert c.terms == {Partition((2, 1)): 2, Partition((1,)): -1}
        keys = {q.parts: q for q in c.terms}
        (p,) = GR35.sigma((2, 1)).terms
        assert keys[(2, 1)] is p
        with pytest.raises(TypeError):
            c.terms[Partition(())] = 1

    def test_table_holds_only_partitions_met(self):
        # Gr(6, 24) has 134596 basis classes; indexing never lists them.
        ring = GrassmannianRing(6, 24)
        product = ring.sigma((1,)) * ring.sigma((1,))
        assert product == ring.sigma((2,)) + ring.sigma((1, 1))
        assert integrate(point_class(ring)) == 1
        assert len(ring.box.parts) < 10


class TestPieri:
    def test_sigma1_squared_on_gr24(self):
        # Hand Pieri expansion: one box added to (1) in each admissible way.
        assert pieri(GR24.sigma((1,)), 1) == GR24.sigma((2,)) + GR24.sigma((1, 1))

    def test_a_zero_is_identity(self):
        c = GR24.sigma((2, 1)) + 3 * GR24.sigma((1,))
        assert pieri(c, 0) == c

    def test_box_truncation(self):
        # Hand Pieri with truncation: (3,1) falls outside the 2x2 box.
        assert pieri(GR24.sigma((2, 1)), 1) == GR24.sigma((2, 2))

    def test_special_class_beyond_box_kills_everything(self):
        assert pieri(GR24.one(), 3).is_zero()

    def test_negative_index_rejected(self):
        with pytest.raises(PreconditionError):
            pieri(GR24.one(), -1)


class TestMultiply:
    def test_sigma11_squared_matches_tableaux_oracle(self):
        prod = multiply(GR24.sigma((1, 1)), GR24.sigma((1, 1)))
        assert prod == GR24.sigma((2, 2))
        assert brute_lr_coefficient((1, 1), (1, 1), (2, 2)) == 1

    def test_multiplicative_identity(self):
        c = GR35.sigma((2, 1)) - 4 * GR35.sigma((1, 1, 1))
        assert multiply(c, GR35.one()) == c

    def test_sigma1_sixth_power_on_gr25(self):
        # Iterated-Pieri brute force: fold sigma_1 six times from 1.
        by_pieri = GR25.one()
        for _ in range(6):
            by_pieri = pieri(by_pieri, 1)
        assert by_pieri == 5 * GR25.sigma((3, 3))
        assert GR25.sigma((1,)) ** 6 == 5 * GR25.sigma((3, 3))

    def test_power_stops_once_zero(self, monkeypatch):
        import curvecount.grassmannian as grassmannian

        calls = []
        original = grassmannian.multiply
        monkeypatch.setattr(grassmannian, "multiply", lambda x, y: calls.append(1) or original(x, y))
        assert (GR25.sigma((1,)) ** 50).is_zero()
        assert len(calls) <= 7

    def test_negative_power_rejected(self):
        with pytest.raises(PreconditionError):
            GR25.sigma((1,)) ** -1

    def test_warm_memo_builds_no_partition(self, monkeypatch):
        ring = GrassmannianRing(3, 8)
        x = ring.sigma((2, 1)) + 3 * ring.sigma((1, 1, 1)) - ring.sigma((2,))
        y = ring.sigma((3, 2)) + ring.sigma((2, 2, 1))
        expected = multiply(x, y)
        expected_pieri = multiply(x, ring.sigma((2,)))
        built = []
        original = Partition.__init__
        monkeypatch.setattr(Partition, "__init__", lambda self, *a: built.append(a) or original(self, *a))
        assert multiply(x, y) == expected
        assert not expected.is_zero()
        assert built == []
        # A cold memo and Pieri work on parts tuples too.
        clear_product_memos()
        assert multiply(x, y) == expected
        assert pieri(x, 2) == expected_pieri
        assert built == []

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            multiply(GR24.sigma((1,)), GR25.sigma((1,)))

    def test_weight_skip_is_exact(self, monkeypatch):
        import curvecount.grassmannian as grassmannian

        basis = GR36.basis()
        for lam in basis:
            for mu in basis:
                if lam.weight + mu.weight > GR36.dim:
                    assert _lr_expansion(lam.parts, mu.parts, GR36.rows, GR36.cols) == ()
        asked = []
        original = grassmannian._lr_expansion

        def recorded(lam, mu, *box):
            asked.append(sum(lam) + sum(mu))
            return original(lam, mu, *box)

        monkeypatch.setattr(grassmannian, "_lr_expansion", recorded)
        monkeypatch.setattr(GR36.box, "products", {})
        full = ChowClass(GR36, {p: 1 for p in basis})
        assert not multiply(full, full).is_zero()
        assert asked and max(asked) <= GR36.dim

    def test_ring_axioms_on_random_classes(self):
        rng = Random(202408)
        for ring in (GR24, GR36):
            for _ in range(12):
                x, y, z = (random_class(ring, rng) for _ in range(3))
                assert multiply(x, y) == multiply(y, x)
                assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
                assert multiply(x, y + z) == multiply(x, y) + multiply(x, z)

    def test_grading(self):
        for lam in GR36.basis():
            for mu in GR36.basis():
                prod = multiply(GR36.sigma(lam), GR36.sigma(mu))
                assert prod.degrees() <= {lam.weight + mu.weight}

    def test_one_column_products_take_the_dual_pieri_rule(self, monkeypatch):
        # Every (lam, 1^i) pair of five boxes: the table entry that the
        # vertical strips fill equals the LR expansion, and the LR memo is
        # never asked for it.
        import curvecount.grassmannian as grassmannian

        asked = []
        monkeypatch.setattr(grassmannian, "_lr_expansion", lambda *key: asked.append(key))
        pairs = 0
        for rows, cols in [(2, 5), (3, 4), (3, 6), (4, 4), (4, 5)]:
            box = _box(rows, cols)
            for lam in partitions_in_box(rows, cols):
                for i in range(1, rows + 1):
                    first, second = sorted((box.rank(lam.parts), box.rank((1,) * i)))
                    expansion = box.product(first * box.size + second)
                    assert expansion == _lr_expansion(lam.parts, (1,) * i, rows, cols)
                    pairs += 1
        assert pairs == 1183
        assert asked == []

    def test_pieri_lr_agreement(self):
        for ring in (GR24, GR25, GR35, GR36):
            for lam in ring.basis():
                for a in range(1, ring.cols + 1):
                    assert multiply(ring.sigma(lam), ring.sigma((a,))) == pieri(ring.sigma(lam), a)

    def test_matches_giambelli_pieri_oracle(self):
        for ring in (GR24, GR35):
            for lam in ring.basis():
                for mu in ring.basis():
                    assert multiply(ring.sigma(lam), ring.sigma(mu)) == oracle_multiply(ring, lam, mu)

    def test_memo_cache_is_transparent(self):
        lam, mu = (2, 1), (1, 1)
        cached = _lr_expansion(lam, mu, 3, 3)
        uncached = _lr_expansion.__wrapped__(lam, mu, 3, 3)
        assert cached == uncached
        _lr_expansion.cache_clear()
        assert _lr_expansion(lam, mu, 3, 3) == cached

    @staticmethod
    def fill_table(ring, keys):
        """The product and strip tables of the ring's box, filled cold in the order of `keys`."""
        clear_product_memos()
        box = ring.box
        for key in keys:
            box.product(key)
        return dict(box.products), dict(box.strips)

    @staticmethod
    def table_keys(ring):
        """Every product-table key that `sum_of_products` asks for."""
        box = ring.box
        ids = sorted(box.rank(p.parts) for p in ring.basis())
        return [i * box.size + j for i in ids for j in ids
                if i <= j and box.weights[i] + box.weights[j] <= ring.dim]

    @pytest.mark.parametrize("r, n", [(3, 7), (4, 8)])
    def test_cold_table_fill_is_order_free_and_matches_the_oracle(self, r, n):
        ring = GrassmannianRing(r, n)
        keys = self.table_keys(ring)
        forward = self.fill_table(ring, keys)
        assert forward == self.fill_table(ring, keys[::-1])
        products = forward[0]
        assert sorted(products) == keys
        parts = ring.box.parts
        for key, expansion in products.items():
            i, j = divmod(key, ring.box.size)
            assert ChowClass._trusted(ring, dict(expansion)) == oracle_multiply(ring, parts[i], parts[j])

    def test_cold_table_fill_enumerates_each_strip_set_once(self, monkeypatch):
        import curvecount.grassmannian as grassmannian

        ring = GrassmannianRing(3, 9)
        keys = self.table_keys(ring)
        asked = []
        original = grassmannian.horizontal_strips

        def counted(base, size, rows, cols):
            asked.append((base, size, rows, cols))
            return original(base, size, rows, cols)

        monkeypatch.setattr(grassmannian, "horizontal_strips", counted)
        self.fill_table(ring, keys)
        assert asked
        assert len(set(asked)) == len(asked)
        assert {(base, size) for base, size, _, _ in asked} == set(ring.box.strips)


class TestSumOfProducts:
    """Multi-term sums against the sum of their one-term products and an LR-free oracle."""

    @staticmethod
    def terms(ring, rng, count=6):
        # Shared factors, swapped pairs and squares make terms fall on the same product keys.
        xs = [random_class(ring, rng) for _ in range(3)]
        out = [(rng.randint(-5, 5), rng.choice(xs), rng.choice(xs)) for _ in range(count)]
        x, y, s21 = xs[0], xs[1], ring.sigma((2, 1))
        # sigma_(2,1) squared has an LR coefficient 2 once there are three rows.
        return out + [(2, x, y), (-3, y, x), (1, x, x), (2, x + s21, s21)]

    @pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
    @pytest.mark.parametrize("r, n", [(2, 6), (3, 7), (3, 9)])
    def test_matches_the_sum_of_products(self, r, n, cold):
        ring = GrassmannianRing(r, n)
        rng = Random(1000 * r + n)
        oracle = {}  # basis pair -> its product without the LR rule
        for _ in range(6):
            terms = self.terms(ring, rng)
            expected = ring.zero()
            for coeff, x, y in terms:
                expected = expected + coeff * multiply(x, y)
            by_oracle = ring.zero()
            for coeff, x, y in terms:
                for p, a in x.terms.items():
                    for q, b in y.terms.items():
                        if (p, q) not in oracle:
                            oracle[p, q] = oracle_multiply(ring, p, q)
                        by_oracle = by_oracle + coeff * a * b * oracle[p, q]
            assert by_oracle == expected
            if cold:
                clear_product_memos()
            assert ring.sum_of_products(terms) == expected
            assert ring.sum_of_products(iter(terms)) == expected

    def test_terms_that_cancel_give_zero(self):
        rng = Random(7)
        for ring in (GrassmannianRing(2, 6), GrassmannianRing(3, 7)):
            x, y = random_class(ring, rng), random_class(ring, rng)
            assert ring.sum_of_products([(1, x, y), (-1, y, x)]) == ring.zero()
            assert ring.sum_of_products([(3, x, y), (-1, x, 3 * y)]) == ring.zero()
            assert ring.sum_of_products([(2, x, y), (-1, x, y), (-1, y, x), (0, x, x)]).is_zero()

    def test_ring_mismatch_in_the_last_term(self):
        ring, other = GrassmannianRing(3, 7), GrassmannianRing(3, 8)
        x = ring.sigma((2, 1)) + ring.sigma((1,))
        terms = [(1, x, x), (2, x, ring.sigma((1,))), (1, x, other.sigma((1,)))]
        with pytest.raises(RingMismatchError):
            ring.sum_of_products(terms)
        with pytest.raises(RingMismatchError):
            ring.sum_of_products(iter(terms))


class TestGiambelli:
    def test_single_row_is_special_class(self):
        for a in range(0, 4):
            assert giambelli((a,) if a else (), GR25) == GR25.sigma((a,) if a else ())

    def test_hand_determinant_gr24(self):
        # det [[s1, s2], [1, s1]] = s1*s1 - s2 = s(1,1)
        by_hand = pieri(GR24.sigma((1,)), 1) - GR24.sigma((2,))
        assert by_hand == GR24.sigma((1, 1))
        assert giambelli((1, 1), GR24) == GR24.sigma((1, 1))

    def test_hand_determinant_gr25(self):
        # det [[s2, s3], [1, s1]] = s2*s1 - s3 = s(2,1)
        by_hand = pieri(GR25.sigma((2,)), 1) - GR25.sigma((3,))
        assert by_hand == GR25.sigma((2, 1))
        assert giambelli((2, 1), GR25) == GR25.sigma((2, 1))

    def test_reproduces_basis_everywhere(self):
        for ring in (GR25, GR35):
            for lam in ring.basis():
                assert giambelli(lam, ring) == ring.sigma(lam)

    def test_out_of_box_rejected(self):
        with pytest.raises(PreconditionError):
            giambelli((3,), GR24)


class TestIntegrate:
    def test_point_class(self):
        assert integrate(GR25.sigma((3, 3))) == 1

    def test_sigma1_fourth_power_gr24(self):
        # Iterated Pieri: degree of Gr(2,4) in the Pluecker embedding.
        c = GR24.one()
        for _ in range(4):
            c = pieri(c, 1)
        assert integrate(c) == 2
        assert integrate(GR24.sigma((1,)) ** 4) == 2

    def test_below_top_degree(self):
        assert integrate(GR24.sigma((1,))) == 0

    def test_rejects_anything_but_a_schubert_class(self):
        from curvecount import ProjBundleRing, dual_universal_vector
        from curvecount.chern import ChernRing

        with pytest.raises(PreconditionError, match="not a ProjBundleElement$"):
            integrate(ProjBundleRing(dual_universal_vector(GR24)).zeta())
        with pytest.raises(PreconditionError, match="not a SymmetricPoly$"):
            integrate(ChernRing(2, 4).one())


class TestDualPartition:
    def test_full_box_complements_to_identity(self):
        assert dual_partition((2, 2), GR24) == Partition(())

    def test_box_arithmetic(self):
        assert dual_partition((1,), GR24) == Partition((2, 1))
        assert dual_partition((3, 1), GR25) == Partition((2,))

    def test_involution(self):
        for ring in (GR24, GR35):
            for lam in ring.basis():
                assert dual_partition(dual_partition(lam, ring), ring) == lam

    def test_out_of_box_rejected(self):
        with pytest.raises(PreconditionError):
            dual_partition((3,), GR24)

    def test_poincare_duality_gr24(self):
        for lam in GR24.basis():
            for mu in GR24.basis():
                if lam.weight + mu.weight != GR24.dim:
                    continue
                got = integrate(multiply(GR24.sigma(lam), GR24.sigma(mu)))
                assert got == (1 if mu == dual_partition(lam, GR24) else 0)


class TestUniversalDualChern:
    def test_degree_zero(self):
        assert universal_dual_chern(0, GR25) == GR25.one()

    def test_point_ring(self):
        point = GrassmannianRing(2, 2)
        assert universal_dual_chern(0, point) == point.one()
        assert universal_dual_chern(1, point) == point.zero()

    def test_columns(self):
        assert universal_dual_chern(2, GR25) == GR25.sigma((1, 1))
        assert universal_dual_chern(3, GR35) == GR35.sigma((1, 1, 1))

    def test_rank_exceeded(self):
        with pytest.raises(PreconditionError):
            universal_dual_chern(3, GR25)


class TestSerialization:
    def test_sorted_and_decimal(self):
        c = 3 * GR24.sigma((2,)) - GR24.sigma((1, 1)) + 10**25 * GR24.sigma((1,))
        assert c.to_payload() == [
            [[1], str(10**25)],
            [[1, 1], "-1"],
            [[2], "3"],
        ]

    def test_zero_class(self):
        assert GR24.zero().to_payload() == []
