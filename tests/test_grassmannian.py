import copy
import pickle
from math import comb
from random import Random

import pytest

from curvecount import (
    ChowClass,
    GrassmannianRing,
    Partition,
    PreconditionError,
    ProjBundleRing,
    RingMismatchError,
    dual_partition,
    dual_universal_vector,
    giambelli,
    integrate,
    multiply,
    pb_pushforward,
    pieri,
    pullback_vector,
    sym_power,
    tensor_line,
    universal_dual_chern,
    whitney_quotient,
)
from curvecount.chern import ChernRing
from curvecount.grassmannian import _lr_chains, _lr_expansion, _lr_three_rows
from curvecount.partitions import partitions_in_box

from helpers import brute_lr_coefficient, cap_products, clear_product_memos, oracle_multiply, point_class, random_class

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

    def test_one_ring_per_size(self):
        assert GrassmannianRing(2, 5) is GR25
        assert GrassmannianRing(2, 4) is not GR25
        # Rings compare by identity.
        assert "__eq__" not in vars(GrassmannianRing) and "__hash__" not in vars(GrassmannianRing)

    @pytest.mark.parametrize("r, n", [(2.0, 5), ("2", 5), (2, 5.0)])
    def test_non_integral_size_rejected_after_the_ring_exists(self, r, n):
        assert GrassmannianRing(2, 5).dim == 6
        with pytest.raises(TypeError):
            GrassmannianRing(r, n)

    def test_copies_land_on_the_same_ring(self):
        c = 2 * GR35.sigma((2, 1)) - GR35.sigma((1,))
        copied = copy.deepcopy(c)
        assert copied.ring is GR35
        assert copied == c
        assert copy.copy(GR35) is GR35
        assert pickle.loads(pickle.dumps(GR35)) is GR35
        assert pickle.loads(pickle.dumps(c)) == c

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

    def test_adding_a_class_of_another_ring_is_refused(self):
        with pytest.raises(RingMismatchError, match=r"^classes live on Gr\(2,4\) and Gr\(2,5\)$"):
            GR24.sigma((1,)) + GR25.sigma((1,))

    def test_coefficient_outside_the_box_is_zero(self):
        c = 2 * GR24.sigma((2, 1)) + GR24.sigma((1,))
        assert c.coefficient((2, 1)) == 2
        assert c.coefficient((3,)) == 0
        assert c.coefficient(Partition((1, 1, 1))) == 0

    @pytest.mark.parametrize("coeff", [1.5, 0.0, "7"])
    def test_non_integral_coefficient_rejected(self, coeff):
        with pytest.raises(TypeError):
            ChowClass(GR24, {(1,): coeff})
        assert ChowClass(GR24, {(1,): True}) == GR24.sigma((1,))


class TestBasisIndex:
    @pytest.mark.parametrize("rows, cols", [(1, 1), (2, 2), (2, 3), (3, 3), (3, 5), (4, 2), (2, 0)])
    def test_index_is_lex_position(self, rows, cols):
        ring = GrassmannianRing(rows, rows + cols)
        basis = partitions_in_box(rows, cols)
        assert [ring.rank(p.parts) for p in basis] == list(range(len(basis)))
        assert ring.rank(()) == 0
        assert ring.rank(basis[-1].parts) == ring.last == len(basis) - 1

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
        assert len(ring.parts) < 10


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

    @pytest.mark.parametrize("exponent, kind", [(2.0, "float"), ("2", "str")])
    def test_non_integer_power_rejected(self, exponent, kind):
        with pytest.raises(TypeError, match=f"^'{kind}' object cannot be interpreted as an integer$"):
            GR25.sigma((1,)) ** exponent

    def test_bool_and_huge_powers(self):
        sigma1 = GR25.sigma((1,))
        assert sigma1 ** True == sigma1 ** 1 == sigma1
        assert (sigma1 ** 10**30).is_zero()

    def test_power_of_a_class_with_a_degree_zero_part_takes_at_most_dim_products(self, monkeypatch):
        sigma1 = GR24.sigma((1,))
        p = 10**6
        expected = GR24.zero()
        for j in range(GR24.dim + 1):
            expected = expected + comb(p, j) * sigma1 ** j
        cap_products(monkeypatch)
        assert GR24.one() ** 10**12 == GR24.one()
        assert (GR24.one() + sigma1) ** p == expected
        assert (-1 * GR24.one()) ** (10**12 + 1) == -1 * GR24.one()

    def test_power_matches_repeated_products(self):
        rng = Random(19)
        for _ in range(10):
            x = random_class(GR24, rng)
            product = GR24.one()
            for k in range(GR24.dim + 3):
                assert x ** k == product
                product = product * x

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

    def test_a_factor_that_is_no_ring_element(self):
        # An int in either place, through the one-term call and the kernel.
        x = GR24.sigma((1,))
        for call in (lambda: multiply(GR24.one(), 2), lambda: multiply(2, GR24.one()),
                     lambda: GR24.sum_of_products([(1, x, 2)]), lambda: GR24.sum_of_products([(1, 2, x)]),
                     lambda: GR24.sum_of_products([(1, GR25.one(), 2)])):
            with pytest.raises(RingMismatchError, match="^factor is of type int, not an element of a ring$"):
                call()
        # A packed polynomial names its variable count.
        with pytest.raises(RingMismatchError, match=r"^factor lives in a ring in 2 variables, not in Gr\(2,4\)$"):
            GR24.sum_of_products([(1, x, ChernRing(2, 4).one())])
        with pytest.raises(RingMismatchError, match="^factor lives in a ring in 2 variables, not in a Grassmannian$"):
            multiply(ChernRing(2, 4).one(), x)

    def test_weight_skip_is_exact(self, monkeypatch):
        # The kernel checks no pair's weight: in boxes of 1 to 5 rows, the LR
        # rule gives no shape for a pair whose weights sum past the dimension.
        for rows, cols in [(1, 5), (2, 4), (3, 3), (4, 4), (5, 4)]:
            ring = GrassmannianRing(rows, rows + cols)
            dim = rows * cols
            box = [p.parts for p in partitions_in_box(rows, cols)]
            past = 0
            for lam in box:
                for mu in box:
                    if sum(lam) + sum(mu) > dim:
                        assert _lr_expansion(lam, mu, ring) == ()
                        past += 1
            assert past
        basis = GR36.basis()
        monkeypatch.setattr(GR36, "products", {})
        full = ChowClass(GR36, {p: 1 for p in basis})
        expected = GR36.zero()
        for lam in basis:
            for mu in basis:
                expected = expected + oracle_multiply(GR36, lam, mu)
        assert multiply(full, full) == expected and not expected.is_zero()
        # Every pair was asked; those past the dimension hold the empty expansion.
        weights, size = GR36.weights, GR36.size
        past = [key for key in GR36.products if sum(weights[i] for i in divmod(key, size)) > GR36.dim]
        assert len(GR36.products) == size * size and past
        assert all(GR36.products[key] == () for key in past)

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

    def test_one_column_products_match_the_oracle_cold(self):
        # Every (lam, 1^i) pair of five boxes, filled from cold tables by the
        # LR rule: the three-row count and, on four rows, the strip chains
        # with the column as their word.  The oracle is Giambelli plus Pieri.
        clear_product_memos()
        pairs = 0
        for rows, cols in [(2, 5), (3, 4), (3, 6), (4, 4), (4, 5)]:
            ring = GrassmannianRing(rows, rows + cols)
            for lam in partitions_in_box(rows, cols):
                for i in range(1, rows + 1):
                    first, second = sorted((ring.rank(lam.parts), ring.rank((1,) * i)))
                    expansion = ring.product(first * ring.size + second)
                    assert ChowClass._trusted(ring, dict(expansion)) == oracle_multiply(ring, lam, (1,) * i)
                    pairs += 1
        assert pairs == 1183

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

    @pytest.mark.parametrize("r, n", [(3, 7), (4, 8)])
    def test_the_product_table_is_the_one_memo(self, r, n):
        # A cold full * full fills every unordered pair once.  The LR rule
        # keeps no entry of its own and counts one miss per pair it fills.
        ring = GrassmannianRing(r, n)
        basis = ring.basis()
        full = ChowClass(ring, {p: 1 for p in basis})
        clear_product_memos()
        before = _lr_expansion.cache_info()
        assert not multiply(full, full).is_zero()
        after = _lr_expansion.cache_info()
        assert after.currsize == 0
        assert after.misses - before.misses == ring.size * (ring.size + 1) // 2
        assert len(ring.products) == ring.size ** 2
        for i, lam in enumerate(basis):
            for mu in basis[i:]:
                expansion = ring.products[ring.rank(lam.parts) * ring.size + ring.rank(mu.parts)]
                assert ChowClass._trusted(ring, dict(expansion)) == oracle_multiply(ring, lam, mu)

    @pytest.mark.parametrize("r, n", [(3, 7), (4, 8)])
    def test_stored_expansions_are_index_ordered_and_shared(self, r, n):
        # Both rules count into basis indices, and the table keeps each
        # expansion as the rule returns it: one tuple under a key and its
        # mirror, indices strictly increasing, every coefficient positive.
        ring = GrassmannianRing(r, n)
        full = ChowClass(ring, {p: 1 for p in ring.basis()})
        clear_product_memos()
        multiply(full, full)
        size = ring.size
        assert len(ring.products) == size ** 2
        for key, expansion in ring.products.items():
            i, j = divmod(key, size)
            assert type(expansion) is tuple and ring.products[j * size + i] is expansion
            indices = [k for k, _ in expansion]
            assert indices == sorted(set(indices))
            assert all(m > 0 for _, m in expansion)
        assert max(m for expansion in ring.products.values() for _, m in expansion) > 1

    @staticmethod
    def fill_table(ring, keys):
        """The product and strip tables of the ring, filled cold in the order of `keys`."""
        clear_product_memos()
        for key in keys:
            ring.product(key)
        return dict(ring.products), dict(ring.strips)

    @staticmethod
    def table_keys(ring):
        """Every ordered-pair key i * size + j whose weights fit the ring
        dimension: the keys `sum_of_products` can ask for, each pair in both orders."""
        ids = sorted(ring.rank(p.parts) for p in ring.basis())
        return [i * ring.size + j for i in ids for j in ids
                if ring.weights[i] + ring.weights[j] <= ring.dim]

    @pytest.mark.parametrize("r, n", [(3, 7), (4, 8)])
    def test_cold_table_fill_is_order_free_and_matches_the_oracle(self, r, n):
        ring = GrassmannianRing(r, n)
        keys = self.table_keys(ring)
        forward = self.fill_table(ring, keys)
        assert forward == self.fill_table(ring, keys[::-1])
        products = forward[0]
        assert sorted(products) == keys
        parts = ring.parts
        for key, expansion in products.items():
            i, j = divmod(key, ring.size)
            assert ChowClass._trusted(ring, dict(expansion)) == oracle_multiply(ring, parts[i], parts[j])

    def test_cold_table_fill_enumerates_each_strip_set_once(self, monkeypatch):
        # Boxes of four or more rows take the strip chains; three rows take none.
        import curvecount.grassmannian as grassmannian

        ring = GrassmannianRing(4, 8)
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
        assert {(base, size) for base, size, _, _ in asked} == set(ring.strips)

    def test_three_row_fill_asks_for_no_strips(self):
        ring = GrassmannianRing(3, 9)
        products, strips = self.fill_table(ring, self.table_keys(ring))
        assert len(products) == 3778  # 1912 unordered pairs
        assert strips == {}

    @pytest.mark.parametrize("r, n", [(3, 7), (4, 8)])
    def test_cold_fill_looks_up_no_ring(self, monkeypatch, r, n):
        # The ring ranks the shapes itself and hands itself to the LR rule,
        # so no fill asks for its ring by (r, N): the three-row count needs
        # none, and the four-row strip chains read the ring's strip table.
        import curvecount.grassmannian as grassmannian

        def refused(*args):
            raise AssertionError(f"GrassmannianRing{args} looked up")

        ring = GrassmannianRing(r, n)
        keys = self.table_keys(ring)
        clear_product_memos()
        monkeypatch.setattr(grassmannian, "GrassmannianRing", refused)
        for key in keys:
            ring.product(key)
        assert sorted(ring.products) == keys

    def test_three_row_count_matches_the_strip_chains(self):
        # Every ordered pair in every box of 1 to 3 rows and up to 8 columns:
        # both rules count by basis index of the ring, and the chains hold
        # no index the count lacks.
        pairs = 0
        for rows in (1, 2, 3):
            for cols in range(9):
                ring = GrassmannianRing(rows, rows + cols)
                box = [p.parts for p in partitions_in_box(rows, cols)]
                for lam in box:
                    for mu in box:
                        assert _lr_three_rows(lam, mu, ring) == _lr_chains(lam, mu, ring)
                        pairs += 1
        assert pairs == 58761

    def test_three_row_count_matches_brute_force_tableaux(self):
        # A seeded sample of the pairs that fit the dimension of Gr(3, 9),
        # each against every shape of its weight, looked up by basis index.
        ring = GrassmannianRing(3, 9)
        box = [p.parts for p in ring.basis()]
        rng = Random(24)
        pairs = 0
        while pairs < 200:
            lam, mu = rng.choice(box), rng.choice(box)
            weight = sum(lam) + sum(mu)
            if weight > ring.dim:
                continue
            counts = _lr_three_rows(lam, mu, ring)
            assert all(ring.weights[k] == weight for k in counts)
            for nu in ring.basis(weight):
                assert counts.get(ring.rank(nu.parts), 0) == brute_lr_coefficient(lam, mu, nu.parts)
            pairs += 1


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


class _CountingWeights(dict):
    """A ring's weight table that counts its lookups."""

    lookups = 0

    def __getitem__(self, i):
        self.lookups += 1
        return dict.__getitem__(self, i)


class TestWeightSpans:
    """The per-term lowest-weight check of `sum_of_products` and its table
    of ordered-pair keys, against the LR-free oracle."""

    @staticmethod
    def oracle(x, y):
        out = x.ring.zero()
        for p, a in x.terms.items():
            for q, b in y.terms.items():
                out = out + a * b * oracle_multiply(x.ring, p, q)
        return out

    @staticmethod
    def counted(ring, monkeypatch, *classes):
        """Count weight lookups and table fills on `ring` from here on, with
        the lowest weights of `classes` already known.  Every partition of
        the box is ranked first, so the counting copy of the weight table
        gains no entry that the ring's own table would lack once the patch
        is undone."""
        for c in classes:
            c._lowest_weight()
        for p in ring.basis():
            ring.rank(p.parts)
        weights = _CountingWeights(ring.weights)
        monkeypatch.setattr(ring, "weights", weights)
        filled = []
        original = GrassmannianRing.product
        monkeypatch.setattr(GrassmannianRing, "product", lambda self, key: filled.append(key) or original(self, key))
        return weights, filled

    def test_lowest_weight_is_kept_and_survives_a_pickle(self):
        x = 2 * GR36.sigma((1,)) - GR36.sigma((3, 2)) + GR36.sigma((2, 2, 2))
        with pytest.raises(AttributeError):
            x._low  # computed on first use
        assert x._lowest_weight() == min(x.degrees()) == 1
        assert x._low == 1
        copied = pickle.loads(pickle.dumps(x))
        assert copied._low == 1
        assert copied == x and multiply(copied, x) == self.oracle(x, x)
        assert GR36.zero()._lowest_weight() == GR36.dim + 1

    def test_terms_within_and_across_the_dimension_in_one_sum(self, monkeypatch):
        ring = GrassmannianRing(3, 7)  # dimension 12
        # Weights 1, 5 and 10 times 0, 4 and 10: the term straddles the dimension.
        x = ring.sigma((1,)) + 2 * ring.sigma((2, 2, 1)) - ring.sigma((4, 4, 2))
        y = 3 * ring.one() - ring.sigma((3, 1)) + ring.sigma((4, 3, 3))
        # Weights 2, 3 and 3 times 9: every pair fits, and the longer class comes first.
        u = ring.sigma((2,)) - ring.sigma((2, 1)) + 4 * ring.sigma((1, 1, 1))
        v = 5 * ring.sigma((3, 3, 3))
        assert max(x.degrees()) + max(y.degrees()) > ring.dim >= min(x.degrees()) + min(y.degrees())
        assert max(u.degrees()) + max(v.degrees()) <= ring.dim
        expected = self.oracle(x, y) - 2 * self.oracle(u, v)
        assert not expected.is_zero()
        clear_product_memos()
        weights, _ = self.counted(ring, monkeypatch, x, y, u, v)
        assert ring.sum_of_products([(-2, u, v)]) == -2 * self.oracle(u, v)
        assert weights.lookups == 0  # no pair of a term that fits is checked
        assert ring.sum_of_products([(1, x, y), (-2, u, v)]) == expected
        assert weights.lookups == 0  # nor of one that straddles the dimension

    @pytest.mark.parametrize("r, n", [(2, 6), (3, 7), (4, 8)])
    def test_mixed_degree_products_match_the_oracle(self, r, n):
        # Random classes of several degrees on cold tables, some of their
        # terms straddling the dimension; the four-row box takes the strip chains.
        ring = GrassmannianRing(r, n)
        rng = Random(33 * r + n)
        clear_product_memos()
        straddling = 0
        for _ in range(12):
            x, y = random_class(ring, rng), random_class(ring, rng)
            xs, ys = x.degrees() or {0}, y.degrees() or {0}
            straddling += max(xs) + max(ys) > ring.dim >= min(xs) + min(ys)
            assert multiply(x, y) == self.oracle(x, y)
        assert straddling
        # (sigma_1 + sigma_2) ** p against p steps of Pieri by sigma_1 and
        # sigma_2, up to the first power that vanishes.
        s = ring.sigma((1,)) + ring.sigma((2,))
        by_pieri = ring.one()
        for p in range(ring.dim + 2):
            assert s ** p == by_pieri
            by_pieri = pieri(by_pieri, 1) + pieri(by_pieri, 2)
        assert (s ** ring.dim).degrees() == {ring.dim} and (s ** (ring.dim + 1)).is_zero()

    def test_a_term_past_the_dimension_is_dropped_whole(self, monkeypatch):
        # Weights 5 and 7 times 5 and 6 on Gr(3, 6), of dimension 9: no pair fits.
        x = GR36.sigma((3, 2)) + GR36.sigma((3, 3, 1))
        y = GR36.sigma((2, 2, 1)) - 7 * GR36.sigma((3, 3))
        s1 = GR36.sigma((1,))
        assert self.oracle(x, y).is_zero()
        clear_product_memos()
        weights, filled = self.counted(GR36, monkeypatch, x, y, s1)
        assert GR36.sum_of_products([(1, x, y), (2, s1, x), (3, y, x)]) == 2 * self.oracle(s1, x)
        assert weights.lookups == 0
        assert len(filled) == 2  # s1 times each term of x, nothing for x and y

    def test_both_key_orders_in_one_sum(self, monkeypatch):
        ring = GrassmannianRing(3, 7)
        rng = Random(22)
        x, y = random_class(ring, rng), random_class(ring, rng)
        expected = self.oracle(x, y)
        assert expected == self.oracle(y, x) and not expected.is_zero()
        clear_product_memos()
        _, filled = self.counted(ring, monkeypatch)
        assert ring.sum_of_products([(1, x, y), (2, y, x)]) == 3 * expected
        assert multiply(x, y) == multiply(y, x) == expected
        unordered = [tuple(sorted(divmod(key, ring.size))) for key in filled]
        assert len(set(unordered)) == len(unordered)
        for i, j in unordered:
            assert ring.products[i * ring.size + j] is ring.products[j * ring.size + i]

    def test_a_cold_conic_chain_fills_each_unordered_key_once(self, monkeypatch):
        # Conics on a degree-11 hypersurface in P^8, in the Schubert basis of Gr(3, 9).
        base = GrassmannianRing(3, 9)
        clear_product_memos()
        _, filled = self.counted(base, monkeypatch)
        before = _lr_expansion.cache_info()
        cu = dual_universal_vector(base)
        total = ProjBundleRing(sym_power(cu, 2))
        forms = pullback_vector(total, sym_power(cu, 11))
        divisible = tensor_line(pullback_vector(total, sym_power(cu, 9)), -total.zeta())
        quotient = whitney_quotient(forms, divisible, total.dim)
        assert integrate(pb_pushforward(quotient.top())) == 6879170927773883986896
        after = _lr_expansion.cache_info()
        pairs = [divmod(key, base.size) for key in filled]
        unordered = {(min(i, j), max(i, j)) for i, j in pairs}
        assert len(unordered) == len(pairs)
        # The table is the one memo: the LR rule keeps nothing and missed
        # once for each pair it filled.
        assert after.currsize == 0
        assert after.misses - before.misses == len(unordered) > 0
        assert {key for i, j in unordered for key in (i * base.size + j, j * base.size + i)} == set(base.products)
        for i, j in unordered:
            expansion = base.products[i * base.size + j]
            assert base.products[j * base.size + i] is expansion
            assert ChowClass._trusted(base, dict(expansion)) == oracle_multiply(base, base.parts[i], base.parts[j])


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
