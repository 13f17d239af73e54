from math import comb
from random import Random

import pytest

from curvecount import (
    GrassmannianRing,
    PreconditionError,
    ProjBundleElement,
    ProjBundleRing,
    RingMismatchError,
    count_curves,
    dual_universal_vector,
    integrate,
    pb_integrate,
    pb_multiply,
    pb_pushforward,
    pullback_vector,
    segre_from_chern,
    sym_power,
    tensor_line,
    trivial_vector,
    whitney_quotient,
)

from curvecount import grassmannian
from curvecount.chern import ChernRing
from curvecount.symfunc import elementary_ring_poly

from helpers import clear_product_memos, dense_class, naive_pb_multiply, random_bundle_vector, random_class, random_homogeneous_class

POINT = GrassmannianRing(1, 1)
GR24 = GrassmannianRing(2, 4)
GR35 = GrassmannianRing(3, 5)
GR36 = GrassmannianRing(3, 6)


def proj_space(n: int) -> ProjBundleRing:
    """P^(n) as the projectivization of a trivial rank-(n+1) bundle over a point."""
    return ProjBundleRing(trivial_vector(POINT, n + 1))


def random_ring(rng: Random) -> ProjBundleRing:
    base = rng.choice((GR24, GrassmannianRing(2, 5)))
    rank = rng.randint(2, 4)
    return ProjBundleRing(random_bundle_vector(base, rng, rank))


class TestRingBasics:
    def test_dimension(self):
        assert proj_space(5).dim == 5
        ring = ProjBundleRing(sym_power(dual_universal_vector(GR35), 2))
        assert ring.dim == 11
        assert ring.fiber_rank == 6
        lines = ProjBundleRing(trivial_vector(ChernRing(2, 6), 1))  # Gr(2, 5) as P(O)
        assert lines.fiber_rank == 1
        assert lines.dim == lines.base.dim == 6

    def test_adding_an_element_of_another_bundle_is_refused(self):
        with pytest.raises(RingMismatchError, match="^elements live on different projective bundles$"):
            proj_space(2).one() + proj_space(3).one()

    def test_rank_zero_rejected(self):
        with pytest.raises(PreconditionError):
            ProjBundleRing(trivial_vector(POINT, 0))

    # (base, a class that is not on it): another Grassmannian, a polynomial
    # in another number of Chern classes, and a class of the other kind.
    FOREIGN = [
        (GR24, GR35.one()),
        (ChernRing(3, 4), ChernRing(2, 4).one()),
        (ChernRing(3, 4), GR24.one()),
        (GR24, ChernRing(2, 4).one()),
    ]

    def test_pullback_requires_base_class(self):
        for base, foreign in self.FOREIGN:
            ring = ProjBundleRing(trivial_vector(base, 2))
            with pytest.raises(RingMismatchError, match="^coefficient lives in"):
                ring.pullback(foreign)
        with pytest.raises(RingMismatchError, match="^coefficient is of type int, not an element of a ring$"):
            ProjBundleRing(dual_universal_vector(GR24)).pullback(3)

    def test_constructor_requires_base_coefficients(self):
        for base, foreign in self.FOREIGN:
            ring = ProjBundleRing(trivial_vector(base, 2))
            with pytest.raises(RingMismatchError, match="^coefficient lives in"):
                ProjBundleElement(ring, [base.one(), foreign])


class TestMultiplication:
    def test_identity(self):
        rng = Random(31)
        ring = random_ring(rng)
        x = ring.pullback(random_class(ring.base, rng)) * ring.zeta()
        assert pb_multiply(x, ring.one()) == x

    def test_projective_space_relation(self):
        # In P^5 the relation is z^6 = 0.
        p5 = proj_space(5)
        z5 = p5.zeta() ** 5
        assert not z5.is_zero()
        assert pb_multiply(z5, p5.zeta()).is_zero()

    def test_power_stops_once_zero(self, monkeypatch):
        import curvecount.projbundle as projbundle

        calls = []
        original = projbundle.pb_multiply
        monkeypatch.setattr(projbundle, "pb_multiply", lambda x, y: calls.append(1) or original(x, y))
        assert (proj_space(5).zeta() ** 50).is_zero()
        assert len(calls) <= 6

    def test_negative_power_rejected(self):
        with pytest.raises(PreconditionError):
            proj_space(3).zeta() ** -1

    @pytest.mark.parametrize("exponent, kind", [(2.0, "float"), ("2", "str")])
    def test_non_integer_power_rejected(self, exponent, kind):
        with pytest.raises(TypeError, match=f"^'{kind}' object cannot be interpreted as an integer$"):
            proj_space(3).zeta() ** exponent

    def test_bool_and_huge_powers(self):
        zeta = proj_space(3).zeta()
        assert zeta ** True == zeta ** 1 == zeta
        assert (zeta ** 10**30).is_zero()

    def test_power_with_a_degree_zero_part_squares(self, monkeypatch):
        import curvecount.projbundle as projbundle

        p3, p = proj_space(3), 10**12
        zeta = p3.zeta()
        expected = p3.zero()
        for j in range(4):
            expected = expected + comb(p, j) * zeta ** j
        calls = []
        original = projbundle.pb_multiply

        def capped(x, y):
            calls.append(1)
            assert len(calls) <= 2 * p.bit_length(), "a product per unit of the exponent"
            return original(x, y)

        monkeypatch.setattr(projbundle, "pb_multiply", capped)
        assert (p3.one() + zeta) ** p == expected

    def test_power_matches_repeated_products(self):
        rng = Random(33)
        for _ in range(4):
            ring = random_ring(rng)
            x = ring.pullback(random_class(ring.base, rng)) + ring.zeta()
            product = ring.one()
            for k in range(ring.dim + 2):
                assert x ** k == product
                product = product * x

    def test_rank_one_bundle_collapses_zeta(self):
        # s = 1: the fiber is a point and z reduces to -c1(E).
        rng = Random(32)
        c1 = random_homogeneous_class(GR24, rng, 1)
        from curvecount import ChernVector

        ring = ProjBundleRing(ChernVector(GR24, 1, [GR24.one(), c1]))
        assert ring.zeta() == ring.pullback(-c1)

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            pb_multiply(proj_space(2).zeta(), proj_space(3).zeta())

    def test_one_ring_object_is_not_compared_by_its_bundle(self, monkeypatch):
        from curvecount import ChernVector

        calls = []
        original = ChernVector.__eq__
        monkeypatch.setattr(ChernVector, "__eq__", lambda self, other: calls.append(1) or original(self, other))
        ring = ProjBundleRing(sym_power(dual_universal_vector(GR24), 2))
        x, y = ring.zeta(), ring.pullback(GR24.sigma((1,)))
        pb_multiply(x, y)
        x + y
        assert calls == []

    def test_arithmetic_does_not_compare_base_rings(self, monkeypatch):
        calls = []
        original = GrassmannianRing.__eq__
        monkeypatch.setattr(GrassmannianRing, "__eq__", lambda self, other: calls.append(1) or original(self, other))
        ring = ProjBundleRing(sym_power(dual_universal_vector(GR24), 2))
        x, y = ring.zeta(), ring.pullback(GR24.sigma((1,)))
        calls.clear()
        pb_multiply(x, y)
        -x
        3 * x
        assert calls == []
        x + y
        assert len(calls) == ring.fiber_rank  # one per coefficient sum, none to rebuild the element

    def test_reduction_confluence(self):
        # Reducing z^(s+k) in one construction agrees with multiplying by z
        # one step at a time.
        rng = Random(33)
        for _ in range(12):
            ring = random_ring(rng)
            s = ring.fiber_rank
            k = rng.randint(0, 6)
            direct = ProjBundleElement(
                ring, [ring.base.zero()] * (s + k) + [ring.base.one()]
            )
            incremental = ring.one()
            for _ in range(s + k):
                incremental = incremental * ring.zeta()
            assert direct == incremental


KERNEL_RINGS = (
    ProjBundleRing(sym_power(dual_universal_vector(GR36), 2)),
    ProjBundleRing(dual_universal_vector(GrassmannianRing(2, 5))),
)


def dense_element(ring: ProjBundleRing, rng: Random) -> ProjBundleElement:
    return ProjBundleElement(ring, [dense_class(ring.base, rng) for _ in range(ring.fiber_rank)])


class TestSumOfProducts:
    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=repr)
    def test_pb_multiply_matches_naive_product(self, ring):
        rng = Random(41)
        for _ in range(3):
            x, y = dense_element(ring, rng), dense_element(ring, rng)
            assert pb_multiply(x, y) == naive_pb_multiply(x, y)

    @pytest.mark.parametrize("ring", (GR36,) + KERNEL_RINGS, ids=repr)
    def test_matches_sum_of_star_products(self, ring):
        rng = Random(42)
        element = dense_class if isinstance(ring, GrassmannianRing) else dense_element
        terms = [(scale, element(ring, rng), element(ring, rng)) for scale in (-3, 0, 1, 5)]
        expected = ring.zero()
        for scale, x, y in terms:
            expected = expected + scale * (x * y)
        assert ring.sum_of_products(terms) == expected
        assert ring.sum_of_products([]) == ring.zero()

    @pytest.mark.parametrize("ring", (GR36,) + KERNEL_RINGS, ids=repr)
    def test_term_from_another_ring_rejected(self, ring):
        other = GR35 if isinstance(ring, GrassmannianRing) else proj_space(2)
        with pytest.raises(RingMismatchError):
            ring.sum_of_products([(1, ring.one(), ring.one()), (2, ring.one(), other.one())])


class TestPushforward:
    def test_fiber_degree(self):
        rng = Random(34)
        ring = random_ring(rng)
        top_fiber = ring.zeta() ** (ring.fiber_rank - 1)
        assert pb_pushforward(top_fiber) == ring.base.one()

    def test_dimension_drop_kills_one(self):
        rng = Random(35)
        ring = random_ring(rng)
        assert ring.fiber_rank >= 2
        assert pb_pushforward(ring.one()).is_zero()

    def test_zeta_to_rank_gives_first_segre(self):
        # z^s reduces via the defining relation; its image downstairs is
        # s_1(E) = -c_1(E), matching the series inverse.
        rng = Random(36)
        for _ in range(8):
            ring = random_ring(rng)
            pushed = pb_pushforward(ring.zeta() ** ring.fiber_rank)
            assert pushed == -ring.bundle.component(1)
            assert pushed == segre_from_chern(ring.bundle, 1)[1]

    def test_higher_zeta_powers_match_segre_series(self):
        rng = Random(37)
        for _ in range(8):
            ring = random_ring(rng)
            segre = segre_from_chern(ring.bundle, ring.base.dim)
            for j in range(ring.base.dim + 1):
                pushed = pb_pushforward(ring.zeta() ** (ring.fiber_rank - 1 + j))
                assert pushed == segre[j] == segre_from_chern(ring.bundle, j)[j]
            assert segre_from_chern(ring.bundle, ring.base.dim + 1)[-1].is_zero()

    def test_projection_formula(self):
        rng = Random(38)
        for _ in range(12):
            ring = random_ring(rng)
            a = random_class(ring.base, rng)
            x = ring.pullback(random_class(ring.base, rng)) * (
                ring.zeta() ** rng.randint(0, ring.fiber_rank - 1)
            )
            left = pb_pushforward(pb_multiply(ring.pullback(a), x))
            right = a * pb_pushforward(x)
            assert left == right

    def test_trivial_line_bundle_is_its_base(self):
        # P(O) over Z[c_1, c_2] in degree <= 6 is Gr(2, 5) itself, the moduli space of lines.
        base = ChernRing(2, 6)
        ring = ProjBundleRing(trivial_vector(base, 1))
        rng = Random(40)
        monomials = [(a, b) for a in range(7) for b in range(4) if a + 2 * b <= 6]
        for _ in range(6):
            x, y = (elementary_ring_poly(2, {e: rng.randint(-9, 9) for e in monomials}) for _ in range(2))
            assert pb_pushforward(ring.pullback(x)) == x
            assert ring.pullback(x) * ring.pullback(y) == ring.pullback(x.mul_truncated(y, ring.dim))
            assert (x * y).degree() > ring.dim  # the product does truncate

    def test_degree_bookkeeping(self):
        rng = Random(39)
        for _ in range(8):
            ring = random_ring(rng)
            d = rng.randint(0, ring.base.dim)
            i = rng.randint(0, ring.fiber_rank - 1)
            x = ring.pullback(random_homogeneous_class(ring.base, rng, d)) * ring.zeta() ** i
            pushed = pb_pushforward(x)
            assert pushed.degrees() <= {d + i - (ring.fiber_rank - 1)}


class TestIntegration:
    def test_projective_space_point_degree(self):
        p5 = proj_space(5)
        assert pb_integrate(p5.zeta() ** 5) == 1

    def test_projective_space_cohomology(self):
        # P(trivial rank-s over a point) integrates z^i to 1 only at i = s-1.
        for s in (1, 2, 4, 6):
            ring = proj_space(s - 1)
            for i in range(s + 2):
                expected = 1 if i == s - 1 else 0
                assert pb_integrate(ring.zeta() ** i) == expected

    def test_chern_ring_base_is_not_integrated(self):
        ring = ProjBundleRing(ChernRing(2, 4).sym_power(2))
        top = ring.pullback(ChernRing(2, 4).generators().component(1)) ** 4 * ring.zeta() ** 2
        assert not pb_pushforward(top).is_zero()
        with pytest.raises(PreconditionError, match="not a SymmetricPoly$"):
            pb_integrate(top)

    def test_wrong_total_degree_is_zero(self):
        rng = Random(40)
        ring = random_ring(rng)
        x = ring.pullback(random_homogeneous_class(ring.base, rng, 1)) * ring.zeta()
        assert 2 != ring.dim
        assert pb_integrate(x) == 0


class TestPullbackVector:
    def test_components_are_pulled_back(self):
        ring = ProjBundleRing(sym_power(dual_universal_vector(GR35), 2))
        cu = dual_universal_vector(GR35)
        lifted = pullback_vector(ring, cu)
        assert lifted.rank == cu.rank
        for i in range(cu.rank + 1):
            assert lifted.component(i) == ring.pullback(cu.component(i))

    def test_base_mismatch(self):
        ring = ProjBundleRing(trivial_vector(GR24, 2))
        with pytest.raises(RingMismatchError):
            pullback_vector(ring, trivial_vector(GR35, 1))


CONIC_CASES = [
    (4, [5], 609250),
    (5, [1, 5], 609250),
    (5, [2, 4], 92288),
    (6, [8], 21553784182784),
    (8, [11], 6879170927773883986896),
    (9, [3, 3, 3, 2], 2422165923),
]


class TestConicChain:
    """The public P(E) route of demos/conics_on_quintic.py against `count_curves`,
    which sums Bott's formula instead: the layered route is the conic counts'
    check by a route that shares no code with them.

    The moduli space is P(Sym^2 U*) over Gr(3, n+1); each degree-d equation
    gives the forms bundle Sym^d U* / (Sym^(d-2) U* (x) O(-z)), Sym^1 U* for
    d = 1 and Sym^0 the trivial line for d = 2.  The chain runs over two
    bases: the Grassmannian itself, and `ChernRing(3, dim)`, whose pushed
    forward class one evaluator maps to the Grassmannian before it is
    integrated.
    """

    @staticmethod
    def chain(n: int, degrees: list[int], presentation: bool) -> int:
        gr = GrassmannianRing(3, n + 1)
        cu = dual_universal_vector(gr)
        base = ChernRing(3, gr.dim)
        sym = base.sym_power if presentation else (lambda d: sym_power(cu, d))
        moduli = ProjBundleRing(sym(2))
        top = moduli.one()
        for d in degrees:
            forms = pullback_vector(moduli, sym(d))
            if d > 1:
                lower = pullback_vector(moduli, sym(d - 2)) if d > 2 else trivial_vector(moduli, 1)
                forms = whitney_quotient(forms, tensor_line(lower, -moduli.zeta()), moduli.dim)
            top = top * forms.top()
        if presentation:
            return integrate(base.evaluator(cu)(pb_pushforward(top)))
        return pb_integrate(top)

    @pytest.mark.parametrize("n, degrees, count", CONIC_CASES)
    def test_chain_matches_count_curves(self, n, degrees, count):
        expected = count_curves("conics", n, degrees).count
        for presentation in (False, True):
            assert self.chain(n, degrees, presentation) == count == expected

    def test_chern_ring_chain_matches_count_curves_in_p10(self):
        # A ladder rung past CONIC_CASES, on the ChernRing base alone (about 0.5 s cold).
        count = 10747520834813687952698384377664
        assert self.chain(10, [14], presentation=True) == count == count_curves("conics", 10, [14]).count

    @pytest.mark.parametrize("n, degrees, count", CONIC_CASES)
    def test_chern_ring_base_never_calls_lr(self, monkeypatch, n, degrees, count):
        clear_product_memos()
        asked = []
        original = grassmannian._lr_expansion
        monkeypatch.setattr(grassmannian, "_lr_expansion", lambda *key: asked.append(key) or original(*key))
        assert self.chain(n, degrees, presentation=True) == count
        assert asked == []
