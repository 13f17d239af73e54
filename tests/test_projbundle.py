from random import Random

import pytest

from curvecount import (
    GrassmannianRing,
    PreconditionError,
    ProjBundleElement,
    ProjBundleRing,
    RingMismatchError,
    dual_universal_vector,
    pb_integrate,
    pb_multiply,
    pb_pushforward,
    pullback_vector,
    segre_from_chern,
    sym_power,
    trivial_vector,
)

from helpers import random_bundle_vector, random_class, random_homogeneous_class

POINT = GrassmannianRing(1, 1)
GR24 = GrassmannianRing(2, 4)
GR35 = GrassmannianRing(3, 5)


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

    def test_rank_zero_rejected(self):
        with pytest.raises(PreconditionError):
            ProjBundleRing(trivial_vector(POINT, 0))

    def test_pullback_requires_base_class(self):
        ring = ProjBundleRing(trivial_vector(GR24, 2))
        with pytest.raises(RingMismatchError):
            ring.pullback(GR35.one())


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
            assert pushed == -ring.chern(1)
            assert pushed == segre_from_chern(ring.bundle, 1)[1]

    def test_higher_zeta_powers_match_segre_series(self):
        rng = Random(37)
        for _ in range(8):
            ring = random_ring(rng)
            segre = segre_from_chern(ring.bundle, ring.base.dim)
            for j in range(ring.base.dim + 1):
                pushed = pb_pushforward(ring.zeta() ** (ring.fiber_rank - 1 + j))
                assert pushed == segre[j]

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
