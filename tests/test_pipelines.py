import json
from random import Random

import pytest

from curvecount import (
    CountReport,
    GrassmannianRing,
    InternalCheckError,
    NormalBundleType,
    PreconditionError,
    count_conics_quintic,
    count_curves,
    count_lines_complete_intersection,
    count_lines_hypersurface,
    degeneration_split_report,
    dual_universal_vector,
    equivalence_lines_on_factor,
    integrate,
    multiply,
    naive_dimension_count,
    normal_bundle_h0,
    segre_from_chern,
    sym_power,
    tally_checks,
)
from curvecount import grassmannian
from curvecount.cli import CACHE_DIR_ENV, run

from helpers import bott_count, clear_product_memos, oracle_multiply


class TestLinesOnHypersurface:
    def test_quintic_threefold(self):
        report = count_lines_hypersurface(4, 5)
        assert report.count == 2875
        assert report.trace_value("moduli_dim") == "6"
        assert report.trace_value("forms_rank") == "6"

    def test_cubic_surface_hand_derivation(self):
        # Top class of Sym^3(U*) is 18 c1^2 c2 + 9 c2^2 with c1 = s(1) and
        # c2 = s(1,1) on Gr(2,4); each monomial integrates to 1 by hand
        # Pieri, so the count is 18 + 9 = 27.
        ring = GrassmannianRing(2, 4)
        c1, c2 = ring.sigma((1,)), ring.sigma((1, 1))
        by_hand = 18 * (c1 * c1 * c2) + 9 * (c2 * c2)
        assert integrate(by_hand) == 18 + 9 == 27
        assert count_lines_hypersurface(3, 3).count == 27

    def test_single_line_in_plane(self):
        # A degree-1 "hypersurface" in P^2 is a line; it contains one line.
        assert count_lines_hypersurface(2, 1).count == 1

    def test_rank_dimension_mismatch(self):
        with pytest.raises(PreconditionError, match=r"rank 5 != dim 6"):
            count_lines_hypersurface(4, 4)

    def test_bad_inputs(self):
        with pytest.raises(PreconditionError):
            count_lines_hypersurface(1, 1)
        with pytest.raises(PreconditionError):
            count_lines_hypersurface(4, 0)


class TestLinesOnCompleteIntersection:
    def test_single_factor_degenerates_to_hypersurface(self):
        assert count_lines_complete_intersection(4, [5]).count == 2875

    def test_line_as_intersection_of_hyperplanes(self):
        # sigma(1,1)^2 = sigma(2,2) by hand LR, which integrates to 1.
        assert count_lines_complete_intersection(3, [1, 1]).count == 1

    def test_quadric_quartic_against_pieri_oracle(self):
        # Independent evaluation: expand both top classes in the Schubert
        # basis, then evaluate every pairwise product through the
        # Giambelli-determinant/iterated-Pieri oracle instead of the LR rule.
        ring = GrassmannianRing(2, 6)
        cu = dual_universal_vector(ring)
        top2 = sym_power(cu, 2).top()
        top4 = sym_power(cu, 4).top()
        by_oracle = 0
        for lam, a in top2.terms.items():
            for mu, b in top4.terms.items():
                by_oracle += a * b * integrate(oracle_multiply(ring, lam, mu))
        report = count_lines_complete_intersection(5, [2, 4])
        assert report.count == by_oracle == 1280

    def test_dimension_mismatch(self):
        with pytest.raises(PreconditionError, match="rank 6 != dim 8"):
            count_lines_complete_intersection(5, [1, 1, 1])


class TestConicsOnQuintic:
    def test_count(self):
        report = count_conics_quintic()
        assert report.count == 609250

    def test_trace_records_geometry(self):
        report = count_conics_quintic()
        assert report.trace_value("forms_rank") == "11"
        assert report.trace_value("base_dim") == "6"
        assert report.trace_value("moduli_dim") == "11"
        assert report.trace_value("sym_rank_degree_5") == "21"
        assert report.trace_value("divisible_rank_degree_5") == "10"


class TestCountCurves:
    @pytest.mark.parametrize(
        "kind, n, degrees, count",
        [
            # Libgober-Teitelbaum (1993): the Calabi-Yau complete intersections.
            ("conics", 5, [3, 3], 52812),
            ("conics", 5, [2, 4], 92288),
            ("conics", 6, [2, 2, 3], 22428),
            ("conics", 7, [2, 2, 2, 2], 9728),
            ("lines", 5, [3, 3], 1053),
            ("lines", 5, [2, 4], 1280),
            ("lines", 6, [2, 2, 3], 720),
            ("lines", 7, [2, 2, 2, 2], 512),
            # A hyperplane of P^5 is P^4, so a degree-1 equation changes nothing.
            ("conics", 5, [1, 5], 609250),
            ("lines", 5, [1, 5], 2875),
        ],
    )
    def test_published_counts(self, kind, n, degrees, count):
        report = count_curves(kind, n, degrees)
        assert report.count == count
        assert report.trace_value("forms_rank") == report.trace_value("moduli_dim")

    @pytest.mark.parametrize(
        "kind, n, degrees, count",
        [
            # Beyond paper scale; the values the seed engine computed.
            ("conics", 6, [8], 21553784182784),
            ("lines", 8, [13], 210776836330775),
            # The top of the ladder; Bott's formula gives the same values.
            ("conics", 10, [14], 10747520834813687952698384377664),
            ("conics", 12, [17], 59021903191837569868255555729696380344336),
        ],
    )
    def test_ladder_counts(self, kind, n, degrees, count):
        assert count_curves(kind, n, degrees).count == count
        if n >= 10:
            assert bott_count(kind, n, degrees, bott_weights(n)) == count

    def test_preconditions(self):
        with pytest.raises(PreconditionError, match="unknown curve kind"):
            count_curves("planes", 4, [5])
        with pytest.raises(PreconditionError, match=r"rank 9 != dim 11"):
            count_curves("conics", 4, [4])


def bott_weights(n: int) -> list[int]:
    return [3**i + 7 * i * i for i in range(n + 1)]


def _degree_sets(total: int, rank, low: int = 1):
    """Weakly increasing degree lists, each degree >= low, whose forms ranks sum to `total`."""
    if not total:
        yield []
        return
    d = low
    while rank(d) <= total:
        for rest in _degree_sets(total - rank(d), rank, d):
            yield [d] + rest
        d += 1


class TestLocalizationOracle:
    """`count_curves` against Bott's formula, which shares no code with it."""

    @pytest.mark.parametrize(
        "kind, n, degrees",
        [("lines", n, [2 * n - 3]) for n in range(4, 13)]
        + [("lines", 5, [3, 3]), ("lines", 5, [2, 4]), ("lines", 6, [2, 2, 3]), ("lines", 7, [2, 2, 2, 2])]
        + [("conics", 4, [5]), ("conics", 6, [8]), ("conics", 8, [11]), ("conics", 5, [2, 4])],
    )
    def test_count_curves_matches_localization(self, kind, n, degrees):
        assert count_curves(kind, n, degrees).count == bott_count(kind, n, degrees, bott_weights(n))

    @pytest.mark.parametrize(
        "kind, n, degrees",
        [("lines", n, ds) for n in range(2, 9) for ds in _degree_sets(2 * (n - 1), lambda d: d + 1)]
        + [("conics", n, ds) for n in range(2, 8) for ds in _degree_sets(3 * n - 1, lambda d: 2 * d + 1)],
    )
    def test_sweep_of_small_complete_intersections(self, kind, n, degrees):
        assert count_curves(kind, n, degrees).count == bott_count(kind, n, degrees, bott_weights(n))

    @pytest.mark.parametrize(
        "D, e, n", [(5, e, 4) for e in range(1, 6)] + [(3, 1, 4), (3, 2, 4), (4, 2, 5)]
    )
    def test_equivalences_match_localization(self, D, e, n):
        # (5, 1..4, 4) are the published 1275, 1300, 1575 and 1600 of TestEquivalences.
        expected = bott_count("equivalence", n, (D, e), bott_weights(n))
        assert equivalence_lines_on_factor(D, e, n).count == expected

    @pytest.mark.parametrize("D, n", [(5, 4), (7, 5)])
    def test_split_report_pieces_match_localization(self, D, n):
        report = degeneration_split_report(D, n)
        weights = bott_weights(n)
        assert report.count == bott_count("lines", n, [D], weights)
        for e in range(1, D):
            expected = bott_count("equivalence", n, (D, e), weights)
            assert report.trace_value(f"equivalence_degree_{e}") == str(expected)

    def test_oracle_does_not_depend_on_the_weights(self):
        rng = Random(43)
        published = (("lines", 4, [5], 2875), ("conics", 4, [5], 609250), ("conics", 5, [2, 4], 92288))
        for kind, n, degrees, count in published:
            assert bott_count(kind, n, degrees, rng.sample(range(-60, 60), n + 1)) == count

    def test_weights_with_a_zero_tangent_weight_rejected(self):
        with pytest.raises(ValueError, match="tangent weight zero"):
            bott_count("lines", 4, [5], [1, 1, 2, 3, 4])
        # Distinct weights can still give two monomial conics one weight: x1^2 and x0 x2 (1 + 1 == 0 + 2).
        with pytest.raises(ValueError, match="tangent weight zero"):
            bott_count("conics", 4, [5], [0, 1, 2, 3, 9])


class TestPresentationRoute:
    """Counts and the `chern` calculators multiply in Z[c_1..c_r] and reach
    the Schubert basis through products with one-column classes only, which
    never ask the LR memo."""

    @staticmethod
    def record_lr(monkeypatch) -> list:
        clear_product_memos()
        asked = []
        original = grassmannian._lr_expansion
        monkeypatch.setattr(grassmannian, "_lr_expansion", lambda *key: asked.append(key) or original(*key))
        return asked

    @pytest.mark.parametrize(
        "pipeline, args",
        [(count_curves, ("lines", n, [2 * n - 3])) for n in (3, 4, 8, 12)]
        + [(count_curves, ("lines", n, ds)) for n, ds in ((5, [3, 3]), (5, [2, 4]), (6, [2, 2, 3]), (7, [2] * 4))]
        + [(count_curves, ("conics", n, ds)) for n, ds in ((4, [5]), (6, [8]), (5, [2, 4]))]
        + [(equivalence_lines_on_factor, (5, e, 4)) for e in range(1, 6)]
        + [(equivalence_lines_on_factor, (3, 1, 4))]
        + [(degeneration_split_report, (5, 4)), (degeneration_split_report, (7, 5))],
    )
    def test_count_paths_never_call_lr(self, monkeypatch, pipeline, args):
        asked = self.record_lr(monkeypatch)
        pipeline(*args)
        assert asked == []

    @pytest.mark.parametrize("argv", [
        ("sym", "--degree", "4"),
        ("dual", "--degree", "3"),
        ("twist", "--degree", "3", "--by", "-2"),
        ("quotient", "--num", "4", "--den", "2"),
        ("segre", "--degree", "3"),
    ], ids=lambda argv: argv[0])
    def test_chern_calculators_never_call_lr(self, monkeypatch, capsys, argv):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        asked = self.record_lr(monkeypatch)
        assert run(["chern", argv[0], "--grassmannian", "4,9", *argv[1:]]) == 0
        assert asked == []

    def test_recorder_sees_an_lr_product(self, monkeypatch):
        asked = self.record_lr(monkeypatch)
        ring = GrassmannianRing(3, 6)
        assert not multiply(ring.sigma((2, 1)), ring.sigma((2, 1))).is_zero()
        assert asked == [((2, 1), (2, 1), 3, 3)]


class TestEquivalences:
    def test_hyperplane_quartic_split(self):
        assert equivalence_lines_on_factor(5, 1, 4).count == 1275
        assert equivalence_lines_on_factor(5, 4, 4).count == 1600

    def test_quadric_cubic_split(self):
        assert equivalence_lines_on_factor(5, 2, 4).count == 1300
        assert equivalence_lines_on_factor(5, 3, 4).count == 1575

    def test_splits_sum_to_smooth_count(self):
        total = count_lines_hypersurface(4, 5).count
        for e in (1, 2, 3, 4):
            paired = (
                equivalence_lines_on_factor(5, e, 4).count
                + equivalence_lines_on_factor(5, 5 - e, 4).count
            )
            assert paired == total

    def test_full_degree_factor_recovers_smooth_count(self):
        # e = D: the "factor" is the whole quintic, the family is
        # zero-dimensional, and the formula collapses to the plain count.
        report = equivalence_lines_on_factor(5, 5, 4)
        assert report.trace_value("family_dim") == "0"
        assert report.count == 2875

    def test_excess_below_critical_degree_matches_segre_convolution(self):
        # For D < 2n - 3 the family dimension k exceeds the quotient rank D - e,
        # so the excess [c(Sym^D U*) / c(Sym^e U*)]_k is not truncated at that rank.
        for D, e, n in [(3, 1, 4), (3, 2, 4), (4, 2, 5)]:
            ring = GrassmannianRing(2, n + 1)
            cu = dual_universal_vector(ring)
            big, small = sym_power(cu, D), sym_power(cu, e)
            k = 2 * (n - 1) - (e + 1)
            segre = segre_from_chern(small, k)
            excess = sum((big.component(j) * segre[k - j] for j in range(k + 1)), ring.zero())
            assert excess.degrees() == {k}
            assert equivalence_lines_on_factor(D, e, n).count == integrate(multiply(excess, small.top()))

    def test_negative_family_dimension_rejected(self):
        # Lines on a quintic factor inside P^3: k = 4 - 6 < 0.
        with pytest.raises(PreconditionError):
            equivalence_lines_on_factor(5, 5, 3)

    def test_factor_degree_bounds(self):
        with pytest.raises(PreconditionError):
            equivalence_lines_on_factor(5, 0, 4)
        with pytest.raises(PreconditionError):
            equivalence_lines_on_factor(5, 6, 4)
        with pytest.raises(PreconditionError, match="ambient dimension >= 2"):
            equivalence_lines_on_factor(5, 1, 1)


class TestSplitReport:
    def test_quintic_splits(self):
        report = degeneration_split_report(5, 4)
        assert report.count == 2875
        assert report.all_consistent()
        assert report.trace_value("equivalence_degree_1") == "1275"
        assert report.trace_value("equivalence_degree_2") == "1300"
        assert report.trace_value("equivalence_degree_3") == "1575"
        assert report.trace_value("equivalence_degree_4") == "1600"
        with pytest.raises(KeyError):
            report.trace_value("equivalence_degree_5")

    def test_split_symmetry(self):
        # The split {e, D-e} lists the same pair regardless of orientation.
        report = degeneration_split_report(5, 4)
        pairs = {
            e: (
                report.trace_value(f"equivalence_degree_{e}"),
                report.trace_value(f"equivalence_degree_{5 - e}"),
            )
            for e in (1, 2, 3, 4)
        }
        assert pairs[1] == tuple(reversed(pairs[4]))
        assert pairs[2] == tuple(reversed(pairs[3]))

    def test_cubic_surface_splits(self):
        report = degeneration_split_report(3, 3)
        assert report.count == 27
        assert report.all_consistent()


class TestDimensionCount:
    def test_quintic_is_always_zero_dimensional(self):
        for d in range(1, 8):
            assert naive_dimension_count(4, 5, d).expected_dim == 0

    def test_degree_one_arithmetic(self):
        rec = naive_dimension_count(4, 5, 1)
        assert rec.parameters == 10
        assert rec.conditions == 6
        assert rec.reparametrizations == 4
        assert rec.expected_dim == 0

    def test_quartic_surface_has_no_lines(self):
        assert naive_dimension_count(3, 4, 1).expected_dim == -1

    @pytest.mark.parametrize("n, D, d", [(1, 5, 7), (4, 0, 1), (4, 5, 0)])
    def test_bad_inputs(self, n, D, d):
        with pytest.raises(PreconditionError, match=r"need n >= 2, D >= 1, d >= 1"):
            naive_dimension_count(n, D, d)


class TestNormalBundle:
    def test_rigid_type(self):
        rec = normal_bundle_h0(NormalBundleType(-1, -1))
        assert rec.h0 == 0 and rec.rigid

    def test_one_deformation(self):
        rec = normal_bundle_h0(NormalBundleType(0, -2))
        assert rec.h0 == 1 and not rec.rigid

    def test_two_deformations(self):
        rec = normal_bundle_h0(NormalBundleType(1, -3))
        assert rec.h0 == 2 and not rec.rigid

    def test_rigidity_definition_agrees_both_ways(self):
        for a in range(-5, 4):
            rec = normal_bundle_h0(NormalBundleType(a, -2 - a))
            assert rec.rigid == (rec.h0 == 0)
            assert rec.rigid == ((a, -2 - a) == (-1, -1))

    def test_constraint_enforced(self):
        with pytest.raises(PreconditionError):
            NormalBundleType(0, -1)


class TestTallyChecks:
    def test_all_published_tallies_hold(self):
        report = tally_checks()
        assert report.all_consistent()
        assert len(report.consistency) == 3
        assert report.trace_value("lines_total") == "2875"
        assert report.count == 609250


class TestCountReport:
    def test_count_must_match_last_trace_entry(self):
        with pytest.raises(InternalCheckError):
            CountReport("x", {}, 5, (("count", "4"),))

    def test_determinism(self):
        a = count_lines_hypersurface(4, 5)
        b = count_lines_hypersurface(4, 5)
        assert a == b
        assert json.dumps(a.to_payload(include_trace=True)) == json.dumps(
            b.to_payload(include_trace=True)
        )

    def test_payload_counts_are_decimal_strings(self):
        payload = count_lines_hypersurface(4, 5).to_payload()
        assert payload["count"] == "2875"
        assert isinstance(payload["count"], str)
