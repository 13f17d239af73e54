import copy
import json
import pickle
import sys
from math import comb
from random import Random

import pytest

from curvecount import (
    CountReport,
    DimensionCount,
    GrassmannianRing,
    H0Count,
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
from curvecount import chern, grassmannian, pipelines, projbundle
from curvecount.chern import ChernRing
from curvecount.cli import CACHE_DIR_ENV, run
from curvecount.partitions import parts_of_weight
from curvecount.pipelines import _serialize
from curvecount.symfunc import elementary_ring_poly, grassmannian_integral

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
        for degrees in ([3.7], [3.0], "3", ["3"]):
            with pytest.raises(TypeError):
                count_curves("lines", 3, degrees)

    @pytest.mark.parametrize("call", [
        lambda: count_curves("lines", 4.0, [5]),
        lambda: count_curves("conics", 4.0, [5]),
        lambda: count_curves("lines", "4", [5]),
        lambda: equivalence_lines_on_factor(5, 1, 4.0),
        lambda: equivalence_lines_on_factor(5.0, 1, 4),
        lambda: equivalence_lines_on_factor(5, 1.0, 4),
    ], ids=["lines", "conics", "lines str", "equivalence n", "equivalence D", "equivalence e"])
    def test_non_integer_ambient_rejected(self, call):
        with pytest.raises(TypeError):
            call()

    @pytest.mark.parametrize("r", range(1, 5))
    def test_grassmannian_integral_is_the_schubert_integral(self, r):
        # Every e-monomial e_1^a_1 ... e_r^a_r of top degree sum(i a_i) = dim Gr(r, N),
        # for N - r <= 6: a partition of dim into parts at most r, a_i of them equal to i.
        for N in range(r, r + 7):
            base = GrassmannianRing(r, N)
            ring = ChernRing(r, base.dim)
            schubert = ring.evaluator(dual_universal_vector(base))
            for parts in parts_of_weight(base.dim, base.dim, r):
                monomial = elementary_ring_poly(r, {tuple(parts.count(i) for i in range(1, r + 1)): 1})
                assert grassmannian_integral(monomial, N) == integrate(schubert(monomial))
            below = elementary_ring_poly(r, {(base.dim - 1,) + (0,) * (r - 1): 5}) if base.dim else ring.zero()
            assert grassmannian_integral(below, N) == 0

    @pytest.mark.parametrize(
        "kind, n, degrees, count",
        [("lines", 4, [5], 2875), ("lines", 5, [3, 3], 1053), ("conics", 4, [5], 609250)],
        ids=["lines", "lines-ci", "conics"],
    )
    def test_counts_map_nothing_to_the_schubert_basis(self, monkeypatch, kind, n, degrees, count):
        # The pushed-down class is integrated in the Chern classes as it
        # stands; the trace writes it as the count times the point class.
        def refuse(*args):
            raise AssertionError("mapped to the Schubert basis")

        monkeypatch.setattr(pipelines, "dual_universal_vector", refuse)
        monkeypatch.setattr(ChernRing, "evaluator", refuse)
        assert count_curves(kind, n, degrees).count == count

    @pytest.mark.parametrize("call, count", [
        (lambda: count_curves("lines", 4, [5]), 2875),
        (lambda: count_curves("lines", 5, [3, 3]), 1053),
        (lambda: count_curves("conics", 4, [5]), 609250),
        (lambda: count_curves("conics", 5, [1, 5]), 609250),
        (lambda: count_curves("conics", 5, [2, 4]), 92288),
        (lambda: count_curves("conics", 6, [8]), 21553784182784),
        (lambda: equivalence_lines_on_factor(5, 1, 4), 1275),
        (lambda: degeneration_split_report(5, 4), 2875),
    ], ids=["lines", "lines-ci", "conics", "conics-1,5", "conics-2,4", "conics-8", "equivalence", "split-report"])
    def test_counts_reduce_nothing_to_elementary(self, monkeypatch, call, count):
        # Rank-2 orbit factors have a closed form and conic counts build no
        # class, so these cold counts reach no elimination.
        def refuse(p):
            raise AssertionError("reduce_to_elementary called")

        monkeypatch.setattr(chern, "reduce_to_elementary", refuse)
        chern.clear_universal_cache()
        try:
            with chern.universal_cache_dir(None):
                assert call().count == count
        finally:
            chern.clear_universal_cache()

    @pytest.mark.parametrize("n, degrees, count", [
        (4, [5], 609250),
        (5, [1, 5], 609250),
        (5, [2, 4], 92288),
        (6, [8], 21553784182784),
        (9, [3, 3, 3, 2], 2422165923),
    ])
    def test_conic_counts_build_no_class(self, monkeypatch, n, degrees, count):
        # A conic count sums Bott's formula in integers: no universal polynomial,
        # top class, Segre series or projective bundle is built, cold or warm.
        def refuse(*args):
            raise AssertionError("a class was built")

        chern.clear_universal_cache()
        for owner, name in ((chern, "sym_power_elementary"), (ChernRing, "sym_power_top"),
                            (chern, "quotient_series"), (projbundle, "ProjBundleRing")):
            monkeypatch.setattr(owner, name, refuse)
        with chern.universal_cache_dir(None):
            assert count_curves("conics", n, degrees).count == count

    def test_localization_sum_missing_a_fixed_point_is_refused(self, monkeypatch):
        # Leaving out the fixed conics of one coordinate plane leaves a sum that
        # is not an integer; the count refuses it rather than round it.
        planes = pipelines.combinations
        monkeypatch.setattr(pipelines, "combinations", lambda items, k: list(planes(items, k))[1:])
        with pytest.raises(InternalCheckError, match="not an integer"):
            count_curves("conics", 4, [5])

    def test_torus_weights_hold_no_three_term_progression(self):
        # Distinct positive weights with no a + c == 2b give every monomial
        # conic of a plane its own weight, so no denominator of the sum is zero.
        weights = pipelines._torus_weights(128)
        assert weights[:8] == [1, 2, 4, 5, 10, 11, 13, 14]
        assert min(weights) > 0 and len(set(weights)) == len(weights)
        present = set(weights)
        assert not [(a, b) for a in weights for b in weights if a < b and 2 * b - a in present]

    @pytest.mark.parametrize("N", range(2, 13))
    def test_grassmannian_integral_at_rank_two_is_catalan(self, N):
        # e_2 = sigma_(1,1) is the class of Gr(2, N-1), and e_1^(2k) integrates
        # over Gr(2, k+2) to its Plücker degree, the Catalan number C_k.
        for b in range(N - 1):
            k = N - 2 - b
            monomial = elementary_ring_poly(2, {(2 * k, b): 3})
            assert grassmannian_integral(monomial, N) == 3 * comb(2 * k, k) // (k + 1)


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
        # The lines rungs of the benchmark, up to its top rung P^28.
        + [("lines", n, [2 * n - 3]) for n in (16, 20, 24, 28)]
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
    """Counts multiply and integrate in Z[c_1..c_r].  The `chern` calculators
    and the classes an equivalence traces reach the Schubert basis through
    products with one-column classes only, which never ask the LR memo."""

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

    def test_counts_map_nothing_to_the_schubert_basis(self, monkeypatch):
        # Only an equivalence's trace classes go to the Schubert basis; the
        # split report traces counts alone, so it builds no evaluator.
        expected = [equivalence_lines_on_factor(7, e, 5).count for e in range(1, 7)]

        def refuse(ring):
            raise AssertionError("dual_universal_vector called")

        monkeypatch.setattr(pipelines, "dual_universal_vector", refuse)
        report = degeneration_split_report(7, 5)
        assert [int(report.trace_value(f"equivalence_degree_{e}")) for e in range(1, 7)] == expected
        with pytest.raises(AssertionError, match="dual_universal_vector called"):
            equivalence_lines_on_factor(7, 3, 5)


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

    @pytest.mark.parametrize("n, D, d", [(4.5, 5, 1), (4, 5.0, 1), (4, 5, "1")])
    def test_non_integer_inputs_rejected(self, n, D, d):
        with pytest.raises(TypeError):
            naive_dimension_count(n, D, d)
        assert naive_dimension_count(4, 5, True).parameters == 10


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

    @pytest.mark.parametrize("a, b", [(-0.5, -1.5), (-1.0, -1), (0, "-2")])
    def test_non_integer_degrees_rejected(self, a, b):
        with pytest.raises(TypeError):
            NormalBundleType(a, b)


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


# Each record type: its field names in declared order, the values of one
# record, and its repr.
RECORDS = [
    (CountReport, ("pipeline", "inputs", "count", "trace", "consistency"),
     ("x", {"n": 1}, 5, (("count", "5"),), (("ok", True),)),
     "CountReport(pipeline='x', inputs={'n': 1}, count=5, trace=(('count', '5'),), consistency=(('ok', True),))"),
    (NormalBundleType, ("a", "b"), (0, -2), "NormalBundleType(a=0, b=-2)"),
    (H0Count, ("h0", "rigid"), (1, False), "H0Count(h0=1, rigid=False)"),
    (DimensionCount, ("parameters", "conditions", "reparametrizations", "expected_dim"), (10, 6, 4, 0),
     "DimensionCount(parameters=10, conditions=6, reparametrizations=4, expected_dim=0)"),
]


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=[row[0].__name__ for row in RECORDS])
class TestRecords:
    def test_fields_bind_by_position_and_keyword(self, cls, names, values, text):
        record = cls(*values)
        assert tuple(getattr(record, name) for name in names) == values
        assert cls(**dict(zip(names, values))) == record == cls(values[0], **dict(zip(names[1:], values[1:])))
        assert repr(record) == text
        for args, kwargs in [
            (values + (0,), {}),
            (values[:1], {}),
            (values, {names[0]: values[0]}),
            (values, {"bogus": 1}),
        ]:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)

    def test_equality_and_hash(self, cls, names, values, text):
        record, twin = cls(*values), cls(*values)
        assert record == twin and record is not twin
        assert record != values and record != list(values)
        assert all(record != other(*fields) for other, _, fields, _ in RECORDS if other is not cls)
        if cls is CountReport:
            with pytest.raises(TypeError):
                hash(record)  # `inputs` is a dict
        else:
            assert hash(record) == hash(twin)

    def test_read_only(self, cls, names, values, text):
        record = cls(*values)
        for name in names + ("other",):
            with pytest.raises(AttributeError):
                setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, names[0])
        assert tuple(getattr(record, name) for name in names) == values

    def test_copies_and_pickles_to_an_equal_record(self, cls, names, values, text):
        record = cls(*values)
        for other in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(other) is cls and other == record and other is not record


class TestRecordChecks:
    def test_equal_fields_of_another_type_are_not_equal(self):
        assert H0Count(-1, -1) != NormalBundleType(-1, -1) and NormalBundleType(-1, -1) != NormalBundleType(0, -2)

    def test_consistency_defaults_to_empty(self):
        report = CountReport(pipeline="x", inputs={}, count=5, trace=(("count", "5"),))
        assert report.consistency == () and report.all_consistent()

    def test_validation_runs_for_keyword_fields(self):
        with pytest.raises(InternalCheckError):
            CountReport(pipeline="x", inputs={}, count=5, trace=(("count", "4"),))
        with pytest.raises(InternalCheckError):
            CountReport("x", {}, 5, ())
        with pytest.raises(PreconditionError, match=r"a \+ b = -2, got 0 \+ -1"):
            NormalBundleType(b=-1, a=0)
        with pytest.raises(TypeError):
            NormalBundleType(a=-1.0, b=-1)


class TestDigitLimit:
    """A count, or a class in its trace, is refused before any of it is
    written in decimal when it has more digits than
    `sys.get_int_max_str_digits()` allows."""

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit before Python 3.10.7")
    def test_trace_class_refused_past_the_limit(self):
        # The equivalences write their family and excess classes through `_serialize`.
        ring = GrassmannianRing(2, 5)
        previous = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            fits = (10**640 - 1) * ring.sigma((1,)) - ring.sigma((2, 1))
            assert json.loads(_serialize(fits)) == [[[1], "9" * 640], [[2, 1], "-1"]]
            past = fits - 10**640 * ring.sigma((2,))
            with pytest.raises(PreconditionError) as refused:
                _serialize(past)
            assert str(refused.value) == "the count has more than 640 digits, over the sys.get_int_max_str_digits() limit"
            sys.set_int_max_str_digits(0)  # no limit
            assert json.loads(_serialize(past)) == past.to_payload()
        finally:
            sys.set_int_max_str_digits(previous)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit before Python 3.10.7")
    def test_refused_exactly_past_the_limit(self):
        n = 140  # lines on a degree-277 hypersurface in P^140: a count of 676 digits
        digits = len(str(count_lines_hypersurface(n, 2 * n - 3).count))
        previous = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(digits)
            assert len(str(count_curves("lines", n, [2 * n - 3]).count)) == digits
            sys.set_int_max_str_digits(digits - 1)
            message = f"more than {digits - 1} digits, over the sys.get_int_max_str_digits\\(\\) limit"
            with pytest.raises(PreconditionError, match=message):
                count_curves("lines", n, [2 * n - 3])
            sys.set_int_max_str_digits(0)  # no limit
            assert len(str(count_curves("lines", n, [2 * n - 3]).count)) == digits
        finally:
            sys.set_int_max_str_digits(previous)
