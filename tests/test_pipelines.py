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
from curvecount import chern, grassmannian, pipelines, projbundle, symfunc
from curvecount.chern import ChernRing
from curvecount.cli import CACHE_DIR_ENV, run
from curvecount.pipelines import _serialize
from curvecount.symfunc import elementary_ring_poly

from helpers import bott_count, clear_product_memos, oracle_multiply, roots_sym_power_elementary, schubert_trace_class


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

    @pytest.mark.parametrize(
        "kind, n, degrees, count",
        [("lines", 4, [5], 2875), ("lines", 5, [3, 3], 1053), ("conics", 4, [5], 609250)],
        ids=["lines", "lines-ci", "conics"],
    )
    def test_counts_map_nothing_to_the_schubert_basis(self, monkeypatch, kind, n, degrees, count):
        # A line count integrates its coefficient list as it stands, and a
        # conic count is a sum of integers; the trace writes the count times
        # the point class.
        def refuse(*args):
            raise AssertionError("mapped to the Schubert basis")

        monkeypatch.setattr(ChernRing, "evaluator", refuse)
        monkeypatch.setattr(chern, "sym_power_elementary", refuse)
        assert count_curves(kind, n, degrees).count == count

    @pytest.mark.parametrize("call, count", [
        (lambda: count_curves("lines", 4, [5]), 2875),
        (lambda: count_curves("lines", 7, [2, 2, 2, 2]), 512),
        (lambda: equivalence_lines_on_factor(7, 3, 5), 337365),
        (lambda: degeneration_split_report(7, 5), 698005),
    ], ids=["lines", "lines-ci", "equivalence", "split-report"])
    def test_rank_two_counts_build_no_chern_class(self, monkeypatch, call, count):
        # Lines, equivalences and split reports work on coefficient lists in
        # the roots of U*: no `ChernRing`, universal polynomial or Segre series.
        def refuse(*args):
            raise AssertionError("a Chern class was built")

        for owner, name in ((ChernRing, "__new__"), (chern, "sym_power_elementary"), (chern, "quotient_series")):
            monkeypatch.setattr(owner, name, refuse)
        assert call().count == count

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
        # Lines, equivalences and split reports take the rank-2 root kernel
        # and conic counts build no class, so these cold counts reach no
        # elimination.
        def refuse(p):
            raise AssertionError("reduce_to_elementary called")

        monkeypatch.setattr(chern, "reduce_to_elementary", refuse)
        chern.clear_universal_cache()
        try:
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
        for owner, name in ((chern, "sym_power_elementary"), (chern, "quotient_series"),
                            (projbundle, "ProjBundleRing")):
            monkeypatch.setattr(owner, name, refuse)
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


def bott_weights(n: int) -> list[int]:
    """1 plus each of the first n + 1 numbers whose base-3 digits are all 0 or 1.
    They hold no three-term progression, so the six monomial conics of a
    coordinate plane have distinct weights, and no monomial weight is 0."""
    return [1 + int(format(i, "b"), 3) for i in range(n + 1)]


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
        + [("conics", 4, [5]), ("conics", 6, [8]), ("conics", 8, [11]), ("conics", 5, [2, 4])]
        # Past the benchmark's top rungs.
        + [("conics", 12, [17]), ("conics", 16, [23]), ("lines", 60, [117])],
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

    @pytest.mark.parametrize("D, n", [(5, 4), (7, 5), (13, 8), (21, 12)])
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
    """Counts take no Schubert product at all: lines, equivalences and split
    reports work on coefficient lists in the roots of U*, and an equivalence
    reads its trace classes off the bialternant.  The `chern` calculators
    reach the Schubert basis through one map, whose products all have a unit
    or one-column second factor."""

    @staticmethod
    def record_products(monkeypatch) -> list:
        """Every product-table fill from cold tables, as (ring, key)."""
        clear_product_memos()
        asked = []
        original = GrassmannianRing.product
        monkeypatch.setattr(GrassmannianRing, "product",
                            lambda ring, key: asked.append((ring, key)) or original(ring, key))
        return asked

    @staticmethod
    def record_fills(monkeypatch) -> list:
        """The factors (lam, mu) of every fill from cold tables, as the LR rule takes them."""
        clear_product_memos()
        asked = []
        original = grassmannian._lr_expansion
        monkeypatch.setattr(grassmannian, "_lr_expansion", lambda *key: asked.append(key[:2]) or original(*key))
        return asked

    @staticmethod
    def columns_only(fills: list) -> bool:
        return bool(fills) and all(mu[:1] in ((), (1,)) for _, mu in fills)

    @pytest.mark.parametrize(
        "pipeline, args",
        [(count_curves, ("lines", n, [2 * n - 3])) for n in (3, 4, 8, 12)]
        + [(count_curves, ("lines", n, ds)) for n, ds in ((5, [3, 3]), (5, [2, 4]), (6, [2, 2, 3]), (7, [2] * 4))]
        + [(count_curves, ("conics", n, ds)) for n, ds in ((4, [5]), (6, [8]), (5, [2, 4]))]
        + [(degeneration_split_report, (5, 4)), (degeneration_split_report, (7, 5))]
        + [(equivalence_lines_on_factor, (5, e, 4)) for e in range(1, 6)]
        + [(equivalence_lines_on_factor, (3, 1, 4))],
    )
    def test_count_paths_take_no_schubert_product(self, monkeypatch, pipeline, args):
        asked = self.record_products(monkeypatch)
        pipeline(*args)
        assert asked == []

    @pytest.mark.parametrize("pipeline, args, count", [
        (count_curves, ("lines", 4, [5]), 2875),
        (count_curves, ("lines", 5, [3, 3]), 1053),
        (count_curves, ("lines", 7, [2, 2, 2, 2]), 512),
        (count_curves, ("conics", 2, [2]), 1),
        (count_curves, ("conics", 4, [5]), 609250),
        (count_curves, ("conics", 6, [8]), 21553784182784),
        (count_lines_hypersurface, (8, 13), 210776836330775),
        (count_conics_quintic, (), 609250),
        (degeneration_split_report, (5, 4), 2875),
        (degeneration_split_report, (7, 5), 698005),
        (equivalence_lines_on_factor, (1, 1, 2), 1),
        (equivalence_lines_on_factor, (3, 1, 4), -4),
        (equivalence_lines_on_factor, (7, 3, 5), 337365),
        *((equivalence_lines_on_factor, (5, e, 4), count) for e, count in zip(range(1, 6), (1275, 1300, 1575, 1600, 2875))),
    ])
    def test_count_paths_build_no_schubert_ring(self, monkeypatch, pipeline, args, count):
        # Every trace class is written from (parts, coefficient) terms, so no
        # Grassmannian is built, not even one already in the process.
        def refuse(*args):
            raise AssertionError("a GrassmannianRing was built")

        monkeypatch.setattr(GrassmannianRing, "__new__", refuse)
        assert pipeline(*args).count == count

    @pytest.mark.parametrize("argv", [
        ("sym", "--degree", "4"),
        ("dual", "--degree", "3"),
        ("twist", "--degree", "3", "--by", "-2"),
        ("quotient", "--num", "4", "--den", "2"),
        ("segre", "--degree", "3"),
    ], ids=lambda argv: argv[0])
    def test_chern_calculators_fill_only_column_products(self, monkeypatch, capsys, argv):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        fills = self.record_fills(monkeypatch)
        assert run(["chern", argv[0], "--grassmannian", "4,9", *argv[1:]]) == 0
        assert self.columns_only(fills)

    def test_recorders_see_a_product(self, monkeypatch):
        ring = GrassmannianRing(3, 6)
        asked = self.record_products(monkeypatch)
        fills = self.record_fills(monkeypatch)
        assert not multiply(ring.sigma((2, 1)), ring.sigma((2, 1))).is_zero()
        assert asked == [(ring, ring.rank((2, 1)) * (ring.size + 1))]
        assert fills == [((2, 1), (2, 1))] and not self.columns_only(fills)


class TestTraceClassOracle:
    """Every trace class against the route the pipelines took while they
    built a ring: `schubert_trace_class` sums sigma(parts) * c there and
    writes `ChowClass.to_payload`.  The strings must match byte for byte,
    the degree-0 class [] and the order and zeros of the terms included."""

    @staticmethod
    def check_point_class(report, span, n):
        ring = GrassmannianRing(span, n + 1)
        label = "top_chern_class" if span == 2 else "top_class_pushforward"
        expected = schubert_trace_class(ring, [((ring.cols,) * ring.rows, report.count)])
        assert report.trace_value(label) == expected, (span, n)

    def test_line_counts(self):
        for n in range(2, 41):
            counted = []
            for d in range(1, 2 * n):
                try:
                    report = count_curves("lines", n, [d])
                except PreconditionError as refused:
                    assert "rank" in str(refused)
                    continue
                counted.append(d)
                self.check_point_class(report, 2, n)
            assert counted == [2 * n - 3]

    @pytest.mark.parametrize("kind, n, degrees", [
        *((kind, n, ds) for kind in ("lines", "conics")
          for n, ds in ((5, [3, 3]), (5, [2, 4]), (6, [2, 2, 3]), (7, [2, 2, 2, 2]))),
        ("conics", 2, [2]), ("conics", 3, [1, 2]), ("conics", 4, [5]), ("conics", 5, [1, 5]),
        ("conics", 5, [2, 4]), ("conics", 6, [8]), ("conics", 9, [3, 3, 3, 2]),
    ])
    def test_complete_intersections(self, kind, n, degrees):
        self.check_point_class(count_curves(kind, n, degrees), 2 if kind == "lines" else 3, n)

    def test_degree_zero_classes_have_no_parts(self):
        assert count_curves("conics", 2, [2]).trace_value("top_class_pushforward") == '[[[],"1"]]'
        assert equivalence_lines_on_factor(1, 1, 2).trace_value("excess_part") == '[[[],"1"]]'

    def test_equivalences_and_split_reports(self):
        checked = 0
        for n in range(2, 12):
            ring = GrassmannianRing(2, n + 1)
            for D in range(1, 12):
                counts = {}
                for e in range(1, D + 1):
                    try:
                        report = equivalence_lines_on_factor(D, e, n)
                    except PreconditionError:
                        assert 2 * (n - 1) < e + 1
                        continue
                    k, count, excess, locus = pipelines._equivalence(D, e, n)
                    for label, f in (("family_class", locus), ("excess_part", excess)):
                        j = len(f) - 1
                        terms = [((a, j - a), pipelines._sigma(f, a)) for a in range(j + 1) if j - a <= a <= ring.cols]
                        assert report.trace_value(label) == schubert_trace_class(ring, terms), (D, e, n, label)
                    counts[e] = report.count
                    checked += 1
                if D + 1 != 2 * (n - 1):
                    with pytest.raises(PreconditionError, match="rank"):
                        degeneration_split_report(D, n)
                    continue
                split = degeneration_split_report(D, n)
                assert split.trace_value("smooth_count") == str(counts[D])
                assert [split.trace_value(f"equivalence_degree_{e}") for e in range(1, D)] == [
                    str(counts[e]) for e in range(1, D)
                ]
        assert checked == 535  # the (D, e, n) with 1 <= e <= D <= 11, n <= 11 and e + 1 <= 2(n - 1)

    def test_pipelines_own_the_bound_of_the_chern_layer(self):
        assert pipelines.DIM_LIMIT == symfunc.DEGREE_LIMIT == 65536


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
        # The split report traces counts alone, and an equivalence reads its
        # trace classes off the bialternant: neither builds an evaluator or a
        # universal polynomial, and the shared c(Sym^7 U*) gives each piece
        # what its own equivalence gives.
        expected = [equivalence_lines_on_factor(7, e, 5).count for e in range(1, 7)]

        def refuse(*args):
            raise AssertionError("mapped to the Schubert basis")

        monkeypatch.setattr(ChernRing, "evaluator", refuse)
        monkeypatch.setattr(chern, "sym_power_elementary", refuse)
        report = degeneration_split_report(7, 5)
        assert [int(report.trace_value(f"equivalence_degree_{e}")) for e in range(1, 7)] == expected
        assert equivalence_lines_on_factor(7, 3, 5).count == expected[2]


def roots_list(epoly: dict, degree: int) -> list:
    """An e-polynomial {(a, b): c} in e_1, e_2, homogeneous of `degree`, as its
    coefficient list in the roots: e_1 = x + y and e_2 = xy, multiplied out by binomials."""
    out = [0] * (degree + 1)
    for (a, b), c in epoly.items():
        for i in range(a + 1):
            out[i + b] += c * comb(a, i)
    return out


class TestRankTwoKernel:
    """The coefficient lists of the line pipelines against routes that share
    no code with them: the Catalan numbers, the Schubert map of `ChernRing`,
    and the roots oracle of the universal polynomials."""

    @pytest.mark.parametrize("N", range(2, 15))
    def test_integral_of_a_power_of_the_hyperplane_class_is_catalan(self, N):
        # (x + y)^(2m) = sigma_1^dim integrates over Gr(2, m+2) to its Plücker
        # degree, the Catalan number C_m (OEIS A000108).
        catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]
        m = N - 2
        assert pipelines._sigma([comb(2 * m, i) for i in range(2 * m + 1)], m) == catalan[m]

    @pytest.mark.parametrize("N", range(2, 15))
    def test_bialternant_is_the_schubert_map(self, N):
        # Every e_1^a e_2^b of every degree, against the evaluator of c(U*).
        base = GrassmannianRing(2, N)
        schubert = ChernRing(2, base.dim).evaluator(dual_universal_vector(base))
        for degree in range(base.dim + 1):
            for b in range(degree // 2 + 1):
                monomial = {(degree - 2 * b, b): 1}
                image = _serialize(pipelines._schubert(roots_list(monomial, degree), base.cols))
                assert json.loads(image) == schubert(elementary_ring_poly(2, monomial)).to_payload(), (degree, b)

    @pytest.mark.parametrize("d", [1, 2, 53, 96])
    def test_top_is_the_product_of_the_roots(self, d):
        top = dict(roots_sym_power_elementary(2, d, d + 1)[d + 1])
        assert pipelines._top(d) == roots_list(top, d + 1)

    def test_top_of_a_sum_is_the_product_of_the_tops(self):
        tops = [pipelines._top(d) for d in (2, 2, 3)]
        assert pipelines._top(2, 2, 3) == pipelines._product(pipelines._product(*tops[:2]), tops[2])

    @pytest.mark.parametrize("d, top", [(1, 4), (5, 6), (6, 9)])
    def test_series_is_the_total_class_of_the_roots(self, d, top):
        series = pipelines._series(d, top)
        assert series == [roots_list(dict(part), j) for j, part in enumerate(roots_sym_power_elementary(2, d, top))]
        # Dividing by the same class gives back the unit series.
        assert pipelines._times_sym_power(series, d, -1) == [[1]] + [[0] * (j + 1) for j in range(1, top + 1)]


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
            fits = [((1,), 10**640 - 1), ((2, 1), -1)]
            assert json.loads(_serialize(fits)) == [[[1], "9" * 640], [[2, 1], "-1"]]
            past = [fits[0], ((2,), -10**640), fits[1]]
            with pytest.raises(PreconditionError) as refused:
                _serialize(past)
            assert str(refused.value) == "the count has more than 640 digits, over the sys.get_int_max_str_digits() limit"
            sys.set_int_max_str_digits(0)  # no limit
            as_class = sum((ring.sigma(parts) * c for parts, c in past), ring.zero())
            assert json.loads(_serialize(past)) == as_class.to_payload()
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
