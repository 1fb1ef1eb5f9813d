"""Harmonic representations: construction, criterion, identity, envelope."""

import math

import pytest

from meanlab import (
    MEAN_IDS,
    DomainError,
    NON_REPRESENTABLE_IDS,
    PAIR_CATALOG,
    MeanDescriptor,
    SeiffertFunction,
    check_representable,
    construct_candidate,
    default_pairs,
    derivative_estimate,
    get_mean,
    log_envelope_check,
    make_envelope_gap_example,
    mean_of_seiffert,
    seiffert_of_mean,
    verify_identity,
)
from meanlab.calculus import GridSpec
from meanlab.harmonic import DEFAULT_CHECK_GRID


class TestConstructCandidate:
    @pytest.mark.parametrize("represented,representer", [
        ("L", "H"),    # artanh      -> z/(1-z^2)
        ("P", "G"),    # arcsin      -> z/sqrt(1-z^2)
        ("NS", "R"),   # arsinh      -> z/sqrt(1+z^2)
    ])
    def test_closed_form_derivative_route(self, represented, representer, z_grid):
        candidate = construct_candidate(seiffert_of_mean(represented))
        target = seiffert_of_mean(representer)
        for z in z_grid:
            assert candidate(z) == pytest.approx(target(z), rel=1e-12)

    def test_numeric_fallback(self, z_grid):
        bare = SeiffertFunction(math.asin, name="arcsin-bare")  # no derivative
        candidate = construct_candidate(bare)
        target = seiffert_of_mean("G")
        for z in z_grid[:90]:
            assert candidate(z) == pytest.approx(target(z), abs=1e-8)

    @pytest.mark.parametrize("entry", PAIR_CATALOG, ids=lambda e: e.represented)
    def test_two_routes_to_the_representer_agree(self, entry, z_grid):
        candidate = construct_candidate(seiffert_of_mean(entry.represented))
        target = seiffert_of_mean(entry.representer)
        for z in z_grid[::4]:
            assert candidate(z) == pytest.approx(target(z), abs=1e-8)


class TestCheckRepresentable:
    def test_sin_is_representable(self):
        verdict = check_representable(seiffert_of_mean("SIN"))
        assert verdict.status == "representable"
        assert verdict.witness_z is None
        assert verdict.margin >= 0.0

    def test_passing_margin_is_the_smallest_band_distance(self):
        # SIN's derivative is cos
        verdict = check_representable(seiffert_of_mean("SIN"))
        distances = [min(math.cos(z) - 1.0 / (1.0 + z), 1.0 / (1.0 - z) - math.cos(z))
                     for z in DEFAULT_CHECK_GRID.points()]
        assert verdict.margin == min(distances) == 0.0009985009990425286

    def test_agm_is_representable(self):
        assert check_representable(seiffert_of_mean("AGM")).status == "representable"

    def test_tanh_falsified_on_the_lower_side(self):
        verdict = check_representable(seiffert_of_mean("TANH"))
        assert verdict.status == "falsified"
        assert verdict.margin <= 0.0
        w = verdict.witness_z
        assert w is not None and w > 0.8
        assert math.cosh(w) ** -2 < 1.0 / (1.0 + w)

    def test_geometric_falsified_on_the_upper_side(self):
        verdict = check_representable(seiffert_of_mean("G"))
        assert verdict.status == "falsified"
        w = verdict.witness_z
        assert (1.0 - w * w) ** -1.5 > 1.0 / (1.0 - w)

    def test_geometric_candidate_exceeds_band_at_09(self):
        candidate = construct_candidate(seiffert_of_mean("G"))
        value = candidate(0.9)
        assert value == pytest.approx(10.867061078079242, rel=1e-12)
        assert value > 0.9 / (1.0 - 0.9)

    def test_non_representable_registry(self):
        assert set(NON_REPRESENTABLE_IDS) == {"TANH", "G"}
        for mean_id in NON_REPRESENTABLE_IDS:
            assert check_representable(seiffert_of_mean(mean_id)).status == "falsified"

    def test_every_catalog_status_on_the_default_grid(self):
        # the two worked counterexamples are among the eight the grid falsifies
        falsified_at = {"G": 0.999, "H": 0.999, "C": 0.999, "R": 0.999, "V": 0.999,
                        "TANH": 0.999, "COSMEAN": 0.999, "COS2MEAN": 0.771}
        for mean_id in MEAN_IDS:
            verdict = check_representable(seiffert_of_mean(mean_id))
            if mean_id in falsified_at:
                assert verdict.status == "falsified", mean_id
                assert verdict.witness_z == pytest.approx(falsified_at[mean_id], abs=1e-12)
            else:
                assert verdict.status == "representable", mean_id
        assert len(MEAN_IDS) - len(falsified_at) == 10
        assert set(NON_REPRESENTABLE_IDS) < set(falsified_at)

    def test_inconclusive_on_derivative_failure(self):
        broken = SeiffertFunction(lambda z: z, derivative=lambda z: 1.0 / 0.0,
                                  name="broken")
        verdict = check_representable(broken)
        assert verdict.status == "inconclusive"
        assert verdict.witness_z is None
        assert "failed" in verdict.note

    def test_nan_derivative_is_inconclusive(self):
        first_nan = next(z for z in DEFAULT_CHECK_GRID.points() if z > 0.5)
        for derivative, where in ((lambda z: 1.0 if z <= 0.5 else math.nan, first_nan),
                                  (lambda z: math.nan, DEFAULT_CHECK_GRID.points()[0])):
            broken = SeiffertFunction(lambda z: z, derivative=derivative, name="nan")
            verdict = check_representable(broken)
            assert verdict.status == "inconclusive"
            assert math.isnan(verdict.margin)
            assert f"derivative is NaN at z={where!r}" in verdict.note

    def test_relabelled_negative_case_stays_falsified(self):
        # TANH's Seiffert function filed under the id "A"
        relabelled = mean_of_seiffert(seiffert_of_mean("TANH"), mean_id="A")
        assert check_representable(seiffert_of_mean(relabelled)).status == "falsified"

    def test_relabelled_positive_case_stays_representable(self):
        # the arithmetic mean filed under the id "G"
        relabelled = MeanDescriptor("G", "g", get_mean("A").evaluator)
        verdict = check_representable(seiffert_of_mean(relabelled))
        assert verdict.status == "representable"

    @pytest.mark.parametrize("mean_id", ["G", "T", "A", "AGM"])
    def test_grid_outside_unit_interval_raises(self, mean_id):
        with pytest.raises(DomainError, match=r"grid point must lie in \(0, 1\), got 1.2"):
            check_representable(seiffert_of_mean(mean_id), GridSpec(1.2, 1.5, 3))

    def test_custom_grid_is_recorded(self):
        grid = GridSpec(0.1, 0.5, 11)
        verdict = check_representable(seiffert_of_mean("SIN"), grid)
        assert verdict.grid == grid


class TestVerifyIdentity:
    def test_first_seiffert_with_geometric_at_13(self):
        # the inner integral has the closed form arcsin(z): deviation is
        # at rounding level, far below the stated tolerance
        report = verify_identity("P", "G", [(1.0, 3.0)])
        assert report.passed
        assert report.points[0].product_deviation <= 1e-12

    def test_self_representation_of_arithmetic(self):
        report = verify_identity("A", "A", [(1.0, 3.0), (0.5, 0.5)])
        assert report.passed
        assert report.max_deviation <= 1e-13

    @pytest.mark.parametrize("entry", PAIR_CATALOG, ids=lambda e: e.represented)
    def test_catalog_pairs_on_default_grid(self, entry):
        report = verify_identity(entry.represented, entry.representer,
                                 default_pairs(20), tol=1e-9)
        assert report.passed, f"max deviation {report.max_deviation:.3e}"

    def test_quadrature_failure_recorded_per_point(self):
        report = verify_identity("L", "H", [(1e-12, 2.0)])
        assert not report.passed
        assert "quadrature failed" in report.points[0].note

    # planted representer rows that raise what the real rows raised at
    # (1e308, 1.7e308) and (1e-300, 1e-200) before those pairs were rescaled
    @pytest.mark.parametrize("represented, representer, error, note", [
        ("L", "H", DomainError("arguments must be finite, got (inf, inf)"),
         "DomainError: arguments must be finite, got (inf, inf)"),
        ("AGM", "V", ZeroDivisionError("float division by zero"),
         "ZeroDivisionError: float division by zero"),
    ], ids=["L-H-overflow", "AGM-V-underflow"])
    def test_evaluation_failure_recorded_per_point(self, represented, representer, error,
                                                   note):
        # the representer raises at every pulled pair of (200, 600) only
        row = get_mean(representer)

        def planted(lo, hi):
            if lo >= 200.0:
                raise error
            return row.evaluator(lo, hi)

        representer = MeanDescriptor(row.id, row.display, planted)
        report = verify_identity(represented, representer, [(1.0, 3.0), (200.0, 600.0)])
        alone = verify_identity(represented, representer, [(1.0, 3.0)])
        assert report.points[0] == alone.points[0]
        failed = report.points[1]
        assert (failed.product_deviation, failed.operator_deviation) == (math.inf, math.inf)
        assert not failed.passed and failed.note == note
        assert report.max_deviation == math.inf

    @pytest.mark.parametrize("represented, representer", [("L", "H"), ("AGM", "V")])
    def test_far_out_pairs_pass_at_unit_scale(self, represented, representer):
        # the pulled pairs of (1e308, 1.7e308) overflowed, and H and V
        # underflowed at the tiny pairs; both deviations are scale-free
        far = [(1e308, 1.7e308), (1e-300, 1e-299), (5e-324, 1e-323)]
        report = verify_identity(represented, representer, [(1.0, 1.7), *far])
        assert report.passed, report.max_deviation
        unit = report.points[0]
        assert report.points[1].product_deviation <= 1e-15
        assert report.points[1].operator_deviation == unit.operator_deviation

    def test_invalid_pair_still_raises(self):
        with pytest.raises(DomainError):
            verify_identity("L", "H", [(1.0, 3.0), (0.0, 1.0)])

    def test_nan_deviation_is_the_max(self):
        # the represented mean is NaN at the second of two pairs only
        log = get_mean("L")
        planted = MeanDescriptor("NANL", "L, NaN at (2, 5)",
                                 lambda lo, hi: math.nan if (lo, hi) == (2.0, 5.0)
                                 else log.evaluator(lo, hi))
        report = verify_identity(planted, "H", [(1.0, 3.0), (2.0, 5.0)])
        assert report.points[0].passed and not report.passed
        assert math.isnan(report.max_deviation)

    def test_max_deviation_without_points_is_zero(self):
        assert verify_identity("L", "H", []).max_deviation == 0.0

    def test_wide_pair_converges(self):
        # z = 0.99999: I(f_H) near its singular end is within the budget
        report = verify_identity("L", "H", [(1e-5, 2.0)])
        assert report.passed and report.points[0].note == ""

    def test_representation_roundtrip_from_scratch(self):
        # represent a mean given only its Seiffert function: build the
        # candidate n = z m'(z), then check the defining identity between
        # the two constructed means
        for mean_id in ("P", "L", "SIN"):
            m = seiffert_of_mean(mean_id)
            represented = mean_of_seiffert(m)
            representer = mean_of_seiffert(construct_candidate(m))
            report = verify_identity(represented, representer,
                                     [(1.0, 3.0), (2.0, 5.0), (0.3, 0.4)])
            assert report.passed


class TestLogEnvelope:
    def test_first_seiffert_at_13(self):
        report = log_envelope_check("P", [(1.0, 3.0)])
        point = report.points[0]
        assert point.lower == pytest.approx(1.0 / math.log(2.0), rel=1e-14)
        assert point.upper == pytest.approx(1.0 / math.log(1.5), rel=1e-14)
        assert point.lower <= point.value <= point.upper
        assert report.passed

    def test_logarithmic_contained(self):
        assert log_envelope_check("L", [(1.0, 3.0)]).passed

    def test_equal_pair_collapses(self):
        report = log_envelope_check("P", [(2.0, 2.0)])
        point = report.points[0]
        assert point.lower == point.value == point.upper == 2.0
        assert point.margin == 0.0

    def test_geometric_passes_default_grid(self):
        assert log_envelope_check("G", default_pairs(20)).passed

    def test_points_default_to_the_default_pairs(self):
        assert log_envelope_check("G") == log_envelope_check("G", default_pairs())

    def test_nan_margin_is_the_min(self):
        # the mean is NaN at the second of two pairs only
        harmonic_row = get_mean("H")
        planted = MeanDescriptor("NANH", "H, NaN at (2, 5)",
                                 lambda lo, hi: math.nan if (lo, hi) == (2.0, 5.0)
                                 else harmonic_row.evaluator(lo, hi))
        report = log_envelope_check(planted, [(1.0, 3.0), (2.0, 5.0)])
        assert report.points[0].passed and math.isnan(report.points[1].margin)
        assert math.isnan(report.min_margin) and not report.passed

    def test_overflowing_pair_is_checked_at_unit_scale(self):
        # x + y overflows at both far pairs; (2^1022, 3 * 2^1022) is (1, 3) scaled
        far = (2.0 ** 1022, 3.0 * 2.0 ** 1022)
        report = log_envelope_check("H", [(1.0, 3.0), far, (1e308, 1.7e308)])
        unit, scaled, other = report.points
        assert scaled.margin == unit.margin and scaled.z == unit.z
        assert (scaled.lower, scaled.value, scaled.upper) == tuple(
            2.0 ** 1022 * v for v in (unit.lower, unit.value, unit.upper))
        assert other.lower < other.value < other.upper < other.y
        assert report.passed

    def test_min_margin_without_points_is_inf(self):
        assert log_envelope_check("H", []).min_margin == math.inf

    def test_near_minimum_mean_fails(self):
        near_min = MeanDescriptor("NEARMIN", "almost the minimum",
                                  lambda lo, hi: lo + 1e-3 * (hi - lo))
        assert not log_envelope_check(near_min, [(1.0, 3.0)]).passed
        # where x + y overflows too, with the margin the pair has at unit scale
        pairs = [(1.0, 3.0), (2.0 ** 1022, 3.0 * 2.0 ** 1022), (1.0, 1.7), (1e308, 1.7e308)]
        unit, scaled, unit_other, other = log_envelope_check(near_min, pairs).points
        assert not scaled.passed and scaled.margin == unit.margin < -0.22
        assert not other.passed
        assert other.margin == pytest.approx(unit_other.margin, rel=1e-14)


class TestEnvelopeGapExample:
    def test_inside_band_and_log_envelope(self, z_grid):
        g = make_envelope_gap_example()
        for z in z_grid:
            assert z / (1.0 + z) <= g(z) <= z / (1.0 - z)
            assert math.log1p(z) <= g(z) <= -math.log1p(-z)

    def test_derivative_is_the_derivative_of_its_function(self):
        g = make_envelope_gap_example()
        for z in GridSpec(0.05, 0.95, 19).points():
            assert g.derivative(z) == pytest.approx(derivative_estimate(g, z), rel=3e-9)

    def test_derivative_leaves_band(self):
        verdict = check_representable(make_envelope_gap_example())
        assert verdict.status == "falsified"


class TestDefaults:
    def test_default_pairs_shape(self):
        pairs = default_pairs(20)
        assert len(pairs) == 20
        zs = [abs(x - y) / (x + y) for x, y in pairs]
        assert min(zs) == pytest.approx(0.01, rel=1e-12)
        assert max(zs) == pytest.approx(0.9, rel=1e-12)

    def test_pair_catalog_ids_resolve(self):
        from meanlab import CATALOG

        assert len(PAIR_CATALOG) == 8
        for entry in PAIR_CATALOG:
            assert entry.represented in CATALOG
            assert entry.representer in CATALOG
