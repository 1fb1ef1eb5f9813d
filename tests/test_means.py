"""Catalog means, the Seiffert correspondence, and the t-deformation."""

import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meanlab import (
    CATALOG,
    MEAN_IDS,
    DomainError,
    GridSpec,
    MeanDescriptor,
    NonConvergenceError,
    SeiffertBoundError,
    SeiffertFunction,
    UnknownMeanError,
    deform,
    deform_mean,
    derivative_estimate,
    eval_mean,
    get_mean,
    mean_of_seiffert,
    probe_shape,
    relative_half_spread,
    seiffert_bounds,
    seiffert_of_mean,
)
from meanlab._pairs import MAX_HALF_SPREAD, check_pair, half_spread
from meanlab.harmonic import default_pairs
from meanlab.means import AGM_MAX_STEPS
from meanlab.suite import check_roundtrip

positive_args = st.floats(min_value=1e-6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
scales = st.floats(min_value=1e-3, max_value=1e3,
                   allow_nan=False, allow_infinity=False)
MIN_NORMAL = sys.float_info.min  # 2^-1022; below it a double is subnormal


@st.composite
def wide_pairs(draw):
    """(x, y) in either order: the larger any positive double, subnormals
    included, the smaller at most 2^1000 times smaller."""
    hi = draw(st.floats(min_value=5e-324, max_value=sys.float_info.max))
    lo = max(hi * 2.0 ** -draw(st.floats(min_value=0.0, max_value=1000.0)), 5e-324)
    return (hi, lo) if draw(st.booleans()) else (lo, hi)


def scaled_exactly(pair, k):
    """The pair times 2^k, or None if a product is not exactly representable."""
    try:
        scaled = tuple(math.ldexp(v, k) for v in pair)
    except OverflowError:
        return None
    exact = all(0.0 < s and math.ldexp(s, -k) == v for s, v in zip(scaled, pair))
    return scaled if exact else None


def subnormal_slack(value, ref, k):
    """The spacing of the subnormal doubles, 2^-1074, at each scale where one of
    value = M(2^k x, 2^k y) and ref = M(x, y) lies below MIN_NORMAL: the only
    rounding an exact power-of-two rescale leaves."""
    return ((math.ldexp(2.0 ** -1074, k) if ref < MIN_NORMAL else 0.0)
            + (2.0 ** -1074 if value < MIN_NORMAL else 0.0))


#: ROADMAP item 1's pairs, where H, C, AGM, V and the means that form
#: x + y returned inf, 0.0 or nan, or raised, before pairs were rescaled.
FAR_OUT_PAIRS = [(1e200, 1e300), (1.0, 1e308), (1e-300, 1e-200), (1e-320, 1e-310),
                 (4e-323, 5e-323), (1e308, 1.7e308)]


class TestEvalMean:
    def test_arithmetic_exact(self):
        assert eval_mean("A", 1, 3) == 2.0

    def test_contraharmonic_exact(self):
        assert eval_mean("C", 1, 3) == 2.5

    def test_logarithmic_closed_form(self):
        assert eval_mean("L", 1, 3) == pytest.approx(2.0 / math.log(3), rel=1e-14)

    def test_first_seiffert_closed_form(self):
        assert eval_mean("P", 1, 3) == pytest.approx(6.0 / math.pi, rel=1e-14)

    @pytest.mark.parametrize("mean_id", MEAN_IDS)
    def test_equal_arguments_exact(self, mean_id):
        assert eval_mean(mean_id, 0.7, 0.7) == 0.7

    def test_unknown_id(self):
        with pytest.raises(UnknownMeanError):
            eval_mean("NOPE", 1, 2)

    @pytest.mark.parametrize("bad", [(0, 3), (-1, 2), (1, 0), (float("nan"), 1),
                                     (float("inf"), 1)])
    def test_invalid_pairs(self, bad):
        with pytest.raises(DomainError):
            eval_mean("A", *bad)

    def test_descriptor_is_callable(self):
        assert get_mean("G")(1, 4) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("mean_id", MEAN_IDS)
    def test_ordered_core_matches_the_checked_call(self, mean_id):
        desc = get_mean(mean_id)
        for lo, hi in [(1.0, 3.0), (0.7, 0.7), (1e-3, 1e3), (0.5, 1.5), (2.0, 2.0000001)]:
            # bit for bit: equal hex forms
            assert desc.ordered(lo, hi).hex() == desc(lo, hi).hex() == desc(hi, lo).hex()

    def test_catalog_has_all_named_means(self):
        expected = {"A", "G", "H", "C", "R", "L", "P", "T", "NS", "AGM", "V",
                    "SIN", "TAN", "SINH", "TANH", "COSMEAN", "COS2MEAN", "COSHMEAN"}
        assert set(CATALOG) == expected

    def test_logarithmic_near_equal_against_mpmath(self):
        x, y = 1.0, 1.0 + 1e-13
        with mpmath.workdps(40):
            expected = float((mpmath.mpf(y) - mpmath.mpf(x))
                             / (mpmath.log(mpmath.mpf(y)) - mpmath.log(mpmath.mpf(x))))
        assert eval_mean("L", x, y) == pytest.approx(expected, rel=1e-13)


    @pytest.mark.parametrize("x, y", [(5e-324, 1.0), (1e-320, 1.0), (5e-324, 1.7e308)])
    def test_logarithmic_at_extreme_ratios_against_mpmath(self, x, y):
        # d/lo overflows here; the mean is far from 0
        with mpmath.workdps(40):
            expected = float((mpmath.mpf(y) - mpmath.mpf(x))
                             / (mpmath.log(mpmath.mpf(y)) - mpmath.log(mpmath.mpf(x))))
        assert eval_mean("L", x, y) == pytest.approx(expected, rel=4e-16)

    def test_contraharmonic_between_its_arguments_at_wide_ratios(self):
        # hi/lo from 2^40 to 2^400, both in [1e-150, 1e150]: past hi/lo of
        # about 2^53 the quotient (lo^2 + hi^2)/(lo + hi) can round above hi
        rng = random.Random(5309)
        bottom = math.log2(1e-150)
        for _ in range(20_000):
            spread = rng.uniform(40.0, 400.0)
            lo = 2.0 ** rng.uniform(bottom, math.log2(1e150) - spread)
            hi = lo * 2.0 ** spread
            assert lo <= eval_mean("C", lo, hi) <= hi

    @pytest.mark.parametrize("mean_id", ["AGM", "V"])
    def test_elliptic_evaluators_check_nothing(self, mean_id, check_pair_calls):
        value = CATALOG[mean_id].ordered(1.0, 3.0)
        assert check_pair_calls == []
        assert value == eval_mean(mean_id, 3.0, 1.0)


class TestCatalogRows:
    """Each catalog row carries its Seiffert function's shape and derivative."""

    @pytest.mark.parametrize("mean_id", MEAN_IDS)
    def test_row_is_complete(self, mean_id):
        desc = CATALOG[mean_id]
        assert desc.shape in {"affine", "convex", "concave"}
        assert callable(desc.derivative)

    @pytest.mark.parametrize("mean_id", MEAN_IDS)
    def test_derivative_matches_finite_differences(self, mean_id):
        f = seiffert_of_mean(mean_id)
        derivative = CATALOG[mean_id].derivative
        for z in GridSpec(0.01, 0.98, 60).points():
            assert derivative(z) == pytest.approx(derivative_estimate(f, z), rel=1e-7)

    @pytest.mark.parametrize("mean_id", MEAN_IDS)
    def test_shape_matches_midpoint_probe(self, mean_id):
        shape = CATALOG[mean_id].shape
        verdict = probe_shape(seiffert_of_mean(mean_id), GridSpec(0.01, 0.99, 41))
        assert verdict.classification == ("convex" if shape == "affine" else shape)

    def test_agm_derivative_at_one_stops_at_the_step_cap(self):
        # the AGM of 1 and sqrt(1 - z^2) = 0 never closes its gap
        with pytest.raises(NonConvergenceError, match=f"after {AGM_MAX_STEPS} AGM steps"):
            CATALOG["AGM"].derivative(1.0)

    def test_seiffert_function_takes_the_row_derivative(self):
        assert seiffert_of_mean("TANH").derivative is CATALOG["TANH"].derivative

    def test_derived_means_carry_no_row_facts(self):
        derived = (deform_mean("G", 0.5), mean_of_seiffert(seiffert_of_mean("G"), mean_id="G"))
        for desc in derived:
            assert desc.shape is None and desc.derivative is None
            assert seiffert_of_mean(desc).derivative is None


class TestHalfSpread:
    def test_basic(self):
        assert relative_half_spread(1, 3) == 0.5
        assert relative_half_spread(5, 5) == 0.0
        assert relative_half_spread(1, 9) == 0.8

    def test_order_invariant(self):
        assert relative_half_spread(3, 1) == relative_half_spread(1, 3)

    def test_huge_pair_no_overflow(self):
        z = relative_half_spread(1e300, 1e308)
        assert 0.0 < z < 1.0

    def test_within_3_ulp_near_the_largest_double(self):
        # hi + lo would overflow here; the pair is decided first, so z is the
        # direct quotient at unit scale, not 1 - lo/hi, which cancels near ties
        rng = random.Random(61)
        worst = 0.0
        for _ in range(20_000):
            hi = rng.uniform(8.9e307, sys.float_info.max)
            lo = hi / 2.0 ** 2.0 ** rng.uniform(-40.0, 6.0)  # hi/lo from 1 + 2^-40 to 2^64
            exact = (Fraction(hi) - Fraction(lo)) / (Fraction(hi) + Fraction(lo))
            error = abs(Fraction(relative_half_spread(lo, hi)) - exact)
            worst = max(worst, float(error / Fraction(math.ulp(float(exact)))))
        assert worst <= 3.0

    def test_extreme_ratio_clamped_below_one(self):
        z = relative_half_spread(1e-300, 1e300)
        assert 0.0 < z < 1.0

    def test_clamps_to_the_largest_double_below_one(self):
        # (1 - 5e-324) / (1 + 5e-324) rounds to 1
        assert half_spread(5e-324, 1.0) == MAX_HALF_SPREAD
        assert relative_half_spread(1.0, 5e-324) == MAX_HALF_SPREAD

    def test_nan_passes_through(self):
        assert math.isnan(half_spread(math.nan, 1.0))
        assert math.isnan(half_spread(1.0, math.nan))


class TestCheckPair:
    @pytest.mark.parametrize("x, y, message", [
        (math.nan, 1.0, "arguments must be finite, got (nan, 1.0)"),
        (1.0, math.nan, "arguments must be finite, got (1.0, nan)"),
        (1.0, math.inf, "arguments must be finite, got (1.0, inf)"),
        (-math.inf, 1.0, "arguments must be finite, got (-inf, 1.0)"),
        (-1.0, math.nan, "arguments must be finite, got (-1.0, nan)"),
        (0.0, math.inf, "arguments must be finite, got (0.0, inf)"),
        (0.0, 1.0, "arguments must be positive, got (0.0, 1.0)"),
        (1.0, -0.0, "arguments must be positive, got (1.0, -0.0)"),
        (-2, 3, "arguments must be positive, got (-2, 3)"),
        (2.0, -1e-300, "arguments must be positive, got (2.0, -1e-300)"),
    ])
    def test_invalid_pairs_keep_their_messages(self, x, y, message):
        with pytest.raises(DomainError) as info:
            check_pair(x, y)
        assert str(info.value) == message

    #: the exponent that decides the tie (v, v): 0 inside the window
    TIE_EXPONENTS = {5e-324: -1072, 1.0: 0, 3: 0, 1.7976931348623157e308: 1024}

    @pytest.mark.parametrize("v", TIE_EXPONENTS)
    def test_ties(self, v):
        e, lo, hi = check_pair(v, float(v))
        assert e == self.TIE_EXPONENTS[v] and lo == hi and type(lo) is type(hi) is float
        assert math.ldexp(lo, e) == v

    def test_orders_and_converts(self):
        assert check_pair(3, 1.5) == (0, 1.5, 3.0)
        assert check_pair(1.5, 3) == (0, 1.5, 3.0)
        # exponents more than 1024 apart: decided as given
        assert check_pair(1.7976931348623157e308, 5e-324) == (0, 5e-324, 1.7976931348623157e308)

    def test_rescales_outside_the_window(self):
        assert check_pair(1.7e308, 1e308) == (1024, math.ldexp(1e308, -1024),
                                              math.ldexp(1.7e308, -1024))
        assert check_pair(2.0 ** -500, 2.0 ** 500) == (0, 2.0 ** -500, 2.0 ** 500)
        assert check_pair(2.0 ** -501, 1.0) == (-250, 2.0 ** -251, 2.0 ** 250)


class TestSeiffertOfMean:
    def test_geometric_at_06(self):
        f = seiffert_of_mean("G")
        assert f(0.6) == pytest.approx(0.75, rel=1e-15)

    def test_arithmetic_is_identity(self, z_grid):
        f = seiffert_of_mean("A")
        assert all(f(z) == pytest.approx(z, rel=1e-15) for z in z_grid)

    def test_harmonic_at_05(self):
        f = seiffert_of_mean("H")
        assert f(0.5) == pytest.approx(2.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("mean_id", MEAN_IDS)
    def test_band_bounds_hold(self, mean_id, z_grid):
        f = seiffert_of_mean(mean_id)
        for z in z_grid:
            lower, upper = seiffert_bounds(z)
            assert lower <= f(z) <= upper

    def test_domain_validation(self):
        f = seiffert_of_mean("G")
        for bad in (0.0, 1.0, -0.5, 2.0, math.nan, math.inf):
            with pytest.raises(DomainError, match=r"z must lie in \(0, 1\)"):
                f(bad)
            with pytest.raises(DomainError, match=r"z must lie in \(0, 1\)"):
                seiffert_bounds(bad)

    def test_ordering_reverses(self, z_grid):
        # pointwise H <= G <= L <= P <= A as means, so the Seiffert
        # functions must be ordered the other way around
        chain = ["H", "G", "L", "P", "A"]
        for small, large in zip(chain, chain[1:]):
            assert all(eval_mean(small, 1 - z, 1 + z) <= eval_mean(large, 1 - z, 1 + z)
                       for z in z_grid)
            f_small = seiffert_of_mean(small)
            f_large = seiffert_of_mean(large)
            assert all(f_small(z) >= f_large(z) for z in z_grid)


class TestMeanOfSeiffert:
    def test_arcsin_gives_first_seiffert(self):
        m = mean_of_seiffert(SeiffertFunction(math.asin, name="arcsin"))
        assert m(1, 3) == pytest.approx(6.0 / math.pi, rel=1e-14)

    def test_artanh_gives_logarithmic(self):
        m = mean_of_seiffert(SeiffertFunction(math.atanh, name="artanh"))
        assert m(1, 3) == pytest.approx(2.0 / math.log(3), rel=1e-14)

    def test_identity_gives_arithmetic(self):
        m = mean_of_seiffert(SeiffertFunction(lambda z: z, name="id"))
        assert m(1, 3) == pytest.approx(2.0, rel=1e-15)
        assert m(2, 2) == 2.0

    def test_bound_violation_reports_witness(self):
        m = mean_of_seiffert(SeiffertFunction(lambda z: z * z, name="zsq"))
        with pytest.raises(SeiffertBoundError) as err:
            m(1, 3)
        assert err.value.z == 0.5
        assert err.value.value == 0.25

    def test_slack_grows_with_a_bound_over_one(self):
        # at z = 0.9 (the pair (1, 19)) the upper bound z/(1-z) is 9, so the slack
        # is 9 BOUND_CHECK_TOL: 5e-9 above the bound is inside it, 2e-8 is not
        inside = mean_of_seiffert(lambda z: z / (1.0 - z) + 5e-9)
        assert inside(1, 19) == pytest.approx(1.0, rel=1e-8)
        outside = mean_of_seiffert(lambda z: z / (1.0 - z) + 2e-8)
        with pytest.raises(SeiffertBoundError) as err:
            outside(1, 19)
        assert err.value.z == 0.9 and err.value.upper == pytest.approx(9.0, rel=1e-15)

    def test_nan_value_fails_with_its_witness(self):
        m = mean_of_seiffert(lambda z: math.nan)
        with pytest.raises(SeiffertBoundError) as err:
            m(1, 3)
        assert err.value.z == 0.5
        assert math.isnan(err.value.value)

    @pytest.mark.parametrize("mean_id", MEAN_IDS)
    def test_roundtrip(self, mean_id, pair_grid_50):
        original = get_mean(mean_id)
        rebuilt = mean_of_seiffert(seiffert_of_mean(original))
        for x, y in pair_grid_50:
            ref = original(x, y)
            assert abs(rebuilt(x, y) - ref) <= 1e-12 * ref


class TestRoundtripCheck:
    def test_planted_nan_fails_the_record(self, monkeypatch):
        # suite check 01 folds its deviations with max(), which dropped a NaN
        tanh = CATALOG["TANH"]
        # a pair whose rebuilt mean reads TANH at another pair, so only the reference is NaN
        target = next(p for p in default_pairs(50, 1e-4, 0.99)
                      if (1.0 - half_spread(*p), 1.0 + half_spread(*p)) != p)

        def planted(lo, hi):
            return math.nan if (lo, hi) == target else tanh.evaluator(lo, hi)

        monkeypatch.setitem(CATALOG, "TANH", MeanDescriptor("TANH", tanh.display, planted))
        (record,) = [r for r in check_roundtrip() if r.name == "TANH"]
        assert not record.passed
        assert math.isnan(record.margin)
        assert record.detail == "max relative deviation nan"


class TestDeform:
    def test_identity_deformation(self):
        f = seiffert_of_mean("P")
        assert deform(f, 1.0)(0.3) == f(0.3)
        assert deform_mean("P", 1.0)(1, 3) == eval_mean("P", 1, 3)

    @pytest.mark.parametrize("mean_id", ["A", "G", "AGM"])
    def test_overflowing_pulled_pair_is_rejected(self, mean_id):
        # x + y overflows, so the pulled pair was (inf, inf) and raised DomainError;
        # now it is formed at (1e308, 1.7e308) / 2^1024, which is near 1
        deformed = deform_mean(mean_id, 0.5)
        value = deformed(1e308, 1.7e308)
        assert 1e308 < value < 1.7e308
        assert value == math.ldexp(deformed(math.ldexp(1e308, -1024),
                                            math.ldexp(1.7e308, -1024)), 1024)

    def test_unit_deformation_is_the_row(self):
        for mean_id in MEAN_IDS:
            assert deform_mean(mean_id, 1) is get_mean(mean_id)

    def test_geometric_half(self):
        assert deform_mean("G", 0.5)(1, 3) == pytest.approx(math.sqrt(3.75), rel=1e-15)

    def test_contraharmonic_half(self):
        # equals (5A^2 - G^2)/(4A) at (1, 3)
        assert deform_mean("C", 0.5)(1, 3) == pytest.approx(2.125, rel=1e-15)

    @pytest.mark.parametrize("t", [0.0, -0.2, 1.0000001, 2.0])
    def test_parameter_validation(self, t):
        with pytest.raises(DomainError):
            deform_mean("G", t)
        with pytest.raises(DomainError):
            deform(seiffert_of_mean("G"), t)

    @pytest.mark.parametrize("mean_id", ["G", "C", "L", "AGM", "SIN"])
    @pytest.mark.parametrize("t", [0.25, 0.5, 0.9, 1.0])
    def test_deformation_consistency(self, mean_id, t, z_grid):
        # Seiffert function of the deformed mean == deformed Seiffert function
        via_mean = seiffert_of_mean(deform_mean(mean_id, t))
        via_function = deform(seiffert_of_mean(mean_id), t)
        for z in z_grid[::7]:
            assert via_mean(z) == pytest.approx(via_function(z), rel=1e-12)

    def test_deformed_derivative_chain_rule(self):
        f = seiffert_of_mean("L")  # artanh, derivative 1/(1-z^2)
        g = deform(f, 0.5)
        assert g.derivative is not None
        assert g.derivative(0.6) == pytest.approx(1.0 / (1.0 - 0.09), rel=1e-14)


class TestInvariantProperties:
    """Symmetric, homogeneous, finite and between the arguments on pairs at
    every scale (ROADMAP item 1)."""

    @settings(max_examples=150, deadline=None)
    @given(x=positive_args, y=positive_args, lam=scales,
           mean_id=st.sampled_from(MEAN_IDS))
    def test_homogeneity(self, x, y, lam, mean_id):
        ref = lam * eval_mean(mean_id, x, y)
        assert abs(eval_mean(mean_id, lam * x, lam * y) - ref) <= 1e-12 * ref

    @settings(max_examples=300, deadline=None)
    @given(pair=wide_pairs(), k=st.integers(min_value=-1100, max_value=1100),
           mean_id=st.sampled_from(MEAN_IDS))
    def test_homogeneity_under_powers_of_two(self, pair, k, mean_id):
        scaled = scaled_exactly(pair, k)
        assume(scaled is not None)
        value = eval_mean(mean_id, *scaled)
        ref = eval_mean(mean_id, *pair)
        expected = math.ldexp(ref, k)
        assert abs(value - expected) <= 1e-12 * expected + subnormal_slack(value, ref, k)

    @settings(max_examples=300, deadline=None)
    @given(pair=wide_pairs(), k=st.integers(min_value=-550, max_value=550),
           mean_id=st.sampled_from(MEAN_IDS))
    def test_homogeneity_exact_under_even_powers(self, pair, k, mean_id):
        # the square roots of G and P scale exactly by 4^k, but not by 2^k
        scaled = scaled_exactly(pair, 2 * k)
        assume(scaled is not None)
        value = eval_mean(mean_id, *scaled)
        ref = eval_mean(mean_id, *pair)
        assert abs(value - math.ldexp(ref, 2 * k)) <= subnormal_slack(value, ref, 2 * k)

    @settings(max_examples=300, deadline=None)
    @given(pair=wide_pairs(), mean_id=st.sampled_from(MEAN_IDS))
    def test_symmetry_exact(self, pair, mean_id):
        x, y = pair
        assert eval_mean(mean_id, x, y) == eval_mean(mean_id, y, x)

    @settings(max_examples=300, deadline=None)
    @given(pair=wide_pairs(), mean_id=st.sampled_from(MEAN_IDS))
    def test_betweenness(self, pair, mean_id):
        x, y = pair
        value = eval_mean(mean_id, x, y)
        slack = 1e-12 * max(x, y)
        assert math.isfinite(value)
        assert min(x, y) - slack <= value <= max(x, y) + slack

    @pytest.mark.parametrize("mean_id", MEAN_IDS)
    @pytest.mark.parametrize("x, y", FAR_OUT_PAIRS)
    def test_far_out_pairs(self, x, y, mean_id):
        value = eval_mean(mean_id, x, y)
        assert x <= value <= y and math.isfinite(value)


class TestContraharmonicSubnormalSquares:
    def test_against_exact_rationals(self):
        # with hi below about 1.5e-154 the squares of C were subnormal or 0:
        # 19,758 of 20,000 such pairs were off by more than 4e-16, one gave 0.0
        rng = random.Random(25)
        for _ in range(5000):
            hi = 10.0 ** rng.uniform(-175.0, -154.0)
            lo = hi * 2.0 ** -rng.uniform(0.01, 20.0)
            a, b = Fraction(lo), Fraction(hi)
            exact = (a * a + b * b) / (a + b)
            value = eval_mean("C", lo, hi)
            assert abs(Fraction(value) - exact) <= Fraction(4e-16) * exact, (lo, hi)


def _ulp_z_points(per_end=75):
    """z in [1e-12, 1 - 1e-12], log-spaced toward 0 and toward 1: for each of
    `per_end` gaps g log-spaced from 1e-12 to 10^-0.3, z = g and z = 1 - g."""
    gaps = [10.0 ** (-12.0 + 11.7 * i / (per_end - 1)) for i in range(per_end)]
    return sorted({*gaps, *(1.0 - g for g in gaps)})


#: Each catalog mean at an exact pair x < y, in mpmath, by its defining formula
_MPMATH_MEANS = {
    "A": lambda x, y: (x + y) / 2,
    "G": lambda x, y: mpmath.sqrt(x * y),
    "H": lambda x, y: 2 * x * y / (x + y),
    "C": lambda x, y: (x * x + y * y) / (x + y),
    "R": lambda x, y: mpmath.sqrt((x * x + y * y) / 2),
    "L": lambda x, y: (y - x) / (mpmath.log(y) - mpmath.log(x)),
    "P": lambda x, y: (y - x) / (2 * mpmath.asin((y - x) / (x + y))),
    "T": lambda x, y: (y - x) / (2 * mpmath.atan((y - x) / (x + y))),
    "NS": lambda x, y: (y - x) / (2 * mpmath.asinh((y - x) / (x + y))),
    "AGM": mpmath.agm,
    # pi H / (2 E(z)); mpmath's ellipe takes the parameter z^2
    "V": lambda x, y: mpmath.pi * x * y / (x + y) / mpmath.ellipe(((y - x) / (x + y)) ** 2),
    "SIN": lambda x, y: (y - x) / (2 * mpmath.sin((y - x) / (x + y))),
    "TAN": lambda x, y: (y - x) / (2 * mpmath.tan((y - x) / (x + y))),
    "SINH": lambda x, y: (y - x) / (2 * mpmath.sinh((y - x) / (x + y))),
    "TANH": lambda x, y: (y - x) / (2 * mpmath.tanh((y - x) / (x + y))),
    "COSMEAN": lambda x, y: (x + y) / 2 / mpmath.cos((y - x) / (x + y)),
    "COS2MEAN": lambda x, y: (x + y) / 2 * mpmath.cos((y - x) / (x + y)) ** 2,
    "COSHMEAN": lambda x, y: (x + y) / 2 / mpmath.cosh((y - x) / (x + y)),
}


class TestUlpAgainstMpmath:
    """Each catalog row at (1 - z, 1 + z), in ulps of the value that mpmath
    gives at 40 digits for the same pair of doubles (ROADMAP item 1)."""

    Z_POINTS = _ulp_z_points()
    #: 3.53 ulp at worst over these z (COS2MEAN near z = 1), the other rows below
    BOUND = 4.0
    #: V inherits E's error near z = 1: 22.07 ulp at worst over these z.
    #: ROADMAP item 10 brings it to BOUND.
    V_BOUND = 23.0

    def test_z_points(self):
        assert len(self.Z_POINTS) == 150
        assert self.Z_POINTS[0] == 1e-12 and self.Z_POINTS[-1] == 1.0 - 1e-12

    @pytest.mark.parametrize("mean_id", MEAN_IDS)
    def test_row_within_bound(self, mean_id):
        row, reference = CATALOG[mean_id], _MPMATH_MEANS[mean_id]
        worst = 0.0
        with mpmath.workdps(40):
            for z in self.Z_POINTS:
                lo, hi = 1.0 - z, 1.0 + z
                exact = reference(mpmath.mpf(lo), mpmath.mpf(hi))
                error = abs(mpmath.mpf(row(lo, hi)) - exact) / math.ulp(float(exact))
                worst = max(worst, float(error))
        assert worst <= (self.V_BOUND if mean_id == "V" else self.BOUND)

    #: The Seiffert derivative fields that take 1 - z^2, in closed form; written
    #: 1 - z*z in floats they were off by up to 4.0e7 ulp near z = 1
    DERIVATIVES = {
        "G": lambda z: (1 - z * z) ** mpmath.mpf(-1.5),
        "H": lambda z: (1 + z * z) / (1 - z * z) ** 2,
        "C": lambda z: (1 - z * z) / (1 + z * z) ** 2,
        "L": lambda z: 1 / (1 - z * z),
        "P": lambda z: (1 - z * z) ** mpmath.mpf(-0.5),
    }

    @pytest.mark.parametrize("mean_id", sorted(DERIVATIVES))
    def test_derivative_within_bound(self, mean_id):
        # 3.29 ulp at worst over these z (C), the other four below 2
        derivative, reference = CATALOG[mean_id].derivative, self.DERIVATIVES[mean_id]
        worst = 0.0
        with mpmath.workdps(60):
            for z in self.Z_POINTS:
                exact = reference(mpmath.mpf(z))
                error = abs(mpmath.mpf(derivative(z)) - exact) / math.ulp(float(exact))
                worst = max(worst, float(error))
        assert worst <= self.BOUND

    def test_contraharmonic_with_subnormal_squares(self):
        # hi in [1e-175, 1e-154], where lo^2 + hi^2 would be subnormal unrescaled;
        # 2.16 ulp at worst over these pairs, against exact rationals; C uses only
        # + * /, so its bits do not depend on the platform's libm
        rng = random.Random(2025)
        worst = Fraction(0)
        for _ in range(1000):
            hi = 10.0 ** rng.uniform(-175.0, -154.0)
            lo = hi * 2.0 ** -rng.uniform(0.01, 20.0)
            a, b = Fraction(lo), Fraction(hi)
            exact = (a * a + b * b) / (a + b)
            error = abs(Fraction(eval_mean("C", lo, hi)) - exact)
            worst = max(worst, error / Fraction(math.ulp(float(exact))))
        assert worst <= Fraction(22, 10)
