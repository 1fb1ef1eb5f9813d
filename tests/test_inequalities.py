"""Hermite-Hadamard bounds, envelope lemmas, and the catalog chains."""

import math
import random
from functools import partial

import numpy as np
import pytest

from goldens import NEAR_TIES
from meanlab import (
    CATALOG,
    CHAIN_NAMES,
    MEAN_IDS,
    PAIR_CATALOG,
    ChainSpec,
    DomainError,
    GridSpec,
    MeanDescriptor,
    apply_i_operator,
    builtin_chain,
    default_pair_grid,
    default_pairs,
    deform_mean,
    ellip_e,
    envelope_lemma,
    eval_mean,
    hh_bounds,
    hh_refined_lower,
    mean_of_seiffert,
    probe_shape,
    run_chain_suite,
    seiffert_of_mean,
)
from meanlab import inequalities, suite


class TestHHBounds:
    def test_harmonic_representer_at_13(self):
        lower, upper = hh_bounds("H", 1.0, 3.0)
        assert lower == pytest.approx(12.0 / 7.0, rel=1e-14)
        assert upper == pytest.approx(1.875, rel=1e-15)

    def test_upper_equals_quarter_shift_form(self):
        for mean_id in ("G", "H", "C", "R"):
            for x, y in ((1.0, 3.0), (0.2, 5.0), (2.0, 2.5)):
                _, upper = hh_bounds(mean_id, x, y)
                shifted = eval_mean(mean_id, (3.0 * x + y) / 4.0, (x + 3.0 * y) / 4.0)
                assert upper == pytest.approx(shifted, rel=1e-12)

    def test_geometric_upper(self):
        _, upper = hh_bounds("G", 1.0, 3.0)
        assert upper == pytest.approx(math.sqrt(3.75), rel=1e-15)

    def test_arithmetic_is_deformation_invariant(self):
        lower, upper = hh_bounds("A", 1.0, 3.0)
        assert lower == upper == 2.0

    def test_equal_pair(self):
        assert hh_bounds("G", 2.0, 2.0) == (2.0, 2.0)


class TestHHRefinedLower:
    def test_harmonic_representer_at_13(self):
        value = hh_refined_lower("H", 1.0, 3.0)
        assert value == pytest.approx(360.0 / 201.0, rel=1e-14)
        # algebraic form 4 A G^2 (3A^2+G^2) / (3A^4 + 12 A^2 G^2 + G^4)
        a2, g2 = 4.0, 3.0
        algebraic = (4.0 * 2.0 * g2 * (3.0 * a2 + g2)
                     / (3.0 * a2 * a2 + 12.0 * a2 * g2 + g2 * g2))
        assert value == pytest.approx(algebraic, rel=1e-14)

    def test_arithmetic_returns_itself(self):
        assert hh_refined_lower("A", 1.0, 3.0) == 2.0

    def test_geometric_direct_four_term_form(self):
        g_half = deform_mean("G", 0.5)(1.0, 3.0)
        direct = 4.0 / (1.0 / 2.0 + 2.0 / g_half + 1.0 / math.sqrt(3.0))
        assert hh_refined_lower("G", 1.0, 3.0) == pytest.approx(direct, rel=1e-14)
        assert direct == pytest.approx(1.8956035865318737, rel=1e-14)

    @pytest.mark.parametrize("mean_id", ["H", "G"])
    def test_sums_reciprocals_left_to_right(self, mean_id):
        # H and G use no libm function, so these bits are the same on every
        # Python; a compensated sum (sum() of floats from 3.12) changes ~20% of them
        rng = random.Random(1313)
        for _ in range(1000):
            z = math.exp(rng.uniform(math.log(1e-6), math.log(0.999)))
            s = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            lo, hi = s * (1.0 - z), s * (1.0 + z)
            a, shift = 0.5 * (lo + hi), 0.25 * (hi - lo)
            h = eval_mean(mean_id, a - shift, a + shift)
            n = eval_mean(mean_id, lo, hi)
            expected = 4.0 / (((1.0 / a + 1.0 / h) + 1.0 / h) + 1.0 / n)
            assert hh_refined_lower(mean_id, lo, hi).hex() == expected.hex(), (lo, hi)

    def test_refines_the_plain_lower_bound(self):
        for mean_id in ("G", "H", "COSHMEAN", "V"):
            for x, y in default_pair_grid(20):
                lower, _ = hh_bounds(mean_id, x, y)
                assert hh_refined_lower(mean_id, x, y) >= lower - 1e-12 * (x + y)


class TestLowerBoundsNearTies:
    """At pairs 1-3 ulp apart, H(A, N) and H(A, N^{1/2}, N^{1/2}, N) round to
    a value outside [lo, hi] for some means; the bounds are kept inside."""

    def test_no_lower_bound_leaves_the_pair(self):
        outside = dict.fromkeys(["hh_bounds below lo", "hh_bounds above hi",
                                 "hh_refined_lower below lo", "hh_refined_lower above hi"], 0)
        for mean_id in MEAN_IDS:
            for lo, hi in NEAR_TIES:
                lower, refined = hh_bounds(mean_id, lo, hi)[0], hh_refined_lower(mean_id, lo, hi)
                outside["hh_bounds below lo"] += lower < lo
                outside["hh_bounds above hi"] += lower > hi
                outside["hh_refined_lower below lo"] += refined < lo
                outside["hh_refined_lower above hi"] += refined > hi
        assert len(MEAN_IDS) * len(NEAR_TIES) == 54_000
        assert set(outside.values()) == {0}, outside

    def test_a_nan_passes_to_the_chain(self):
        nan_mean = MeanDescriptor("X", "", lambda lo, hi: math.nan)
        assert math.isnan(hh_bounds(nan_mean, 1.0, 3.0)[0])
        assert math.isnan(hh_refined_lower(nan_mean, 1.0, 3.0))
        # the chains' own bound term, as `_chain` builds it
        lower = MeanDescriptor("H(A,X)", "", partial(inequalities._hh_lower, nan_mean))
        spec = ChainSpec("nan", (("G", CATALOG["G"]), ("H(A,X)", lower)))
        report = run_chain_suite(spec, [(1.0, 3.0), (2.0, 5.0)])
        assert math.isnan(report.min_margin) and report.failing_point == (1.0, 3.0)


class TestClosedFormHalfDeformations:
    @pytest.mark.parametrize("mean_id,closed_form", [
        ("G", lambda a, g: math.sqrt(3.0 * a * a + g * g) / 2.0),
        ("C", lambda a, g: (5.0 * a * a - g * g) / (4.0 * a)),
        ("R", lambda a, g: math.sqrt(5.0 * a * a - g * g) / 2.0),
        ("H", lambda a, g: (3.0 * a * a + g * g) / (4.0 * a)),
    ])
    def test_half_deformation_closed_forms(self, mean_id, closed_form):
        for x, y in default_pairs(30, 1e-4, 0.999):
            a = 0.5 * (x + y)
            g = math.sqrt(x) * math.sqrt(y)
            assert deform_mean(mean_id, 0.5)(x, y) == pytest.approx(
                closed_form(a, g), rel=1e-12)


class TestEnvelopeLemma:
    def test_arctan_spot_values(self):
        lower, upper = envelope_lemma("arctan", 0.5)
        assert upper == pytest.approx(8.0 / 17.0, rel=1e-15)
        assert lower == pytest.approx(0.45, rel=1e-15)
        assert upper > math.atan(0.5) > lower

    def test_arsinh_spot_values(self):
        lower, upper = envelope_lemma("arsinh", 0.5)
        assert upper == pytest.approx(1.0 / math.sqrt(4.25), rel=1e-14)
        assert lower == pytest.approx(0.25 + 0.25 / math.sqrt(1.25), rel=1e-14)
        assert upper >= math.asinh(0.5) >= lower

    @pytest.mark.parametrize("kind,target", [("arctan", math.atan),
                                             ("arsinh", math.asinh)])
    def test_strict_ordering_on_grid(self, kind, target):
        for k in range(1, 1000):
            u = k / 1000.0
            lower, upper = envelope_lemma(kind, u)
            assert upper > target(u) > lower

    def test_envelopes_tighten_toward_zero(self):
        for kind, target in (("arctan", math.atan), ("arsinh", math.asinh)):
            gaps = []
            for u in (0.5, 0.1, 0.01, 0.001):
                lower, upper = envelope_lemma(kind, u)
                gaps.append(upper - lower)
                assert upper - target(u) < gaps[0]
            assert gaps == sorted(gaps, reverse=True)

    @pytest.mark.parametrize("kind,mean_id", [("arctan", "C"), ("arsinh", "R")])
    def test_coincides_with_hh_expressions(self, kind, mean_id):
        # upper = 2 n(u/2) and lower = (u + n(u))/2 for the representer's
        # Seiffert function n
        n = seiffert_of_mean(mean_id)
        for k in range(1, 100):
            u = k / 100.0
            lower, upper = envelope_lemma(kind, u)
            assert abs(upper - 2.0 * n(u / 2.0)) <= 1e-12
            assert abs(lower - 0.5 * (u + n(u))) <= 1e-12

    def test_validation(self):
        for bad in (0.0, 1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match=r"u must lie in \(0, 1\)"):
                envelope_lemma("arctan", bad)
        with pytest.raises(DomainError):
            envelope_lemma("cosine", 0.5)


class TestChainSuite:
    @pytest.mark.parametrize("name", CHAIN_NAMES)
    def test_builtin_chains_pass_strictly(self, name):
        report = run_chain_suite(builtin_chain(name))
        assert report.passed
        assert report.min_margin > 0.0
        assert not report.skipped

    def test_spot_values_l_chain(self):
        spec = builtin_chain("hh-L-H")
        values = [fn(1.0, 3.0) for _, fn in spec.terms]
        expected = [12.0 / 7.0, 360.0 / 201.0, 2.0 / math.log(3.0), 1.875]
        for value, ref in zip(values, expected):
            assert value == pytest.approx(ref, rel=1e-13)

    def test_spot_values_t_chain(self):
        spec = builtin_chain("hh-T-C")
        values = [fn(1.0, 3.0) for _, fn in spec.terms]
        expected = [2.125, 1.0 / math.atan(0.5), 20.0 / 9.0]
        for value, ref in zip(values, expected):
            assert value == pytest.approx(ref, rel=1e-13)

    def test_spot_values_agm_chain(self):
        spec = builtin_chain("hh-AGM-V")
        values = [fn(1.0, 3.0) for _, fn in spec.terms]
        expected = [1.7812447845327388, 1.8636167832448964, 1.9051258377996882]
        for value, ref in zip(values, expected):
            assert value == pytest.approx(ref, rel=1e-13)

    def test_degenerate_pair_gives_zero_margins(self):
        report = run_chain_suite(builtin_chain("hh-L-H"), [(2.0, 2.0)])
        assert report.passed
        assert report.points[0].margins == (0.0, 0.0, 0.0)

    def test_term_failure_skips_and_flags(self):
        def broken(lo, hi):
            if hi == 3.0:
                raise ValueError("no value here")
            return hi

        spec = ChainSpec("broken", (("ok", MeanDescriptor("ok", "", lambda lo, hi: lo)),
                                    ("bad", MeanDescriptor("bad", "", broken))))
        report = run_chain_suite(spec, [(1.0, 2.0), (3.0, 1.0), (2.0, 2.5)])
        assert not report.passed
        assert report.skipped == ((3.0, 1.0, "ValueError: no value here"),)
        assert [(p.x, p.y, p.values) for p in report.points] == [
            (1.0, 2.0, (1.0, 2.0)), (2.0, 2.5, (2.0, 2.5))]

    def test_nan_margin_is_the_worst(self):
        # terms planted to overflow at the middle pair give margins (inf, nan)
        def top(x, y):
            return math.inf if x == 4.0 else max(x, y)

        spec = ChainSpec("overflow", (
            ("min", MeanDescriptor("min", "", lambda lo, hi: min(lo, hi))),
            ("top", MeanDescriptor("top", "", lambda lo, hi: top(lo, hi))),
            ("top'", MeanDescriptor("top'", "", lambda lo, hi: top(lo, hi))),
        ))
        pairs = [(1.0, 3.0), (4.0, 7.0), (2.0, 5.0)]
        report = run_chain_suite(spec, pairs)
        assert report.points[1].margins[0] == math.inf
        assert math.isnan(report.points[1].worst_margin)
        assert report.points[2].worst_margin == 0.0
        assert math.isnan(report.min_margin)
        assert not report.passed
        assert report.failing_point == (4.0, 7.0)

    @staticmethod
    def custom(*evaluators):
        return ChainSpec("custom", tuple((f"t{i}", MeanDescriptor(f"t{i}", "", f))
                                         for i, f in enumerate(evaluators)))

    def test_first_term_to_raise_gives_the_reason(self):
        def first(lo, hi):
            if lo == 3.0:
                raise ValueError("first")
            return lo

        def second(lo, hi):
            if lo == 3.0:
                raise ZeroDivisionError("second")
            return hi

        report = run_chain_suite(self.custom(first, second), [(1.0, 2.0), (3.0, 4.0)])
        assert report.skipped == ((3.0, 4.0, "ValueError: first"),)
        assert [(p.x, p.y) for p in report.points] == [(1.0, 2.0)]

    def test_rescale_overflow_skips_only_its_point(self):
        # (1e300, 1.5e300) lies outside the window, so the term's value at the
        # rescaled pair is multiplied back by 2^e, past the largest double
        spec = self.custom(CATALOG["A"].evaluator, lambda lo, hi: hi * 1e9)
        pairs = [(1.0, 3.0), (1e300, 1.5e300), (2.0, 5.0)]
        report = run_chain_suite(spec, pairs)
        assert report.skipped == ((1e300, 1.5e300, "OverflowError: math range error"),)
        assert [p.values for p in report.points] == [(2.0, 3e9), (3.5, 5e9)]
        assert not report.passed and report.failing_point is None

    def test_late_failure_leaves_earlier_points_alone(self):
        def late(lo, hi):
            if lo == 7.0:
                raise ValueError("late")
            return CATALOG["C"].evaluator(lo, hi)

        pairs = [(1.0, 3.0), (2.0, 5.0), (1e-300, 1e-200), (7.0, 8.0)]
        whole = run_chain_suite(self.custom(CATALOG["G"].evaluator, CATALOG["C"].evaluator),
                                pairs[:-1])
        report = run_chain_suite(self.custom(CATALOG["G"].evaluator, late), pairs)
        assert report.skipped == ((7.0, 8.0, "ValueError: late"),)
        assert len(report.points) == 3
        for got, want in zip(report.points, whole.points):
            assert got == want
            assert [v.hex() for v in got.values] == [v.hex() for v in want.values]
            assert [m.hex() for m in got.margins] == [m.hex() for m in want.margins]
        assert report.min_margin.hex() == whole.min_margin.hex()

    def test_pairs_may_be_a_generator(self):
        spec = builtin_chain("hh-L-H")
        pairs = [(1.0, 3.0), (2.0, 2.0), (1e-300, 1e-200), (0.0, 1.0)]
        assert run_chain_suite(spec, (p for p in pairs)) == run_chain_suite(spec, pairs)

    def test_no_pairs_pass_with_infinite_margin(self):
        report = run_chain_suite(builtin_chain("hh-P-G"), [])
        assert report.min_margin == math.inf
        assert report.passed and report.points == () and report.skipped == ()
        assert report.failing_point is None

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            ChainSpec("tiny", (("only", lambda x, y: x),))
        with pytest.raises(DomainError):
            ChainSpec("bad", (("a", float), ("b", float)))
        with pytest.raises(DomainError):
            builtin_chain("hh-nothing")

    def test_default_grid_composition(self):
        pairs = default_pair_grid()
        assert len(pairs) == 110
        assert all(x > 0 and y > 0 for x, y in pairs)
        # deterministic: same seed, same grid
        assert pairs == default_pair_grid()

    @pytest.mark.parametrize("count, z_min, z_max", [(100, 1e-4, 0.999), (30, 1e-3, 0.5)])
    def test_rescaled_pairs_match_seeded_generator(self, count, z_min, z_max):
        rng = np.random.default_rng(24036)
        expected = []
        for _ in range(10):
            z = math.exp(rng.uniform(math.log(z_min), math.log(z_max)))
            scale = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            expected.append((scale * (1.0 - z), scale * (1.0 + z)))
        assert default_pair_grid(count, z_min, z_max)[count:] == expected

    def test_rescalings_bounded_by_frozen_draws(self):
        assert len(default_pair_grid(5)) == 15


class TestChainsFromThePairCatalog:
    """Each chain is built from its PAIR_CATALOG row and checks each pair once."""

    def test_chain_names_follow_the_catalog(self):
        assert CHAIN_NAMES == tuple(e.chain for e in PAIR_CATALOG)

    @pytest.mark.parametrize("entry", PAIR_CATALOG, ids=lambda e: e.chain)
    def test_chain_matches_its_row(self, entry):
        spec = builtin_chain(entry.chain)
        rep = entry.representer
        labels = [label for label, _ in spec.terms]
        assert (entry.represented, CATALOG[entry.represented]) in spec.terms
        assert f"H(A,{rep})" in labels and f"{rep}^{{1/2}}" in labels
        assert (f"H(A,{rep}^{{1/2}},{rep}^{{1/2}},{rep})" in labels) == (entry.form == "refined")
        ends = [f"H(A,{rep})", f"{rep}^{{1/2}}"]
        if entry.form == "reversed":  # ascending: upper, mean, lower
            ends.reverse()
        assert [labels[0], labels[-1]] == ends

    @pytest.mark.parametrize("name", CHAIN_NAMES)
    def test_one_pair_check_per_point(self, name, check_pair_calls):
        pairs = default_pair_grid(20)
        report = run_chain_suite(builtin_chain(name), pairs)
        assert len(report.points) == len(pairs)
        assert check_pair_calls == pairs

    def test_plain_function_term_is_rejected(self):
        with pytest.raises(DomainError, match="'max' is not a MeanDescriptor"):
            ChainSpec("plain", (("A", CATALOG["A"]), ("max", max)))

    # a_1 of N(1-z, 1+z) = 1 - a_1 z^2 + O(z^4), for each representer N
    LEADING = {"G": 1 / 2, "C": -1, "H": 1, "R": -1 / 2, "COSMEAN": -1 / 2,
               "COS2MEAN": 1, "COSHMEAN": 1 / 2, "V": 3 / 4}
    # the exact limits of margin / z^2, in units of a_1, per chain form
    KAPPA = {"refined": (1 / 8, 1 / 24, 1 / 12), "forward": (1 / 6, 1 / 12),
             "reversed": (-1 / 12, -1 / 6)}

    @pytest.mark.parametrize("entry", PAIR_CATALOG, ids=lambda e: e.chain)
    def test_margins_approach_their_exact_limits(self, entry):
        z = 1e-3
        report = run_chain_suite(builtin_chain(entry.chain), [(1.0 - z, 1.0 + z)])
        b = self.LEADING[entry.representer]
        limits = [k * b for k in self.KAPPA[entry.form]]
        ratios = [m / (z * z) for m in report.points[0].margins]
        assert ratios == pytest.approx(limits, rel=1e-5)


class TestGenericSandwich:
    """The Hermite-Hadamard sandwich driven through the operator I itself."""

    CONVEX_PAIRS = [("P", "G"), ("L", "H"), ("SINH", "COSHMEAN"),
                    ("TAN", "COS2MEAN"), ("AGM", "V")]

    @pytest.mark.parametrize("represented,representer", CONVEX_PAIRS,
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_convex_case(self, represented, representer):
        n = seiffert_of_mean(representer)
        assert probe_shape(lambda u: n(u) / u, GridSpec(0.01, 0.99, 41)
                           ).classification == "convex"
        rebuilt = mean_of_seiffert(
            lambda z: apply_i_operator(n, z), mean_id=f"I-of-{representer}")
        for x, y in default_pairs(40, 1e-4, 0.999):
            lower, upper = hh_bounds(representer, x, y)
            refined = hh_refined_lower(representer, x, y)
            value = rebuilt(x, y)
            scale = 0.5 * (x + y)
            assert lower - 1e-9 * scale <= value <= upper + 1e-9 * scale
            assert refined <= value + 1e-9 * scale
            # and the rebuilt mean really is the represented catalog mean
            assert value == pytest.approx(eval_mean(represented, x, y), rel=1e-9)

    def test_reversed_case_for_the_sine_pair(self):
        n = seiffert_of_mean("COSMEAN")
        assert probe_shape(lambda u: n(u) / u, GridSpec(0.01, 0.99, 41)
                           ).classification == "concave"
        rebuilt = mean_of_seiffert(lambda z: apply_i_operator(n, z), mean_id="I-of-COSMEAN")
        for x, y in default_pairs(40, 1e-4, 0.999):
            lower, upper = hh_bounds("COSMEAN", x, y)  # swap roles when reversed
            value = rebuilt(x, y)
            scale = 0.5 * (x + y)
            assert upper - 1e-9 * scale <= value <= lower + 1e-9 * scale

    @pytest.mark.parametrize("representer", ["C", "R"])
    def test_lemma_backed_pairs_are_not_convex(self, representer):
        n = seiffert_of_mean(representer)
        verdict = probe_shape(lambda u: n(u) / u, GridSpec(0.01, 0.99, 99))
        assert verdict.classification == "neither"

    def test_v_ratio_is_convex(self):
        fn = (lambda z: 2.0 / math.pi * ellip_e(z) / ((1.0 - z) * (1.0 + z)))
        verdict = probe_shape(fn, GridSpec(0.001, 0.95, 101))
        assert verdict.classification == "convex"


class TestPlantedNaNInSuiteChecks:
    """Suite checks 07 and 08 folded with min()/max(), which dropped a NaN
    unless it came first; a NaN planted at one point must fail its record."""

    def test_chain_spot_values(self, monkeypatch):
        spec = builtin_chain("hh-L-H")
        label, term = spec.terms[1]  # not the first term, whose NaN max() kept

        def planted(lo, hi):
            return math.nan if (lo, hi) == (1.0, 3.0) else term.evaluator(lo, hi)

        terms = list(spec.terms)
        terms[1] = label, MeanDescriptor(term.id, term.display, planted)
        patched = ChainSpec(spec.name, tuple(terms))
        monkeypatch.setattr(suite, "builtin_chain",
                            lambda name: patched if name == spec.name else builtin_chain(name))
        records = {r.name: r for r in suite.check_inequality_chains()}
        spot = records["hh-L-H-spot-values"]
        assert not spot.passed
        assert math.isnan(spot.margin)
        assert records["hh-L-H"].passed  # the pair grid does not hold (1, 3)

    def test_envelope_lemmas(self, monkeypatch):
        target = GridSpec(0.0005, 0.9995, 1000).points()[500]

        def planted(kind, u):
            lower, upper = envelope_lemma(kind, u)
            return (math.nan, upper) if kind == "arctan" and u == target else (lower, upper)

        monkeypatch.setattr(suite, "envelope_lemma", planted)
        records = {r.name: r for r in suite.check_envelope_lemmas()}
        for name in ("arctan-strict-order", "arctan-hh-coincidence"):
            assert not records[name].passed, name
            assert math.isnan(records[name].margin), name
        assert records["arsinh-strict-order"].passed
        assert records["arsinh-hh-coincidence"].passed
