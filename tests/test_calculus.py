"""Quadrature, the integral operator, derivatives, and grids."""

import functools
import math
import operator
import os
import random
import struct
import subprocess
import sys
import textwrap
import types
from itertools import accumulate, pairwise
from pathlib import Path

import numpy as np
import pytest

from meanlab import calculus, means
from meanlab import (
    CATALOG,
    MEAN_IDS,
    DomainError,
    GridSpec,
    NonConvergenceError,
    SeiffertFunction,
    apply_i_operator,
    derivative_estimate,
    ellip_e,
    i_envelope,
    integrate,
    seiffert_of_mean,
)
from meanlab._frozen import set_field
from meanlab.calculus import MAX_PANELS, QUADRATURE_TOL, _qk15
from shapes import midpoint_shape

SRC = Path(__file__).resolve().parent.parent / "src"

#: Uniform grids the package samples, plus edge shapes.
UNIFORM_GRIDS = [(0.0005, 0.9995, 1000), (0.01, 0.99, 99), (0.001, 0.999, 500),
                 (0.01, 0.99, 41), (0.05, 0.95, 19), (0.0, 1.0, 2), (-3.7, 12.25, 37)]
#: Log grids the package samples, plus a wide and a two-point one.
LOG_GRIDS = [(1e-4, 0.99, 50), (0.01, 0.9, 20), (1e-4, 0.999, 100), (1e-3, 0.9, 51),
             (1e-12, 1e6, 73), (0.5, 2.0, 2)]

#: The table-and-loop QK15 kernel that `_qk15` replaced, kept as its reference:
#: one row per node x >= 0 (node, Kronrod weight, Gauss weight or 0).
REFERENCE_QK15 = (
    (0.0, 0.20948214108472782, 0.4179591836734694),
    (0.20778495500789848, 0.20443294007529889, 0.0),
    (0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
    (0.8648644233597691, 0.10479001032225019, 0.0),
    (0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
    (0.9914553711208126, 0.022935322010529224, 0.0),
)


def reference_qk15(fn, a, b):
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    kronrod = gauss = 0.0
    for x, wk, wg in REFERENCE_QK15:
        y = fn(center - half * x) + fn(center + half * x) if x else fn(center)
        kronrod += wk * y
        gauss += wg * y
    return half * kronrod, abs(half * (kronrod - gauss))


def module_qk15_rows():
    """The constants `_qk15` runs on, as rows of REFERENCE_QK15's layout."""
    return tuple((getattr(calculus, f"_X{k}") if k else 0.0,
                  getattr(calculus, f"_WK{k}"),
                  getattr(calculus, f"_WG{k}", 0.0)) for k in range(8))


def bits(*values):
    return struct.pack(f"<{len(values)}d", *values)


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda u: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_degenerate_interval(self):
        assert integrate(math.sin, 0.3, 0.3) == 0.0

    def test_reversed_bounds_rejected(self):
        with pytest.raises(DomainError):
            integrate(math.sin, 1.0, 0.0)

    def test_arcsin_antiderivative(self):
        value = integrate(lambda u: 1.0 / math.sqrt(1.0 - u * u), 0.0, 0.5)
        assert value == pytest.approx(math.pi / 6.0, abs=1e-12)

    def test_elliptic_integrand_matches_e(self):
        value = integrate(lambda p: math.sqrt(1.0 - 0.25 * math.sin(p) ** 2),
                          0.0, 0.5 * math.pi)
        assert value == pytest.approx(ellip_e(0.5), abs=1e-12)
        assert value == pytest.approx(1.4674622093394272, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a, b = sorted(rng.uniform(0.0, 3.0, size=2))
            if a == b:
                continue
            alpha, beta = rng.uniform(-2.0, 2.0, size=2)
            w1, w2 = rng.uniform(1.0, 9.0, size=2)

            def f(u, w=w1):
                return math.sin(w * u)

            def g(u, w=w2):
                return math.exp(-u) * math.cos(w * u)

            combined = integrate(lambda u: alpha * f(u) + beta * g(u), a, b)
            split = alpha * integrate(f, a, b) + beta * integrate(g, a, b)
            assert abs(combined - split) <= 3.0 * QUADRATURE_TOL

    def test_non_convergence_carries_best_estimate(self):
        with pytest.raises(NonConvergenceError) as err:
            integrate(lambda u: math.sin(50.0 * u), 0.0, 3.0, tol=1e-18)
        # the best estimate covers all of [0, 3], not where the work stopped
        assert err.value.best == pytest.approx((1.0 - math.cos(150.0)) / 50.0, abs=1e-12)
        assert err.value.error_bound > 0.0
        assert "did not converge on [0.0, 3.0]" in str(err.value)

    def test_infinite_integrand_does_not_converge(self):
        with pytest.raises(NonConvergenceError) as err:
            integrate(lambda u: math.copysign(math.inf, u - 0.55), 0.0, 1.0)
        assert math.isnan(err.value.best)

    def test_integrand_non_convergence_passes_through(self):
        inner = NonConvergenceError("inner routine gave up")

        def fn(u):
            raise inner

        with pytest.raises(NonConvergenceError) as err:
            integrate(fn, 0.0, 1.0)
        assert err.value is inner and err.value.best is None

    # Near the singularity the error sum is rounding noise that bisection
    # cannot lower: the work must end, by NonConvergenceError (a node on 1/3
    # would give ZeroDivisionError), and a subprocess with a timeout turns a
    # hang into a failure.  The best estimate must cover the whole interval,
    # not the subinterval where the work stopped.
    @pytest.mark.parametrize("value, call, exact, ratio_bounds", [
        ("abs(u - 1 / 3) ** -0.9", "integrate(f, 0.0, 1.0)",
         10.0 * ((1.0 / 3.0) ** 0.1 + (2.0 / 3.0) ** 0.1), (0.5, 2.0)),
    ], ids=["singular"])
    def test_panel_budget_ends_the_work(self, value, call, exact, ratio_bounds):
        code = textwrap.dedent(f"""
            from meanlab import NonConvergenceError, apply_i_operator, integrate
            from meanlab import seiffert_of_mean
            h = seiffert_of_mean("H")
            evals = 0
            def f(u):
                global evals
                evals += 1
                return {value}
            try:
                {call}
            except NonConvergenceError as exc:
                print(evals, exc.best, exc.error_bound)
            """)
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, env=env, timeout=30)
        assert result.returncode == 0, result.stderr
        evals, best, bound = result.stdout.split()
        assert int(evals) <= 15 * (MAX_PANELS + 2)
        assert math.isfinite(float(best)) and float(bound) > 0.0
        assert ratio_bounds[0] <= float(best) / exact <= ratio_bounds[1]

    # The integrand of I(f_H) is 1/(1 - u^2), about 5e4 near the top end.
    @pytest.mark.parametrize("z", [0.9999, 0.99995, 0.99999])
    def test_harmonic_near_one_converges(self, z):
        h = seiffert_of_mean("H").func
        evals = 0

        def f(u):
            nonlocal evals
            evals += 1
            return h(u)

        assert apply_i_operator(f, z) == pytest.approx(math.atanh(z), abs=1e-11)
        assert evals <= 1_000

    @staticmethod
    def _rule_on_power(column, k):
        """A column of the QK15 constants (1: Kronrod, 2: Gauss) applied to u**k on [-1, 1]."""
        return math.fsum(row[column] * (row[0] ** k + (-row[0]) ** k if row[0] else 0.0 ** k)
                         for row in module_qk15_rows())

    @pytest.mark.parametrize("column, degree, inexact", [(1, 22, 24), (2, 13, 14)],
                             ids=["kronrod", "gauss"])
    def test_rule_exact_to_its_degree(self, column, degree, inexact):
        for k in range(degree + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(self._rule_on_power(column, k) - exact) <= 2e-16, k
        assert abs(self._rule_on_power(column, inexact) - 2.0 / (inexact + 1)) > 1e-9

    def test_gauss_subset_matches_leggauss(self):
        # QUADPACK's decimals round 1-2 ulp away from numpy's, so not bitwise
        rows = [(x, wg) for x, _, wg in module_qk15_rows() if wg]
        nodes, weights = np.polynomial.legendre.leggauss(7)
        assert len(rows) == 4
        for (x, wg), node, weight in zip(rows, nodes[3:], weights[3:]):
            assert abs(x - node) <= 2e-16
            assert abs(wg - weight) <= 1e-15 * weight

    @pytest.mark.parametrize("special", [math.inf, -math.inf, math.nan, -0.0, None],
                             ids=["inf", "-inf", "nan", "-0.0", "plain"])
    def test_kernel_keeps_the_reference_arithmetic(self, special):
        # Same nodes in the same order and the same (value, error) bits on
        # 1,000 seeded panels; `special` replaces one node's value, so an inf
        # at a non-Gauss node must still give a NaN error, as the loop did.
        rng = random.Random(14)
        shapes = (math.sin, math.exp, lambda u: 1.0 / (1.0 + u * u),
                  lambda u: u ** 7 - 3.0 * u, seiffert_of_mean("L").func, lambda u: -0.0)
        for _ in range(1_000):
            fn = rng.choice(shapes)
            a = rng.uniform(1e-3, 0.9)
            b = a + rng.choice((1e-12, 1e-6, 1e-3, 0.09)) * rng.uniform(0.0, 1.0)
            spike = rng.randrange(15)

            def run(kernel):
                calls = []

                def g(u):
                    calls.append(u)
                    return special if special is not None and len(calls) == spike + 1 else fn(u)

                return bits(*kernel(g, a, b)), calls

            assert run(_qk15) == run(reference_qk15), (a, b, spike)

    def test_one_panel_is_the_kernel_value(self):
        for fn, a, b in ((math.sin, 0.0, 0.5), (math.exp, -1.0, 1.0),
                         (lambda u: u ** 9, 0.2, 0.7), (lambda u: -math.cos(u), 0.0, 1.0)):
            value, err = _qk15(fn, a, b)
            assert err <= QUADRATURE_TOL
            assert bits(integrate(fn, a, b)) == bits(value)
        # the fsum of the heap loop turned -0.0 into 0.0, and so does the shortcut
        assert bits(_qk15(lambda u: -1.0, 0.0, 5e-324)[0]) == bits(-0.0)
        assert bits(integrate(lambda u: -1.0, 0.0, 5e-324)) == bits(0.0)

    def test_running_error_sum_spares_the_exact_sums(self, monkeypatch):
        # the running error sum tracks the exact one, so a refined integral sums
        # its heap exactly twice: the error once it first falls within tol, and
        # the value.  A flipped sign in the running sum leaves every value and
        # panel as it was, but rechecks the error on most steps.
        sums = 0

        def fsum(values):
            nonlocal sums
            sums += 1
            return math.fsum(values)

        monkeypatch.setattr(calculus, "math", types.SimpleNamespace(
            **{**{name: getattr(math, name) for name in dir(math)}, "fsum": fsum}))
        for fn in (math.sqrt, lambda u: abs(u - 1.0 / 3.0), lambda u: math.sin(100.0 * u),
                   lambda u: abs(u - 0.3) ** 0.5):
            for tol in (1e-6, 1e-10, 1e-14):
                sums = 0
                integrate(fn, 0.0, 1.0, tol)
                assert sums == 2, (fn, tol)

    def test_nan_panel_is_bisected_away(self):
        # one node at the centre of [0, 1] gives inf, so the first panel's
        # error is NaN; once that panel is split the sum must recover
        value = integrate(lambda u: math.inf if u == 0.5 else math.sqrt(u), 0.0, 1.0)
        assert abs(value - 2.0 / 3.0) <= 1e-11

    def test_nan_integrand_never_converges(self):
        with pytest.raises(NonConvergenceError) as err:
            integrate(lambda u: math.nan, 0.0, 1.0)
        assert math.isnan(err.value.best) and math.isnan(err.value.error_bound)

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0),
                                      (0.0, math.inf), (-math.inf, math.inf),
                                      (math.inf, math.inf)])
    def test_non_finite_bounds_rejected(self, a, b):
        with pytest.raises(DomainError, match="finite"):
            integrate(math.sin, a, b)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            integrate(math.sin, 0.0, 1.0, tol=0.0)
        with pytest.raises(DomainError):
            integrate(math.sin, 0.0, 1.0, tol=math.nan)


class TestIOperator:
    def test_geometric_seiffert_integrates_to_arcsin(self):
        value = apply_i_operator(lambda u: u / math.sqrt(1.0 - u * u), 0.5)
        assert value == pytest.approx(math.pi / 6.0, abs=1e-11)

    def test_contraharmonic_seiffert_integrates_to_arctan(self):
        value = apply_i_operator(lambda u: u / (1.0 + u * u), 0.5)
        assert value == pytest.approx(math.atan(0.5), abs=1e-11)

    def test_identity_fixed_point(self):
        for z in (0.1, 0.5, 0.9):
            assert apply_i_operator(lambda u: u, z) == pytest.approx(z, abs=1e-12)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, math.nan, math.inf):
            with pytest.raises(DomainError):
                apply_i_operator(lambda u: u, bad)
            with pytest.raises(DomainError):
                i_envelope(bad)

    @pytest.mark.parametrize("mean_id", MEAN_IDS)
    def test_envelope_and_vanishing_limit(self, mean_id):
        f = seiffert_of_mean(mean_id)
        for z in (0.1, 0.5, 0.9):
            low, high = i_envelope(z)
            value = apply_i_operator(f, z)
            assert low - 2e-11 <= value <= high + 2e-11
        assert abs(apply_i_operator(f, 1e-6)) <= 2e-6

    # Per call of I on a catalog Seiffert function: one 15-point panel where
    # it is smooth, a few hundred evaluations near the top end.
    @pytest.mark.parametrize("mean_id", MEAN_IDS)
    def test_work_per_call(self, mean_id):
        f = seiffert_of_mean(mean_id)
        evals = 0

        def counted(u):
            nonlocal evals
            evals += 1
            return f.func(u)

        g = SeiffertFunction(counted, f.derivative, f.name)
        apply_i_operator(g, 0.5)
        assert evals == 15
        evals = 0
        apply_i_operator(g, 0.999)
        assert evals <= 500

    def test_unwraps_only_seiffert_functions(self, monkeypatch):
        # the points of I lie in (0, z), so a SeiffertFunction's per-point
        # check is skipped; other callables, even ones with a .func, are
        # called as they are
        checked = []
        monkeypatch.setattr(means, "check_unit", lambda z: checked.append(z) or z)
        apply_i_operator(seiffert_of_mean("G"), 0.5)
        assert checked == []
        identity = functools.partial(operator.mul, 1.0)
        assert apply_i_operator(identity, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_envelope_returns_floats(self):
        assert all(type(v) is float for v in i_envelope(0.5))

    def test_monotone_in_integrand(self):
        # z/(1+z^2) <= z <= z/(1-z^2) pointwise, so the I values are ordered
        f_small = seiffert_of_mean("C")
        f_mid = seiffert_of_mean("A")
        f_large = seiffert_of_mean("H")
        for z in (0.2, 0.5, 0.8):
            small = apply_i_operator(f_small, z)
            mid = apply_i_operator(f_mid, z)
            large = apply_i_operator(f_large, z)
            assert small <= mid + 2e-11
            assert mid <= large + 2e-11

    @pytest.mark.parametrize("mean_id", ["G", "H", "L", "C", "R", "SIN", "SINH"])
    def test_shape_preservation(self, mean_id):
        f = seiffert_of_mean(mean_id)
        shape = CATALOG[mean_id].shape
        grid = GridSpec(0.02, 0.98, 33)
        assert midpoint_shape(lambda z: apply_i_operator(f, z), grid) == shape
        for z in (0.2, 0.5, 0.8):
            value = apply_i_operator(f, z)
            if shape == "convex":
                assert z - 2e-11 <= value <= f(z) + 2e-11
            else:
                assert f(z) - 2e-11 <= value <= z + 2e-11


class TestIOperatorOn:
    @pytest.mark.parametrize("mean_id, exact", [("H", math.atanh), ("G", math.asin)])
    def test_running_sums_track_closed_forms(self, mean_id, exact):
        zs = GridSpec(0.001, 0.999, 60).points()
        values = calculus._i_operator_on_each((seiffert_of_mean(mean_id),), zs)[0]
        assert len(values) == len(zs)
        for z, value in zip(zs, values):
            assert abs(value - exact(z)) <= 1e-11

    @pytest.mark.parametrize("mean_id", ["A", "H", "L", "AGM", "TAN"])
    def test_one_point_is_one_integrate(self, mean_id):
        f = seiffert_of_mean(mean_id)

        def integrand(u):
            return 1.0 if u < calculus.I_OPERATOR_CUTOFF else f.func(u) / u

        for z in (1e-6, 0.3, 0.5, 0.97):
            assert apply_i_operator(f, z) == integrate(integrand, 0.0, z)

    def test_repeated_point(self):
        first, again, last = calculus._i_operator_on_each((seiffert_of_mean("L"),),
                                                          (0.4, 0.4, 0.6))[0]
        assert first == again < last

    def test_domain(self):
        f = seiffert_of_mean("A")
        for bad in ((0.5, 0.4), (0.0, 0.5), (0.5, 1.0), (0.2, math.nan)):
            with pytest.raises(DomainError):
                calculus._i_operator_on_each((f,), bad)

    def test_operator_check_work(self):
        # check 09 evaluates each mean at its 99 premise points, at every node
        # of I's 10 first panels (at 1e-6 and the 9 probe points) and 4 refined
        # ones, and at the 9 probe points: 4,704 catalog evaluations, the same
        # on every run.  A panel evaluated twice, or I of a mean run twice,
        # moves the count.
        from meanlab.suite import check_operator_properties

        evals = 0

        def counted(evaluator):
            def run(lo, hi):
                nonlocal evals
                evals += 1
                return evaluator(lo, hi)
            return run

        originals = {desc: desc.evaluator for desc in CATALOG.values()}
        for desc, evaluator in originals.items():
            set_field(desc, "evaluator", counted(evaluator))
        try:
            check_operator_properties()
            first, evals = evals, 0
            check_operator_properties()
        finally:
            for desc, evaluator in originals.items():
                set_field(desc, "evaluator", evaluator)
        assert first == evals == 4_704

    @pytest.mark.parametrize("mean_id, planted", [
        (mean_id, planted) for mean_id in MEAN_IDS
        for planted in ("affine", "convex", "concave") if planted != CATALOG[mean_id].shape])
    def test_planted_wrong_shape_fails_the_operator_check(self, mean_id, planted):
        # the shape comes from I' = f/z on the premise points, where affine data
        # is affine only: A planted "convex" fails too
        from meanlab.suite import check_operator_properties

        row = CATALOG[mean_id]
        shape = row.shape
        set_field(row, "shape", planted)
        try:
            records = {r.name: r for r in check_operator_properties()}
        finally:
            set_field(row, "shape", shape)
        assert not records[f"shape-preserved-{mean_id}"].passed

    def test_planted_relative_error_fails_the_vanishing_limit(self):
        # TANH x (1 + 1e-4) moves I(f)(1e-6) by about 1e-10: far inside
        # |I(f)(1e-6)| <= 2e-6, outside |I(f)(1e-6) - 1e-6| <= 2e-11
        from meanlab.suite import run_full_suite

        row = CATALOG["TANH"]
        evaluator = row.evaluator
        set_field(row, "evaluator", lambda lo, hi: evaluator(lo, hi) * (1.0 + 1e-4))
        try:
            failed = [(r.check, r.name) for r in run_full_suite() if not r.passed]
        finally:
            set_field(row, "evaluator", evaluator)
        assert failed == [("09-operator-properties", "I-vanishes-at-0")]

    def test_planted_nan_fails_the_operator_check(self, monkeypatch):
        # suite check 09 folded with min()/max(), which dropped a NaN unless it
        # came first; here I(f_L) is NaN at 1e-6 and at the probe point 0.3
        from meanlab import suite

        i_operator_on_each = suite._i_operator_on_each

        def planted(fs, zs):
            rows = i_operator_on_each(fs, zs)
            row = rows[MEAN_IDS.index("L")]  # check 09 passes the means in MEAN_IDS order
            for z in (1e-6, 0.1 * 3):
                row[zs.index(z)] = math.nan
            return rows

        monkeypatch.setattr(suite, "_i_operator_on_each", planted)
        records = {r.name: r for r in suite.check_operator_properties()}
        for name in ("I-monotone", "I-envelope", "I-vanishes-at-0", "shape-preserved-L"):
            assert not records[name].passed, name
            assert math.isnan(records[name].margin), name
        assert records["shape-preserved-G"].passed


def check09_points():
    """The 10 ascending points at which suite check 09 reads I."""
    return [1e-6, *(0.1 * k for k in range(1, 10))]


def per_interval(fs, zs):
    """I of each f at ascending zs as running sums of one `integrate` per interval,
    the rows that `_i_operator_on_each` must give bit for bit."""
    rows = []
    for f in fs:
        def integrand(u, f=f):
            return 1.0 if u < calculus.I_OPERATOR_CUTOFF else f(u) / u

        tol = QUADRATURE_TOL / len(zs)
        rows.append(list(accumulate(integrate(integrand, a, b, tol)
                                    for a, b in pairwise([0.0, *zs]))))
    return rows


def recording(fs):
    """Each f wrapped to record its arguments, and the lists they go to."""
    calls = [[] for _ in fs]

    def wrap(f, seen):
        return lambda u: seen.append(u) or f(u)

    return [wrap(f, seen) for f, seen in zip(fs, calls)], calls


class TestIOperatorOnEach:
    """I of several functions over shared first-panel nodes: the rows and the
    work of one `integrate` per interval."""

    def test_check09_rows_are_the_per_interval_sums(self):
        zs = check09_points()
        assert len(zs) == 10
        fs = [seiffert_of_mean(mean_id).func for mean_id in MEAN_IDS]
        shared, shared_calls = recording(fs)
        alone, alone_calls = recording(fs)
        rows = calculus._i_operator_on_each(shared, zs)
        expected = per_interval(alone, zs)
        for mean_id, row, want in zip(MEAN_IDS, rows, expected):
            assert bits(*row) == bits(*want), mean_id
        for mean_id, seen, want in zip(MEAN_IDS, shared_calls, alone_calls):
            assert sorted(seen) == sorted(want), mean_id
        assert sum(map(len, shared_calls)) == 15 * (18 * 10 + 4)

    def test_rejected_first_panel_is_refined_from_that_panel(self, monkeypatch):
        # f_H's integrand is 1/(1 - u^2), about 5e3 near 0.9999: both first
        # panels miss tol / 2 and are bisected, and no node is evaluated twice
        f = seiffert_of_mean("H").func
        zs = (0.5, 0.9999)
        refined = []
        refine = calculus._refine
        monkeypatch.setattr(calculus, "_refine",
                            lambda fn, a, b, *rest: refined.append((a, b)) or
                            refine(fn, a, b, *rest))
        (shared,), (shared_calls,) = recording([f])
        (row,) = calculus._i_operator_on_each([shared], zs)
        assert refined == [(0.0, 0.5), (0.5, 0.9999)]
        monkeypatch.setattr(calculus, "_refine", refine)
        (alone,), (alone_calls,) = recording([f])
        assert bits(*row) == bits(*per_interval([alone], zs)[0])
        assert sorted(shared_calls) == sorted(alone_calls)
        assert len(shared_calls) == len(set(shared_calls)) > 30
        assert abs(row[1] - math.atanh(0.9999)) <= 1e-11

    def test_repeated_points_evaluate_nothing(self):
        # the intervals [0.4, 0.4] are 0.0, though the integrand is infinite at 0.4
        def f(u):
            return math.inf if u == 0.4 else u

        (counted,), (calls,) = recording([f])
        (row,) = calculus._i_operator_on_each([counted], (0.4, 0.4, 0.4))
        assert row == [0.4, 0.4, 0.4] and len(calls) == 15

    def test_cutoff_as_in_integrate(self):
        # nodes below I_OPERATOR_CUTOFF take the limit value 1, not f(u)/u = 2
        def f(u):
            return 2.0 * u

        zs = (3e-14, 0.5)
        (row,) = calculus._i_operator_on_each([f], zs)
        assert bits(*row) == bits(*per_interval([f], zs)[0])
        assert 3e-14 < row[0] < 6e-14

    def test_no_points(self):
        # a catalog Seiffert function goes through its column form
        fs, calls = recording([math.sin, math.cos])
        assert calculus._i_operator_on_each([*fs, seiffert_of_mean("A")], []) == [[], [], []]
        assert calls == [[], []]

    def test_nan_valued_function(self):
        # a NaN at one node is bisected away, as in `integrate`; a function that
        # is NaN everywhere does not converge, and no other row hides that
        def one_nan(u):
            return math.nan if u == 0.25 else u

        zs = (0.5, 0.75)
        (row,) = calculus._i_operator_on_each([one_nan], zs)
        assert bits(*row) == bits(*per_interval([one_nan], zs)[0])
        assert row == pytest.approx([0.5, 0.75], abs=1e-12)
        with pytest.raises(NonConvergenceError) as err:
            calculus._i_operator_on_each([math.sin, lambda u: math.nan], zs)
        assert math.isnan(err.value.best) and math.isnan(err.value.error_bound)


def check09_nodes():
    """The first-panel nodes of check 09's I, and its 99 premise points."""
    spans = pairwise([0.0, *check09_points()])
    return [u for a, b in spans for u in calculus._nodes(a, b)[1]] + list(
        GridSpec(0.01, 0.99, 99).points())


def check08_points():
    """Check 08's points u and u/2."""
    us = GridSpec(0.0005, 0.9995, 1000).points()
    return [*us, *(u / 2.0 for u in us)]


class TestColumnForm:
    """A catalog Seiffert function's column form is its `func` over a list, bit for
    bit; I uses it where a function has one, and `func` point by point elsewhere."""

    # at z = 1e-17, 1 - z == 1 + z: the tie rule, not the evaluator, gives the value
    @pytest.mark.parametrize("mean_id", MEAN_IDS)
    @pytest.mark.parametrize("points", [check09_nodes, check08_points, lambda: [1e-17]],
                             ids=["check09-nodes", "check08-points", "tie"])
    def test_column_is_func_bit_for_bit(self, mean_id, points):
        zs = points()
        f = seiffert_of_mean(mean_id)
        assert [v.hex() for v in f.column(zs)] == [f.func(z).hex() for z in zs]

    def test_column_is_called_once_and_never_below_the_cutoff(self):
        f = seiffert_of_mean("L")
        columns = []

        def column(zs):
            columns.append(list(zs))
            return f.column(zs)

        def func(u):
            raise AssertionError("func called where the column form exists")

        zs = (3e-14, 0.5)
        (row,) = calculus._i_operator_on_each([SeiffertFunction(func, None, "L", column)], zs)
        assert bits(*row) == bits(*per_interval([f.func], zs)[0])
        (seen,) = columns
        low = [u for a, b in pairwise([0.0, *zs]) for u in calculus._nodes(a, b)[1]
               if u < calculus.I_OPERATOR_CUTOFF]
        assert low and min(seen) >= calculus.I_OPERATOR_CUTOFF
        assert len(seen) + len(low) == 30

    def test_functions_without_a_column_keep_their_values(self):
        # rows pinned from the point-by-point evaluation that preceded column forms
        from meanlab.harmonic import construct_candidate, make_envelope_gap_example

        fs = [construct_candidate(seiffert_of_mean("L")),
              construct_candidate(seiffert_of_mean("AGM")), make_envelope_gap_example()]
        assert [f.column for f in fs] == [None] * 3
        zs = (1e-6, 0.3, 0.5, 0.9)
        rows = calculus._i_operator_on_each(fs, zs)
        assert [bits(*row) for row in rows] == [bits(*row) for row in
                                                per_interval([f.func for f in fs], zs)]
        assert [[v.hex() for v in row] for row in rows] == [
            ["0x1.0c6f7a0b5f3b4p-20", "0x1.3cf2b50617c95p-2", "0x1.193ea7aad030ap-1",
             "0x1.78e360604b32cp+0"],
            ["0x1.0c6f7a0b5f22ap-20", "0x1.3a7c443682c98p-2", "0x1.12bc0e575cb66p-1",
             "0x1.4e812a50fa43cp+0"],
            ["0x1.0c6f7a0b60000p-20", "0x1.330530f3ff04ep-2", "0x1.ffeb8de795739p-2",
             "0x1.cd1d4ea695d74p-1"],
        ]


class TestDerivativeEstimate:
    def test_arcsin(self):
        est = derivative_estimate(math.asin, 0.5)
        assert est == pytest.approx(1.0 / math.sqrt(0.75), abs=1e-6)

    def test_identity(self):
        assert derivative_estimate(lambda z: z, 0.37) == pytest.approx(1.0, rel=1e-9)

    def test_one_sided_at_right_edge(self):
        est = derivative_estimate(math.tanh, 1.0, domain=(0.0, 1.0))
        assert est == pytest.approx(0.41997434161402606, abs=1e-8)

    def test_one_sided_at_left_edge(self):
        est = derivative_estimate(math.exp, 1e-7, domain=(0.0, 1.0))
        assert est == pytest.approx(math.exp(1e-7), abs=1e-8)

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            derivative_estimate(math.sin, 2.0, domain=(0.0, 1.0))

    def test_domain_too_tight(self):
        with pytest.raises(DomainError):
            derivative_estimate(math.sin, 0.5, domain=(0.5 - 1e-6, 0.5))


class TestGridSpec:
    @pytest.mark.parametrize("start, end, count", UNIFORM_GRIDS)
    def test_uniform_points_match_linspace(self, start, end, count):
        points = GridSpec(start, end, count).points()
        assert all(type(p) is float for p in points)
        assert points == tuple(np.linspace(start, end, count).tolist())

    @pytest.mark.parametrize("start, end, count", LOG_GRIDS)
    def test_log_points_within_one_ulp_of_geomspace(self, start, end, count):
        points = GridSpec(start, end, count, "log").points()
        assert all(type(p) is float for p in points)
        reference = np.geomspace(start, end, count).tolist()
        assert len(points) == count
        assert points[0] == start and points[-1] == end
        for p, r in zip(points, reference):
            assert abs(p - r) <= math.ulp(r)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            GridSpec(1.0, 0.0, 10)
        with pytest.raises(DomainError):
            GridSpec(0.0, 1.0, 1)
        with pytest.raises(DomainError):
            GridSpec(0.0, 1.0, 10, "exp")
        with pytest.raises(DomainError):
            GridSpec(0.0, 1.0, 10, "log")
