"""Quadrature, the integral operator, derivatives, and shape probing."""

import math

import numpy as np
import pytest

from meanlab import (
    MEAN_IDS,
    DomainError,
    GridSpec,
    NonConvergenceError,
    QuadratureConfig,
    apply_i_operator,
    derivative_estimate,
    ellip_e,
    i_envelope,
    integrate,
    probe_shape,
    seiffert_of_mean,
)
from meanlab.calculus import _GL_PAIRS
from meanlab.means import SEIFFERT_SHAPE

#: Uniform grids the package samples, plus edge shapes.
UNIFORM_GRIDS = [(0.0005, 0.9995, 1000), (0.01, 0.99, 99), (0.001, 0.999, 500),
                 (0.01, 0.99, 41), (0.05, 0.95, 19), (0.0, 1.0, 2), (-3.7, 12.25, 37)]
#: Log grids the package samples, plus a wide and a two-point one.
LOG_GRIDS = [(1e-4, 0.99, 50), (0.01, 0.9, 20), (1e-4, 0.999, 100), (1e-3, 0.9, 51),
             (1e-12, 1e6, 73), (0.5, 2.0, 2)]


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
        cfg = QuadratureConfig()
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

            combined = integrate(lambda u: alpha * f(u) + beta * g(u), a, b, cfg)
            split = alpha * integrate(f, a, b, cfg) + beta * integrate(g, a, b, cfg)
            assert abs(combined - split) <= 3.0 * cfg.abs_tolerance

    def test_non_convergence_carries_best_estimate(self):
        cfg = QuadratureConfig(abs_tolerance=1e-15, max_depth=3)
        with pytest.raises(NonConvergenceError) as err:
            integrate(lambda u: math.sin(50.0 * u), 0.0, 3.0, cfg)
        assert err.value.best is not None
        assert err.value.error_bound > 0.0

    def test_gauss_legendre_pairs_match_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(15)
        assert _GL_PAIRS == tuple(zip(nodes.tolist(), weights.tolist()))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            QuadratureConfig(abs_tolerance=0.0)
        with pytest.raises(DomainError):
            QuadratureConfig(max_depth=0)


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
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(DomainError):
                apply_i_operator(lambda u: u, bad)

    @pytest.mark.parametrize("mean_id", MEAN_IDS)
    def test_envelope_and_vanishing_limit(self, mean_id):
        f = seiffert_of_mean(mean_id)
        for z in (0.1, 0.5, 0.9):
            low, high = i_envelope(z)
            value = apply_i_operator(f, z)
            assert low - 2e-11 <= value <= high + 2e-11
        assert abs(apply_i_operator(f, 1e-6)) <= 2e-6

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
        shape = SEIFFERT_SHAPE[mean_id]
        verdict = probe_shape(lambda z: apply_i_operator(f, z), GridSpec(0.02, 0.98, 33))
        assert verdict.classification == shape
        for z in (0.2, 0.5, 0.8):
            value = apply_i_operator(f, z)
            if shape == "convex":
                assert z - 2e-11 <= value <= f(z) + 2e-11
            else:
                assert f(z) - 2e-11 <= value <= z + 2e-11


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

    def test_bad_step(self):
        with pytest.raises(DomainError):
            derivative_estimate(math.sin, 0.5, h=0.0)

    def test_domain_too_tight(self):
        with pytest.raises(DomainError):
            derivative_estimate(math.sin, 0.5, h=1.0, domain=(0.0, 1.0))


class TestProbeShape:
    def test_square_is_convex(self):
        verdict = probe_shape(lambda u: u * u, GridSpec(0.001, 0.999, 101))
        assert verdict.classification == "convex"
        assert verdict.witness is None

    def test_inverse_sqrt_is_convex(self):
        verdict = probe_shape(lambda u: (1.0 - u * u) ** -0.5, GridSpec(0.001, 0.999, 101))
        assert verdict.classification == "convex"

    def test_cos_is_concave(self):
        verdict = probe_shape(math.cos, GridSpec(0.001, 0.999, 101))
        assert verdict.classification == "concave"

    def test_mixed_curvature_is_neither_with_witness(self):
        # 1/(1+u^2) flips curvature at 1/sqrt(3)
        verdict = probe_shape(lambda u: 1.0 / (1.0 + u * u), GridSpec(0.001, 0.999, 101))
        assert verdict.classification == "neither"
        a, mid, b = verdict.witness
        assert 0.0 < a < mid < b < 1.0

    def test_affine_counts_as_convex(self):
        verdict = probe_shape(lambda u: 2.0 * u + 1.0, GridSpec(0.0, 1.0, 51))
        assert verdict.classification == "convex"

    def test_log_spacing(self):
        verdict = probe_shape(lambda u: u * u, GridSpec(1e-3, 0.9, 51, "log"))
        assert verdict.classification == "convex"

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
