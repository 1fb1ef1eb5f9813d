"""Adaptive quadrature, the integral operator I, and shape probing.

The operator I maps a function f on (0, 1) to

    I(f)(z) = integral of f(u)/u over u in (0, z],

with the integrand extended by its limit value 1 at u = 0.  For Seiffert
functions this limit always exists, and integrating the admissible band
z/(1+z) <= f(z) <= z/(1-z) gives the envelope

    log(1 + z) <= I(f)(z) <= -log(1 - z).

The quadrature is adaptive bisection over fixed 15-point Gauss-Legendre
panels; the error estimate on an interval is the difference between the
one-panel value and the sum of the two half-panel values.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .errors import DomainError, NonConvergenceError

__all__ = [
    "QuadratureConfig",
    "GridSpec",
    "ShapeVerdict",
    "DEFAULT_QUADRATURE",
    "integrate",
    "apply_i_operator",
    "i_envelope",
    "derivative_estimate",
    "probe_shape",
]

#: The 15-point Gauss-Legendre rule on [-1, 1] as (node, weight) pairs;
#: the tests pin them bit for bit to leggauss(15).
_GL_PAIRS = (
    (-0.9879925180204854, 0.030753241996117203),
    (-0.9372733924007058, 0.0703660474881084),
    (-0.8482065834104272, 0.10715922046717141),
    (-0.7244177313601701, 0.13957067792615444),
    (-0.5709721726085388, 0.16626920581699398),
    (-0.3941513470775634, 0.1861610000155622),
    (-0.20119409399743451, 0.1984314853271116),
    (0.0, 0.2025782419255613),
    (0.20119409399743451, 0.1984314853271116),
    (0.3941513470775634, 0.1861610000155622),
    (0.5709721726085388, 0.16626920581699398),
    (0.7244177313601701, 0.13957067792615444),
    (0.8482065834104272, 0.10715922046717141),
    (0.9372733924007058, 0.0703660474881084),
    (0.9879925180204854, 0.030753241996117203),
)

#: Below this abscissa the integrand of I is replaced by its limit value 1.
I_OPERATOR_CUTOFF = 1e-14


@dataclass(frozen=True)
class QuadratureConfig:
    """Absolute tolerance and bisection depth for adaptive integration."""

    abs_tolerance: float = 1e-11
    max_depth: int = 60

    def __post_init__(self) -> None:
        if not self.abs_tolerance > 0.0:
            raise DomainError("abs_tolerance must be positive")
        if self.max_depth < 1:
            raise DomainError("max_depth must be at least 1")


DEFAULT_QUADRATURE = QuadratureConfig()


@dataclass(frozen=True)
class GridSpec:
    """A sampling plan: `count` points from `start` to `end` inclusive.

    Callers are responsible for keeping start/end strictly inside an open
    domain; validation here covers only ordering and positivity.
    """

    start: float
    end: float
    count: int = 101
    spacing: str = "uniform"

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise DomainError("grid start must be below grid end")
        if self.count < 2:
            raise DomainError("grid needs at least 2 points")
        if self.spacing not in ("uniform", "log"):
            raise DomainError(f"unknown spacing {self.spacing!r}")
        if self.spacing == "log" and self.start <= 0.0:
            raise DomainError("log spacing needs a positive start")

    def points(self) -> tuple[float, ...]:
        """The grid as floats, by the usual linspace/geomspace formulas.

        Uniform points are i * step + start; log points are 10 ** e over
        the uniform grid of log10 endpoints.  Both endpoints are exact.
        """
        start, end = float(self.start), float(self.end)
        if self.spacing == "log":
            exponents = _uniform(math.log10(start), math.log10(end), self.count)
            return (start, *(10.0 ** e for e in exponents[1:-1]), end)
        return _uniform(start, end, self.count)


def _uniform(start: float, end: float, count: int) -> tuple[float, ...]:
    step = (end - start) / (count - 1)
    return (*(i * step + start for i in range(count - 1)), end)


@dataclass(frozen=True)
class ShapeVerdict:
    """Outcome of a midpoint-convexity probe.

    `classification` is one of "convex", "concave" or "neither"; a witness
    triple (a, mid, b) where the midpoint test fails in both directions is
    attached only for "neither".  Data that is affine within tolerance
    classifies as convex (the degenerate convex case).  A verdict is a
    statement about the probed grid only, never a proof.
    """

    classification: str
    witness: tuple[float, float, float] | None = None


def _panel(fn: Callable[[float], float], a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    total = 0.0
    for xi, wi in _GL_PAIRS:
        total += wi * fn(mid + half * xi)
    return half * total


def _adapt(fn, a, b, whole, tol, depth):
    mid = 0.5 * (a + b)
    left = _panel(fn, a, mid)
    right = _panel(fn, mid, b)
    refined = left + right
    err = abs(refined - whole)
    if err <= tol:
        return refined
    if depth <= 0:
        raise NonConvergenceError(
            f"quadrature did not converge on [{a}, {b}] "
            f"(best estimate {refined!r}, error bound {err!r})",
            best=refined,
            error_bound=err,
        )
    half_tol = 0.5 * tol
    return (_adapt(fn, a, mid, left, half_tol, depth - 1)
            + _adapt(fn, mid, b, right, half_tol, depth - 1))


def integrate(fn: Callable[[float], float], a: float, b: float,
              cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Integrate fn over [a, b] to cfg.abs_tolerance (estimated).

    Raises NonConvergenceError, carrying the best estimate and error
    bound, if the interval cannot be resolved within cfg.max_depth
    bisection levels.
    """
    fa, fb = float(a), float(b)
    if fa > fb:
        raise DomainError("integration bounds must satisfy a <= b")
    if fa == fb:
        return 0.0
    whole = _panel(fn, fa, fb)
    return _adapt(fn, fa, fb, whole, cfg.abs_tolerance, cfg.max_depth)


def apply_i_operator(f: Callable[[float], float], z: float,
                     cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """I(f)(z) = integral of f(u)/u over (0, z], patched by f(u)/u -> 1 at 0."""
    fz = float(z)
    if not 0.0 < fz < 1.0:
        raise DomainError(f"z must lie in (0, 1), got {z!r}")

    def integrand(u: float) -> float:
        if u < I_OPERATOR_CUTOFF:
            return 1.0
        return f(u) / u

    return integrate(integrand, 0.0, fz, cfg)


def i_envelope(z: float) -> tuple[float, float]:
    """The band (log(1+z), -log(1-z)) that I(f)(z) must lie in."""
    fz = float(z)
    if not 0.0 < fz < 1.0:
        raise DomainError(f"z must lie in (0, 1), got {z!r}")
    return math.log1p(fz), -math.log1p(-fz)


def derivative_estimate(g: Callable[[float], float], z: float,
                        h: float | None = None,
                        domain: tuple[float, float] | None = None) -> float:
    """Second-order finite-difference derivative of g at z.

    Central difference by default with h = 1e-6 * max(1, |z|); falls back
    to a one-sided three-point stencil when z +/- h leaves the (open)
    domain.  Raises DomainError when even the one-sided stencil does not
    fit.
    """
    fz = float(z)
    if h is None:
        h = 1e-6 * max(1.0, abs(fz))
    elif h <= 0.0:
        raise DomainError("step h must be positive")

    lo, hi = (-math.inf, math.inf) if domain is None else domain
    if not lo < fz <= hi:
        raise DomainError(f"point {z!r} outside domain ({lo}, {hi}]")

    if fz - h > lo and fz + h < hi:
        return (g(fz + h) - g(fz - h)) / (2.0 * h)
    if fz + 2.0 * h < hi:
        return (-3.0 * g(fz) + 4.0 * g(fz + h) - g(fz + 2.0 * h)) / (2.0 * h)
    if fz - 2.0 * h > lo:
        return (3.0 * g(fz) - 4.0 * g(fz - h) + g(fz - 2.0 * h)) / (2.0 * h)
    raise DomainError("domain too tight for the finite-difference stencil")


#: Absolute tie tolerance for the midpoint test: below quadrature noise,
#: above rounding noise.
SHAPE_TOLERANCE = 1e-12


def probe_shape(fn: Callable[[float], float], grid: GridSpec,
                tol: float = SHAPE_TOLERANCE) -> ShapeVerdict:
    """Classify fn as convex/concave/neither by midpoint tests on a grid.

    For every adjacent grid pair (a, b) the value fn((a+b)/2) is compared
    with the chord midpoint (fn(a)+fn(b))/2.  This is falsification, not
    proof: "convex" means no violation was found at this resolution.
    """
    xs = grid.points()
    values = [fn(x) for x in xs]
    convex_break: tuple[float, float, float] | None = None
    concave_break: tuple[float, float, float] | None = None
    for i in range(len(xs) - 1):
        a, b = xs[i], xs[i + 1]
        mid = 0.5 * (a + b)
        fmid = fn(mid)
        chord = 0.5 * (values[i] + values[i + 1])
        if fmid > chord + tol and convex_break is None:
            convex_break = (a, mid, b)
        if fmid < chord - tol and concave_break is None:
            concave_break = (a, mid, b)
        if convex_break and concave_break:
            break
    if convex_break and concave_break:
        return ShapeVerdict("neither", convex_break)
    if convex_break:
        return ShapeVerdict("concave")
    return ShapeVerdict("convex")
