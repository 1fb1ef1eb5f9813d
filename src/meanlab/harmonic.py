"""Harmonic representation of means: construction, criteria, verification.

A mean N is a harmonic representation of a mean M when

    1 / M(x, y) = integral over t in [0, 1] of dt / N^{t}(x, y),

with N^{t} the midpoint deformation of N.  On the Seiffert side this says
exactly m = I(n) for the corresponding Seiffert functions, which reduces
representability to a derivative band: m is of the form I(n) if and only
if m vanishes at 0, is continuously differentiable, and

    1/(1+z) <= m'(z) <= 1/(1-z)     for all z in (0, 1),

in which case n(z) = z m'(z).  Integrating the band instead gives the
weaker log envelope

    |x-y| / (2 (log A - log min)) <= M <= |x-y| / (2 (log max - log A)),

a necessary condition only: a function can satisfy the log envelope while
its derivative leaves the band (see `make_envelope_gap_example`), and the
geometric mean is the canonical catalog case.

Verdicts returned here are grid-based: "representable" means no violation
was found on the probed grid at the stated tolerance.  `verify_identity`
records any pair whose evaluation fails, not only a failed quadrature, as a
failed point.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable
from math import ldexp

from ._pairs import GridSpec, check_pair, check_unit, deformed, half_spread
from .errors import MeanLabError, NonConvergenceError
from .means import MeanDescriptor, SeiffertFunction, get_mean, seiffert_of_mean, worst

__all__ = [
    "RepresentationVerdict",
    "PairCatalogEntry",
    "PAIR_CATALOG",
    "IdentityPointRecord",
    "IdentityReport",
    "EnvelopePointRecord",
    "EnvelopeReport",
    "construct_candidate",
    "check_representable",
    "verify_identity",
    "log_envelope_check",
    "default_pairs",
    "make_envelope_gap_example",
]

#: Tie tolerance for the derivative band check.
REPRESENTABILITY_TOL = 1e-12

#: Default bound on both deviations that verify_identity reports.
IDENTITY_TOL = 1e-9

#: Default probe grid for representability: dense, strictly inside (0, 1),
#: and containing z = 0.9 and the near-1 region where the known negative
#: cases break down.
DEFAULT_CHECK_GRID = GridSpec(0.001, 0.999, 500, "uniform")


class RepresentationVerdict(namedtuple("RepresentationVerdict",
                                       "status witness_z margin grid note", defaults=("",))):
    """Outcome of the derivative band check on a grid.

    ``status`` is "representable", "falsified" or "inconclusive".
    ``margin`` is the smallest signed distance from m'(z) to the nearer
    band edge over the grid (violations within the tie tolerance are
    reported as zero, so margin <= 0 exactly when status is "falsified").
    """

    __slots__ = ()


class PairCatalogEntry(namedtuple("PairCatalogEntry", "represented representer chain form note",
                                  defaults=("",))):
    """A known (represented, representer) pair of catalog ids, with the name and the
    form ("refined", "forward" or "reversed") of its chain in `meanlab.inequalities`."""

    __slots__ = ()


# Each row's comment says why its chain holds, n the representer's Seiffert function.
PAIR_CATALOG: tuple[PairCatalogEntry, ...] = (
    # n(u)/u = (1-u^2)^{-1/2} is convex
    PairCatalogEntry("P", "G", "hh-P-G", "refined", "arcsin = I(z/sqrt(1-z^2))"),
    # reversed via the arctan envelope lemma
    PairCatalogEntry("T", "C", "hh-T-C", "reversed", "arctan = I(z/(1+z^2))"),
    # n(u)/u = 1/(1-u^2) is convex
    PairCatalogEntry("L", "H", "hh-L-H", "refined", "artanh = I(z/(1-z^2))"),
    # reversed via the arsinh envelope lemma
    PairCatalogEntry("NS", "R", "hh-NS-R", "reversed", "arsinh = I(z/sqrt(1+z^2))"),
    # n(u)/u = cos u is concave
    PairCatalogEntry("SIN", "COSMEAN", "hh-SIN", "reversed", "sin = I(z cos z)"),
    # n(u)/u = 1/cos^2 u is convex
    PairCatalogEntry("TAN", "COS2MEAN", "hh-TAN", "forward", "tan = I(z/cos^2 z)"),
    # n(u)/u = cosh u is convex
    PairCatalogEntry("SINH", "COSHMEAN", "hh-SINH", "forward", "sinh = I(z cosh z)"),
    # n(u)/u = (2/pi) E(u)/(1-u^2) is convex
    PairCatalogEntry("AGM", "V", "hh-AGM-V", "forward",
                     "(2/pi) z K(z) = I((2/pi) z E(z)/(1-z^2))"),
)


def _derivative_of(m: SeiffertFunction) -> Callable[[float], float]:
    """m's closed-form derivative, else its finite-difference estimate on (0, 1)."""
    if m.derivative is not None:
        return m.derivative
    from .calculus import derivative_estimate  # the quadrature layer loads only when used
    return lambda z: derivative_estimate(m, z, domain=(0.0, 1.0))


def construct_candidate(m: SeiffertFunction) -> SeiffertFunction:
    """The candidate representer Seiffert function n(z) = z m'(z).

    Prefers a closed-form derivative; otherwise falls back to the
    finite-difference estimate on (0, 1).
    """
    d = _derivative_of(m)

    def func(z: float) -> float:
        return z * d(z)

    return SeiffertFunction(func, None, name=f"z*d({m.name or 'm'})")


def check_representable(m: SeiffertFunction,
                        grid: GridSpec = DEFAULT_CHECK_GRID) -> RepresentationVerdict:
    """Probe the band 1/(1+z) <= m'(z) <= 1/(1-z) on a grid.

    Falsified verdicts carry the witness z of the worst violation; a
    passing verdict is explicitly grid-scoped.  A grid point outside
    (0, 1) raises DomainError.
    """
    d = _derivative_of(m)
    zs = [check_unit(z, "grid point") for z in grid.points()]
    margin = math.inf
    witness = None
    try:
        for z in zs:
            dv = d(z)
            if math.isnan(dv):
                raise ArithmeticError(f"derivative is NaN at z={z!r}")
            dist = min(dv - 1.0 / (1.0 + z), 1.0 / (1.0 - z) - dv)
            if dist < margin:
                margin = dist
                witness = z
    except (ArithmeticError, NonConvergenceError, ValueError) as exc:
        return RepresentationVerdict("inconclusive", None, math.nan, grid,
                                     note=f"derivative evaluation failed: {exc}")

    if margin < -REPRESENTABILITY_TOL:
        return RepresentationVerdict("falsified", witness, margin, grid)
    return RepresentationVerdict("representable", None, max(margin, 0.0), grid,
                                 note="no violation found on this grid")


class IdentityPointRecord(namedtuple(
        "IdentityPointRecord",
        "x y z product_deviation operator_deviation passed note", defaults=("",))):
    __slots__ = ()


class IdentityReport(namedtuple("IdentityReport", "represented representer tol points")):
    """Per-point outcome of the defining integral identity for one pair;
    `points` is a tuple of IdentityPointRecord."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.points)

    @property
    def max_deviation(self) -> float:
        """The largest deviation of any point (0.0 without points), NaN if any is NaN."""
        return worst(max, [0.0, *(dev for r in self.points
                                  for dev in (r.product_deviation, r.operator_deviation))])


def verify_identity(represented: str | MeanDescriptor,
                    representer: str | MeanDescriptor,
                    points: list[tuple[float, float]] | None = None,
                    tol: float = IDENTITY_TOL) -> IdentityReport:
    """Check 1/M = integral dt/N^{t} at each pair, plus m(z) vs I(n)(z).

    A valid pair whose evaluation raises a MeanLabError or ArithmeticError
    is a failed point with infinite deviations; an invalid pair raises.
    """
    from .calculus import apply_i_operator, integrate
    m_desc = get_mean(represented)
    n_desc = get_mean(representer)
    if points is None:
        points = default_pairs()
    m_seiffert = seiffert_of_mean(m_desc)
    n_seiffert = seiffert_of_mean(n_desc)
    n_evaluator = n_desc.evaluator

    records = []
    for x, y in points:
        _, lo, hi = check_pair(x, y)  # both deviations are scale-free
        z = half_spread(lo, hi)

        def integrand(t: float) -> float:
            return 1.0 / deformed(n_evaluator, t, lo, hi)

        try:
            q = integrate(integrand, 0.0, 1.0)
            dev1 = abs(m_desc(lo, hi) * q - 1.0)
            if z == 0.0:
                dev2 = 0.0
                note = "degenerate pair"
            else:
                dev2 = abs(m_seiffert(z) - apply_i_operator(n_seiffert, z))
                note = ""
            records.append(IdentityPointRecord(
                x, y, z, dev1, dev2, dev1 <= tol and dev2 <= tol, note))
        except (MeanLabError, ArithmeticError) as exc:
            note = (f"quadrature failed: {exc}" if isinstance(exc, NonConvergenceError)
                    else f"{type(exc).__name__}: {exc}")
            records.append(IdentityPointRecord(x, y, z, math.inf, math.inf, False, note))
    return IdentityReport(m_desc.id, n_desc.id, tol, tuple(records))


class EnvelopePointRecord(namedtuple("EnvelopePointRecord",
                                     "x y z lower value upper margin passed")):
    __slots__ = ()


class EnvelopeReport(namedtuple("EnvelopeReport", "mean_id points")):
    """The log-envelope check of one mean; `points` is a tuple of EnvelopePointRecord."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.points)

    @property
    def min_margin(self) -> float:
        """The smallest margin of any point (inf without points), NaN if any is NaN."""
        return worst(min, [math.inf, *(r.margin for r in self.points)])


#: Relative slack for the log-envelope inequalities.
ENVELOPE_TOL = 1e-12


def log_envelope_check(mean: str | MeanDescriptor,
                       points: list[tuple[float, float]] | None = None) -> EnvelopeReport:
    """Check the necessary log-envelope bounds at each pair.

    Margins are relative to the arithmetic mean of the pair; equal pairs
    collapse the sandwich to equality.
    """
    from .calculus import i_envelope
    desc = get_mean(mean)
    if points is None:
        points = default_pairs()
    records = []
    for x, y in points:
        e, lo, hi = check_pair(x, y)  # the margin is taken at the decided pair
        z = half_spread(lo, hi)
        value = desc(lo, hi)
        if z == 0.0:
            lower = upper = value
            margin = 0.0
        else:
            upper, lower = ((hi - lo) / (2.0 * v) for v in i_envelope(z))
            margin = min(value - lower, upper - value) / (0.5 * (lo + hi))
        records.append(EnvelopePointRecord(x, y, z, ldexp(lower, e), ldexp(value, e),
                                           ldexp(upper, e), margin, margin >= -ENVELOPE_TOL))
    return EnvelopeReport(desc.id, tuple(records))


def default_pairs(count: int = 20, z_min: float = 0.01,
                  z_max: float = 0.9) -> list[tuple[float, float]]:
    """Log-spaced half-spreads at fixed x + y = 2.

    The default cap z <= 0.9 keeps the log-envelope check meaningful for
    the geometric mean, which genuinely leaves the envelope above
    z of about 0.93 (it admits no representation, so nothing guarantees
    the bounds there).
    """
    zs = GridSpec(z_min, z_max, count, "log").points()
    return [(1.0 - z, 1.0 + z) for z in zs]


def make_envelope_gap_example() -> SeiffertFunction:
    """A Seiffert function inside the log envelope whose derivative leaves
    the band: g(z) = z + 0.05 z^2 sin(60 z).

    The amplitude keeps log(1+z) < g(z) < -log(1-z) everywhere on (0, 1),
    while the oscillation pushes g' below 1/(1+z) near z ~ 0.37.  Shows
    that the envelope alone never certifies representability.
    """

    def func(z: float) -> float:
        return z + 0.05 * z * z * math.sin(60.0 * z)

    def derivative(z: float) -> float:
        return 1.0 + 0.1 * z * math.sin(60.0 * z) + 3.0 * z * z * math.cos(60.0 * z)

    return SeiffertFunction(func, derivative, name="envelope-gap-example")
