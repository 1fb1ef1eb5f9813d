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
was found on the probed grid at the stated tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .calculus import (
    DEFAULT_QUADRATURE,
    GridSpec,
    QuadratureConfig,
    apply_i_operator,
    derivative_estimate,
    integrate,
)
from .errors import NonConvergenceError
from .means import (
    MeanDescriptor,
    SeiffertFunction,
    get_mean,
    relative_half_spread,
    seiffert_of_mean,
)

__all__ = [
    "RepresentationVerdict",
    "PairCatalogEntry",
    "PAIR_CATALOG",
    "NON_REPRESENTABLE_IDS",
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

#: Default probe grid for representability: dense, strictly inside (0, 1),
#: and containing z = 0.9 and the near-1 region where the known negative
#: cases break down.
DEFAULT_CHECK_GRID = GridSpec(0.001, 0.999, 500, "uniform")


@dataclass(frozen=True)
class RepresentationVerdict:
    """Outcome of the derivative band check on a grid.

    ``margin`` is the smallest signed distance from m'(z) to the nearer
    band edge over the grid (violations within the tie tolerance are
    reported as zero, so margin <= 0 exactly when status is "falsified").
    """

    status: str  # "representable" | "falsified" | "inconclusive"
    witness_z: float | None
    margin: float
    grid: GridSpec
    note: str = ""


@dataclass(frozen=True)
class PairCatalogEntry:
    """A known (represented, representer) pair of catalog ids."""

    represented: str
    representer: str
    note: str = ""


PAIR_CATALOG: tuple[PairCatalogEntry, ...] = (
    PairCatalogEntry("P", "G", "arcsin is the integral of z/sqrt(1-z^2) over u/u"),
    PairCatalogEntry("T", "C", "arctan = I(z/(1+z^2))"),
    PairCatalogEntry("L", "H", "artanh = I(z/(1-z^2))"),
    PairCatalogEntry("NS", "R", "arsinh = I(z/sqrt(1+z^2))"),
    PairCatalogEntry("SIN", "COSMEAN", "sin = I(z cos z)"),
    PairCatalogEntry("TAN", "COS2MEAN", "tan = I(z/cos^2 z)"),
    PairCatalogEntry("SINH", "COSHMEAN", "sinh = I(z cosh z)"),
    PairCatalogEntry("AGM", "V", "(2/pi) z K(z) = I((2/pi) z E(z)/(1-z^2))"),
)

#: Catalog means known to admit no harmonic representation.  TANH fails
#: the lower band bound near z = 1 (derivative sech^2(1) ~ 0.41997 < 1/2);
#: G fails the upper bound (its candidate z (1-z^2)^{-3/2} exceeds
#: z/(1-z) for large z).
NON_REPRESENTABLE_IDS: tuple[str, ...] = ("TANH", "G")


def construct_candidate(m: SeiffertFunction) -> SeiffertFunction:
    """The candidate representer Seiffert function n(z) = z m'(z).

    Prefers a registered closed-form derivative; otherwise falls back to
    the finite-difference estimate on (0, 1).
    """
    if m.derivative is not None:
        d = m.derivative
    else:
        def d(z: float) -> float:
            return derivative_estimate(m, z, domain=(0.0, 1.0))

    def func(z: float) -> float:
        return z * d(z)

    return SeiffertFunction(func, None, name=f"z*d({m.name or 'm'})")


def check_representable(m: SeiffertFunction,
                        grid: GridSpec = DEFAULT_CHECK_GRID) -> RepresentationVerdict:
    """Probe the band 1/(1+z) <= m'(z) <= 1/(1-z) on a grid.

    Falsified verdicts carry the witness z of the worst violation; a
    passing verdict is explicitly grid-scoped.
    """
    if m.derivative is not None:
        d = m.derivative
    else:
        def d(z: float) -> float:
            return derivative_estimate(m, z, domain=(0.0, 1.0))

    worst = math.inf
    witness = None
    try:
        for z in grid.points():
            dv = d(z)
            dist = min(dv - 1.0 / (1.0 + z), 1.0 / (1.0 - z) - dv)
            if dist < worst:
                worst = dist
                witness = z
    except (ArithmeticError, NonConvergenceError, ValueError) as exc:
        return RepresentationVerdict("inconclusive", None, math.nan, grid,
                                     note=f"derivative evaluation failed: {exc}")

    if worst < -REPRESENTABILITY_TOL:
        return RepresentationVerdict("falsified", witness, worst, grid)
    return RepresentationVerdict("representable", None, max(worst, 0.0), grid,
                                 note="no violation found on this grid")


@dataclass(frozen=True)
class IdentityPointRecord:
    x: float
    y: float
    z: float
    product_deviation: float
    operator_deviation: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class IdentityReport:
    """Per-point outcome of the defining integral identity for one pair."""

    represented: str
    representer: str
    tol: float
    points: tuple[IdentityPointRecord, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.points)

    @property
    def max_deviation(self) -> float:
        return max((max(r.product_deviation, r.operator_deviation)
                    for r in self.points), default=0.0)


def verify_identity(represented: str | MeanDescriptor,
                    representer: str | MeanDescriptor,
                    points: list[tuple[float, float]] | None = None,
                    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
                    tol: float = 1e-9) -> IdentityReport:
    """Check 1/M = integral dt/N^{t} at each pair, plus m(z) vs I(n)(z).

    Quadrature failures are recorded per point rather than raised.
    """
    m_desc = get_mean(represented)
    n_desc = get_mean(representer)
    if points is None:
        points = default_pairs()
    m_seiffert = seiffert_of_mean(m_desc)
    n_seiffert = seiffert_of_mean(n_desc)

    records = []
    for x, y in points:
        z = relative_half_spread(x, y)
        mid = 0.5 * (x + y)
        shift_unit = 0.5 * abs(x - y)

        def integrand(t: float) -> float:
            s = t * shift_unit
            return 1.0 / n_desc(mid - s, mid + s)

        try:
            q = integrate(integrand, 0.0, 1.0, cfg)
            dev1 = abs(m_desc(x, y) * q - 1.0)
            if z == 0.0:
                dev2 = 0.0
                note = "degenerate pair"
            else:
                dev2 = abs(m_seiffert(z) - apply_i_operator(n_seiffert, z, cfg))
                note = ""
            records.append(IdentityPointRecord(
                x, y, z, dev1, dev2, dev1 <= tol and dev2 <= tol, note))
        except NonConvergenceError as exc:
            records.append(IdentityPointRecord(
                x, y, z, math.inf, math.inf, False, f"quadrature failed: {exc}"))
    return IdentityReport(m_desc.id, n_desc.id, tol, tuple(records))


@dataclass(frozen=True)
class EnvelopePointRecord:
    x: float
    y: float
    z: float
    lower: float
    value: float
    upper: float
    margin: float
    passed: bool


@dataclass(frozen=True)
class EnvelopeReport:
    mean_id: str
    points: tuple[EnvelopePointRecord, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.points)

    @property
    def min_margin(self) -> float:
        return min((r.margin for r in self.points), default=math.inf)


#: Relative slack for the log-envelope inequalities.
ENVELOPE_TOL = 1e-12


def log_envelope_check(mean: str | MeanDescriptor,
                       points: list[tuple[float, float]] | None = None) -> EnvelopeReport:
    """Check the necessary log-envelope bounds at each pair.

    Margins are relative to the arithmetic mean of the pair; equal pairs
    collapse the sandwich to equality.
    """
    desc = get_mean(mean)
    if points is None:
        points = default_pairs()
    records = []
    for x, y in points:
        z = relative_half_spread(x, y)
        a = 0.5 * (x + y)
        value = desc(x, y)
        if z == 0.0:
            lower = upper = value
            margin = 0.0
        else:
            d = abs(x - y)
            lower = d / (2.0 * -math.log1p(-z))
            upper = d / (2.0 * math.log1p(z))
            margin = min(value - lower, upper - value) / a
        records.append(EnvelopePointRecord(
            x, y, z, lower, value, upper, margin, margin >= -ENVELOPE_TOL))
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
