"""Adaptive quadrature, the integral operator I, and finite differences.

The operator I maps a function f on (0, 1) to

    I(f)(z) = integral of f(u)/u over u in (0, z],

with the integrand extended by its limit value 1 at u = 0.  For Seiffert
functions this limit always exists, and integrating the admissible band
z/(1+z) <= f(z) <= z/(1-z) gives the envelope

    log(1 + z) <= I(f)(z) <= -log(1 - z).

The quadrature is QUADPACK's globally adaptive QAG scheme with the
15-point Gauss-Kronrod rule (Piessens et al. 1983): each panel's error
estimate is the gap between its Kronrod value and the 7-point Gauss value
embedded in it, and the panel with the largest error is bisected next.
The node arithmetic (`_nodes`) and the Kronrod and Gauss sums (`_rule`) are
straight-line code over named constants, and a first panel already within
tolerance is returned without building the panel heap; most integrals of I
end there.  I of several functions at the same ascending points builds each
interval's first-panel nodes once, evaluates every function at all of them
(a Seiffert function's column form in one call, nothing below the cutoff)
before any panel is refined, and bisects only a panel that misses the
tolerance, starting from the values already computed.
"""

from __future__ import annotations

import heapq
import math
import sys
from collections.abc import Callable, Iterable
from functools import partial
from itertools import accumulate, pairwise
from math import inf
from operator import truediv

from ._pairs import GridSpec, check_unit
from .errors import DomainError, NonConvergenceError
from .means import SeiffertFunction

__all__ = [
    "GridSpec",
    "integrate",
    "apply_i_operator",
    "i_envelope",
    "derivative_estimate",
]

#: The 15-point Kronrod rule on [-1, 1] with its embedded 7-point Gauss rule,
#: QUADPACK's QK15 decimals.  The rule is symmetric: nodes 0 and +-_Xk for
#: k = 1..7 with Kronrod weights _WKk; the Gauss nodes are 0, _X2, _X4, _X6.
_X1, _X2, _X3, _X4, _X5, _X6, _X7 = (
    0.20778495500789848, 0.4058451513773972, 0.5860872354676911, 0.7415311855993945,
    0.8648644233597691, 0.9491079123427585, 0.9914553711208126)
_WK0, _WK1, _WK2, _WK3, _WK4, _WK5, _WK6, _WK7 = (
    0.20948214108472782, 0.20443294007529889, 0.19035057806478542, 0.1690047266392679,
    0.14065325971552592, 0.10479001032225019, 0.06309209262997856, 0.022935322010529224)
_WG0, _WG2, _WG4, _WG6 = (
    0.4179591836734694, 0.3818300505051189, 0.27970539148927664, 0.1294849661688697)

#: Below this abscissa the integrand of I is replaced by its limit value 1.
I_OPERATOR_CUTOFF = 1e-14


#: Default absolute tolerance of `integrate`, and the one `I` runs at.
QUADRATURE_TOL = 1e-11

#: Panels one `integrate` call may evaluate (QUADPACK likewise caps its
#: subintervals), so that an error sum stuck in rounding noise ends the work.
MAX_PANELS = 10_000


def _nodes(a: float, b: float) -> tuple[float, tuple[float, ...]]:
    """Half the width of [a, b] and its 15 Kronrod nodes in the order `_qk15` calls
    fn at them: the centre, then left and right of it from the innermost node out."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    d1, d2, d3, d4 = half * _X1, half * _X2, half * _X3, half * _X4
    d5, d6, d7 = half * _X5, half * _X6, half * _X7
    return half, (center, center - d1, center + d1, center - d2, center + d2,
                  center - d3, center + d3, center - d4, center + d4,
                  center - d5, center + d5, center - d6, center + d6,
                  center - d7, center + d7)


def _rule(half: float, y0: float, l1: float, r1: float, l2: float, r2: float,
          l3: float, r3: float, l4: float, r4: float, l5: float, r5: float,
          l6: float, r6: float, l7: float, r7: float) -> tuple[float, float]:
    """The Kronrod value of a panel of half-width `half` from its 15 values in node
    order, and its distance from the Gauss value.

    Both sums add term by term from 0.0.  The Gauss sum keeps a 0.0 * y term at
    each non-Gauss node, so an infinite value there still makes it NaN.
    """
    y1, y2, y3, y4 = l1 + r1, l2 + r2, l3 + r3, l4 + r4
    y5, y6, y7 = l5 + r5, l6 + r6, l7 + r7
    kronrod = (0.0 + _WK0 * y0 + _WK1 * y1 + _WK2 * y2 + _WK3 * y3
               + _WK4 * y4 + _WK5 * y5 + _WK6 * y6 + _WK7 * y7)
    gauss = (0.0 + _WG0 * y0 + 0.0 * y1 + _WG2 * y2 + 0.0 * y3
             + _WG4 * y4 + 0.0 * y5 + _WG6 * y6 + 0.0 * y7)
    return half * kronrod, abs(half * (kronrod - gauss))


def _qk15(fn: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """The Kronrod value of fn over [a, b] and its distance from the Gauss value.

    fn is called once per node, in `_nodes`' order, by one straight-line call
    each (a loop or a comprehension over the nodes costs about a third more
    per panel), and `_rule` sums the values.
    """
    half, (u0, l1, r1, l2, r2, l3, r3, l4, r4, l5, r5, l6, r6, l7, r7) = _nodes(a, b)
    return _rule(half, fn(u0), fn(l1), fn(r1), fn(l2), fn(r2), fn(l3), fn(r3), fn(l4),
                 fn(r4), fn(l5), fn(r5), fn(l6), fn(r6), fn(l7), fn(r7))


def integrate(fn: Callable[[float], float], a: float, b: float,
              tol: float = QUADRATURE_TOL) -> float:
    """Integrate fn over [a, b] until the summed error estimate is <= tol.

    Checks the arguments, evaluates one QK15 panel over [a, b] and hands it to
    `_refine`, which accepts it or bisects.  Raises NonConvergenceError once
    MAX_PANELS panels are spent or the panel to split is too narrow to split in
    floating point (QUADPACK's roundoff limit), carrying the estimate of the
    integral over [a, b] and its error bound.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    fa, fb = float(a), float(b)
    if not -inf < fa <= fb < inf:
        if fa > fb:
            raise DomainError("integration bounds must satisfy a <= b")
        raise DomainError(f"integration bounds must be finite, got [{a!r}, {b!r}]")
    if fa == fb:
        return 0.0
    return _refine(fn, fa, fb, tol, *_qk15(fn, fa, fb))


def _refine(fn: Callable[[float], float], a: float, b: float, tol: float,
            value: float, err: float) -> float:
    """The integral of fn over a < b from its first QK15 panel (value, err).

    A first panel within tol is the result.  Otherwise the panel with the
    largest estimated error is bisected next, until the summed error is <= tol.
    """
    if err <= tol:  # what the loop returns after one panel: its fsum maps -0.0 to 0.0
        return value + 0.0
    heap = [(-err, a, b, value)]
    errsum, panels = err, 1
    # The running error sum cancels, so it is recomputed exactly before it is
    # accepted; a NaN error is never accepted.
    while not (errsum <= tol and (errsum := math.fsum(-item[0] for item in heap)) <= tol):
        neg_err, lo, hi, _ = heap[0]
        mid = 0.5 * (lo + hi)
        if panels >= MAX_PANELS or not lo < mid < hi or (
                hi - lo <= 200.0 * sys.float_info.epsilon * abs(mid)):
            try:
                best = math.fsum(item[3] for item in heap)
            except ValueError:  # panels of +inf and -inf
                best = math.nan
            errsum = math.fsum(-item[0] for item in heap)
            stop = (f"{MAX_PANELS} panels" if panels >= MAX_PANELS
                    else f"roundoff limit on [{lo!r}, {hi!r}]")
            raise NonConvergenceError(
                f"quadrature did not converge on [{a}, {b}] (best estimate {best!r}): "
                f"{stop} reached, error bound {errsum!r}", best, errsum)
        left, left_err = _qk15(fn, lo, mid)
        right, right_err = _qk15(fn, mid, hi)
        heapq.heapreplace(heap, (-left_err, lo, mid, left))
        heapq.heappush(heap, (-right_err, mid, hi, right))
        errsum += neg_err + left_err + right_err
        if errsum != errsum:  # a NaN (or inf - inf) outlives its panel in the running sum
            errsum = math.fsum(-item[0] for item in heap)
        panels += 2
    return math.fsum(item[3] for item in heap)


def _i_integrand(f: Callable[[float], float]) -> tuple[Callable, Callable[[float], float]]:
    """(column, integrand) of g = f, or of a SeiffertFunction's unchecked `func` (I's
    points lie in (0, 1)): g over a list of points (f's column form, if it has one),
    and u -> g(u)/u, patched by its limit 1 near u = 0."""
    g, column = (f.func, f.column) if isinstance(f, SeiffertFunction) else (f, None)

    def integrand(u: float) -> float:
        return 1.0 if u < I_OPERATOR_CUTOFF else g(u) / u

    return column or partial(map, g), integrand


def apply_i_operator(f: Callable[[float], float], z: float) -> float:
    """I(f)(z) = integral of f(u)/u over (0, z], patched by f(u)/u -> 1 at 0."""
    return integrate(_i_integrand(f)[1], 0.0, check_unit(z))


def _i_operator_on_each(fs: Iterable[Callable[[float], float]],
                        zs: Iterable[float]) -> list[list[float]]:
    """I of each of fs at ascending zs in (0, 1): per f, the running sums of the
    integrals over [z_{k-1}, z_k], z_0 = 0, each bit for bit one `integrate` at
    QUADRATURE_TOL / len(zs), so every sum is within QUADRATURE_TOL; at one point
    this is one `integrate` over (0, z], as in `apply_i_operator`.

    Each interval's first-panel nodes are built once for all fs.  Each f is
    evaluated at every first-panel node not below I_OPERATOR_CUTOFF, by one call
    of its column, before any panel is refined, and only a panel over tol
    reaches `_refine`, seeded with that panel, so no panel is evaluated twice;
    an interval of a repeated point is 0.0 and evaluates nothing, as in `integrate`.
    """
    points = [check_unit(z) for z in zs]
    if any(b < a for a, b in pairwise(points)):
        raise DomainError("points of I must be ascending")
    tol = QUADRATURE_TOL / max(len(points), 1)
    spans = list(pairwise([0.0, *points]))
    firsts = [(a, b, *_nodes(a, b)) for a, b in spans if a < b]
    nodes = [u for *_, us in firsts for u in us]
    kept = [u for u in nodes if not u < I_OPERATOR_CUTOFF]
    limits = [i for i, u in enumerate(nodes) if u < I_OPERATOR_CUTOFF]
    rows = []
    for f in fs:
        column, integrand = _i_integrand(f)
        ys = list(map(truediv, column(kept), kept))  # `integrand` at the kept nodes,
        for i in limits:  # and its limit 1.0 at the rest, each in its place (ascending i)
            ys.insert(i, 1.0)
        pieces = []
        for (a, b, half, _), y in zip(firsts, zip(*[iter(ys)] * 15)):
            value, err = _rule(half, *y)
            # `_refine`'s accept rule inline: nearly every first panel passes it
            pieces.append(value + 0.0 if err <= tol else
                          _refine(integrand, a, b, tol, value, err))
        rest = iter(pieces)
        rows.append(list(accumulate(next(rest) if a < b else 0.0 for a, b in spans)))
    return rows


def i_envelope(z: float) -> tuple[float, float]:
    """The band (log(1+z), -log(1-z)) that I(f)(z) must lie in."""
    fz = check_unit(z)
    return math.log1p(fz), -math.log1p(-fz)


def derivative_estimate(g: Callable[[float], float], z: float,
                        domain: tuple[float, float] | None = None) -> float:
    """Second-order finite-difference derivative of g at z.

    Central difference with step h = 1e-6 * max(1, |z|); falls back to a
    one-sided three-point stencil when z +/- h leaves the (open) domain.
    Raises DomainError when even the one-sided stencil does not fit.
    """
    fz = float(z)
    h = 1e-6 * max(1.0, abs(fz))

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
