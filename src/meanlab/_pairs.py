"""The domains of the library's arguments (pairs, points, moduli, grids), each checked once
where a value enters.  `check_pair` alone decides a pair: it orders it and applies the exact
power-of-two rescale that brings a pair outside the window near 1; `deformed` evaluates a
pulled pair inside the window as it is, and has `check_pair` decide it outside."""

from __future__ import annotations

import math
from collections.abc import Callable
from itertools import pairwise
from math import frexp, ldexp

from ._frozen import Frozen, set_field
from .errors import DomainError

# Largest double strictly below 1; z is clamped here when a pair is so
# unbalanced that the true half-spread rounds to 1.
MAX_HALF_SPREAD = math.nextafter(1.0, 0.0)

# A pair with both arguments in this window is evaluated as given: no sum,
# product or square that a catalog mean forms there leaves the normal range.
WINDOW_LO, WINDOW_HI = 2.0 ** -500, 2.0 ** 500


def check_pair(x: float, y: float) -> tuple[int, float, float]:
    """Validate a positive pair, order it as (lo, hi) and decide it: (e, lo/2^e, hi/2^e).

    e = 0 inside the window, else the even integer nearest the mean of the binary
    exponents of lo and hi; even, so that the square roots of G and P scale exactly.
    The rescale is exact: ldexp by e gives lo and hi back.  A pair whose exponents
    lie more than 1024 apart keeps e = 0: rescaled, its hi would square past the
    largest double in C.

    Fast path: the pair is ordered first, and a pair inside the window passes one
    comparison per bound and returns; only a pair outside it (a NaN included)
    reaches the checks that choose a message, then the rescale.
    """
    fx, fy = float(x), float(y)
    lo, hi = (fx, fy) if fx <= fy else (fy, fx)  # a NaN lands where a bound test fails
    if WINDOW_LO <= lo and hi <= WINDOW_HI:
        return 0, lo, hi
    if not (math.isfinite(fx) and math.isfinite(fy)):
        raise DomainError(f"arguments must be finite, got ({x!r}, {y!r})")
    if not (fx > 0.0 and fy > 0.0):
        raise DomainError(f"arguments must be positive, got ({x!r}, {y!r})")
    e_lo, e_hi = frexp(lo)[1], frexp(hi)[1]
    e = 0 if e_hi - e_lo > 1024 else (e_lo + e_hi + 2) // 4 * 2
    return e, ldexp(lo, -e), ldexp(hi, -e)


def check_unit(z: float, name: str = "z") -> float:
    """Validate a point of the open interval (0, 1) and return it as a float."""
    fz = float(z)
    if not 0.0 < fz < 1.0:
        raise DomainError(f"{name} must lie in (0, 1), got {z!r}")
    return fz


#: K is rejected above this modulus; it diverges at z = 1 and relative
#: error contracts are meaningless nearby.
MODULUS_CAP = 1.0 - 1e-12


def check_modulus(z: float) -> float:
    """Validate a modulus of [0, MODULUS_CAP] and return it as a float."""
    fz = float(z)
    if not 0.0 <= fz < 1.0:
        raise DomainError(f"modulus must lie in [0, 1), got {z!r}")
    if fz > MODULUS_CAP:
        raise DomainError(f"modulus {z!r} too close to the z=1 divergence")
    return fz


def half_spread(lo: float, hi: float) -> float:
    """|x - y| / (x + y) for a decided pair, always in [0, 1).

    A decided pair is near 1 or inside the window, or its hi dwarfs its lo, so
    hi + lo cannot overflow.  Pairs whose spread rounds up to 1 are clamped to
    the largest double below 1.  The evaluators of `means._from_spread`
    (T NS SIN TAN SINH TANH), `means._scaled_arithmetic` (COSMEAN COS2MEAN
    COSHMEAN) and V inline this rule, L and P the quotient alone; their bits are
    tied to it by tests/test_means.py::TestRowsFormTheirHalfSpread.
    """
    z = (hi - lo) / (hi + lo)
    return MAX_HALF_SPREAD if z > MAX_HALF_SPREAD else z  # a NaN passes through


def deformed(evaluator: Callable[[float, float], float], t: float,
             lo: float, hi: float) -> float:
    """M^{t} at a decided pair with lo <= hi, from M's `evaluator`: the mean at the pulled
    pair (m - t d, m + t d), decided as `check_pair` decides a pair.  The one definition
    of a deformed mean, the N^{1/2} of the Hermite-Hadamard bounds included."""
    mid = 0.5 * (lo + hi)
    shift = 0.5 * t * (hi - lo)
    a, b = mid - shift, mid + shift  # it can tie
    if WINDOW_LO <= a and b <= WINDOW_HI:
        return a if a == b else evaluator(a, b)
    # check_pair rescales a pair outside the window, and raises where m - t d
    # rounded to 0 for t near 1
    e, a, b = check_pair(a, b)
    return ldexp(a if a == b else evaluator(a, b), e)


class GridSpec(Frozen):
    """A sampling plan: `count` points from `start` to `end` inclusive.

    Callers are responsible for keeping start/end strictly inside an open
    domain; validation here covers finiteness, ordering and the count.
    """

    __slots__ = ("start", "end", "count", "spacing")

    def __init__(self, start: float, end: float, count: int = 101,
                 spacing: str = "uniform") -> None:
        if not (math.isfinite(start) and math.isfinite(end)):
            raise DomainError(f"grid start and end must be finite, got {start!r}, {end!r}")
        if not start < end:
            raise DomainError("grid start must be below grid end")
        if not isinstance(count, int):
            raise DomainError(f"grid count must be an integer, got {count!r}")
        if count < 2:
            raise DomainError("grid needs at least 2 points")
        if spacing not in ("uniform", "log"):
            raise DomainError(f"unknown spacing {spacing!r}")
        if spacing == "log" and start <= 0.0:
            raise DomainError("log spacing needs a positive start")
        set_field(self, "start", start)
        set_field(self, "end", end)
        set_field(self, "count", count)
        set_field(self, "spacing", spacing)

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

    def midpoints(self) -> tuple[float, ...]:
        """0.5 * (a + b) for each adjacent pair (a, b) of `points()`."""
        return tuple(0.5 * (a + b) for a, b in pairwise(self.points()))


def _uniform(start: float, end: float, count: int) -> tuple[float, ...]:
    step = (end - start) / (count - 1)
    return (*(i * step + start for i in range(count - 1)), end)
