"""The domains of the library's arguments, each checked once, where a value enters,
and the exact power-of-two rescale that brings a far-out pair near 1."""

from __future__ import annotations

import math
from math import frexp, inf, ldexp

from .errors import DomainError

# Largest double strictly below 1; z is clamped here when a pair is so
# unbalanced that the true half-spread rounds to 1.
MAX_HALF_SPREAD = math.nextafter(1.0, 0.0)

# A pair with both arguments in this window is evaluated as given: no sum,
# product or square that a catalog mean forms there leaves the normal range.
WINDOW_LO, WINDOW_HI = 2.0 ** -500, 2.0 ** 500

# Above this, x + y overflows and the ratio form must be used instead.
_SUM_OVERFLOW_GUARD = 8.9e307


def check_pair(x: float, y: float) -> tuple[float, float]:
    """Validate a positive pair and return it ordered as (lo, hi).

    Fast path: a valid pair passes one chained comparison per argument
    and returns; only a failing pair reaches the checks that choose its
    message.
    """
    fx, fy = float(x), float(y)
    if 0.0 < fx < inf and 0.0 < fy < inf:
        return (fx, fy) if fx <= fy else (fy, fx)
    if not (math.isfinite(fx) and math.isfinite(fy)):
        raise DomainError(f"arguments must be finite, got ({x!r}, {y!r})")
    raise DomainError(f"arguments must be positive, got ({x!r}, {y!r})")


def check_unit(z: float, name: str = "z") -> float:
    """Validate a point of the open interval (0, 1) and return it as a float."""
    fz = float(z)
    if not 0.0 < fz < 1.0:
        raise DomainError(f"{name} must lie in (0, 1), got {z!r}")
    return fz


def half_spread(lo: float, hi: float) -> float:
    """|x - y| / (x + y) for an ordered pair, always in [0, 1).

    Uses the ratio form when the sum would overflow, and clamps to the
    largest double below 1 for pairs whose spread rounds up to 1.
    """
    if hi > _SUM_OVERFLOW_GUARD:
        r = lo / hi
        z = (1.0 - r) / (1.0 + r)
    else:
        z = (hi - lo) / (hi + lo)
    return MAX_HALF_SPREAD if z > MAX_HALF_SPREAD else z  # a NaN passes through


def pulled_pair(lo: float, hi: float, t: float) -> tuple[float, float]:
    """The arguments (m - t d, m + t d) of the t-deformation at (lo, hi), again ordered."""
    mid = 0.5 * (lo + hi)
    shift = 0.5 * t * (hi - lo)
    a, b = mid - shift, mid + shift
    # check_pair raises here: x + y overflowed, or m - t d rounded to 0 for t near 1
    return (a, b) if 0.0 < a and b < inf else check_pair(a, b)


def unit_scale(lo: float, hi: float) -> tuple[int, float, float]:
    """(e, lo/2^e, hi/2^e): e = 0 inside the window, else the even integer nearest
    the mean of the binary exponents of lo and hi; even, so that the square roots
    of G and P scale exactly.  A pair whose exponents lie more than 1024 apart
    keeps e = 0: rescaled, its hi would square past the largest double in C.
    """
    if WINDOW_LO <= lo and hi <= WINDOW_HI:
        return 0, lo, hi
    e_lo, e_hi = frexp(lo)[1], frexp(hi)[1]
    e = 0 if e_hi - e_lo > 1024 else (e_lo + e_hi + 2) // 4 * 2
    return e, ldexp(lo, -e), ldexp(hi, -e)
