"""The domains of the library's arguments, each checked once, where a value enters."""

from __future__ import annotations

import math
from math import inf

from .errors import DomainError

# Largest double strictly below 1; z is clamped here when a pair is so
# unbalanced that the true half-spread rounds to 1.
MAX_HALF_SPREAD = math.nextafter(1.0, 0.0)

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
