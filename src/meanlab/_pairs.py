"""Validation and splitting of positive argument pairs."""

from __future__ import annotations

import math

from .errors import DomainError

# Largest double strictly below 1; z is clamped here when a pair is so
# unbalanced that the true half-spread rounds to 1.
MAX_HALF_SPREAD = math.nextafter(1.0, 0.0)

# Above this, x + y overflows and the ratio form must be used instead.
_SUM_OVERFLOW_GUARD = 8.9e307


def check_pair(x: float, y: float) -> tuple[float, float]:
    """Validate a positive pair and return it ordered as (lo, hi)."""
    fx, fy = float(x), float(y)
    if not (math.isfinite(fx) and math.isfinite(fy)):
        raise DomainError(f"arguments must be finite, got ({x!r}, {y!r})")
    if fx <= 0.0 or fy <= 0.0:
        raise DomainError(f"arguments must be positive, got ({x!r}, {y!r})")
    return (fx, fy) if fx <= fy else (fy, fx)


def half_spread(lo: float, hi: float) -> float:
    """|x - y| / (x + y) for an ordered pair, always in [0, 1).

    Uses the ratio form when the sum would overflow, and clamps to the
    largest double below 1 for pairs whose spread rounds up to 1.
    """
    if lo == hi:
        return 0.0
    if hi > _SUM_OVERFLOW_GUARD:
        r = lo / hi
        z = (1.0 - r) / (1.0 + r)
    else:
        z = (hi - lo) / (hi + lo)
    return min(z, MAX_HALF_SPREAD)


def pulled_pair(lo: float, hi: float, t: float) -> tuple[float, float]:
    """The arguments (m - t d, m + t d) of the t-deformation at (lo, hi)."""
    mid = 0.5 * (lo + hi)
    shift = 0.5 * t * (hi - lo)
    return mid - shift, mid + shift
