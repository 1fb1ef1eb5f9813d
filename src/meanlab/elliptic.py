"""Complete elliptic integrals of a modulus; the AGM loops they run live in `means`.

Conventions: the modulus z enters quadratically,

    K(z) = integral over [0, pi/2] of dphi / sqrt(1 - z^2 sin^2 phi),
    E(z) = integral over [0, pi/2] of sqrt(1 - z^2 sin^2 phi) dphi,

and Gauss's identity AGM(1-z, 1+z) = pi / (2 K(z)) ties the iteration to
K.  Three independent routes to K are kept on purpose (AGM, power series,
adaptive quadrature) so the test suite can cross-validate them.

The Seiffert function of the AGM mean is f(z) = (2/pi) z K(z); its
derivative has the power series sum over m >= 0 of c_m z^(2m) with

    c_m = (2m + 1) [(2m-1)!! / (2m)!!]^2,

computed here through one exact ratio c_m/c_{m-1} = (2m-1)(2m+1)/(2m)^2
from c_0 = 1 (direct double factorials overflow beyond m of about 150).
The ratio is below 1, so c_1 = 3/4 and every later c_m < 1, which gives
the derivative bounds 1 < f'(z) < 1/(1-z).
"""

from __future__ import annotations

import math
from operator import truediv

from ._pairs import check_modulus, check_unit
from .errors import DomainError, NonConvergenceError
from .means import _agm, _agm_e, v_seiffert_prime

__all__ = [
    "ellip_k",
    "ellip_e",
    "ellip_k_prime",
    "agm_seiffert_prime",
    "agm_coefficient",
    "agm_coefficient_ratio",
    "v_seiffert_prime",
]

K_METHODS = ("agm", "series", "quadrature")

#: The power series stop at the first term below SERIES_TERM_TOL, and
#: raise NonConvergenceError after SERIES_MAX_TERMS terms.
SERIES_TERM_TOL = 1e-16
SERIES_MAX_TERMS = 10_000

#: Tolerance of the quadrature routes to K and E, the oracles for the others.
ORACLE_TOL = 1e-13


def _power_series(name: str, ratio, z: float, scale: float = 1.0) -> float:
    """scale * (1 + t_1 + t_2 + ...) with t_m = t_{m-1} ratio(m) z^2.

    Each ratio(m) lies in (0, 1), or in (1, 9/8] for K', which sums only at
    z < 0.1; either way the tail after t_m is below t_m / (1 - z^2).
    """
    z2 = z * z
    total = term = 1.0
    m = 0
    while True:
        m += 1
        term *= ratio(m) * z2
        total += term
        if term < SERIES_TERM_TOL:
            return scale * total
        if m >= SERIES_MAX_TERMS:
            raise NonConvergenceError(f"{name} not converged after {m} terms at z={z!r}",
                                      best=scale * total,
                                      error_bound=scale * term / (1.0 - z2))


def _k_ratio(m: int) -> float:  # ((2m-1)/(2m))^2, K's term ratio
    q = (2.0 * m - 1.0) / (2.0 * m)
    return q * q


def _oracle(g, z: float) -> float:
    """Integral over [0, pi/2] of g(1 - z^2 sin^2 phi) at ORACLE_TOL."""
    from .calculus import integrate  # only the quadrature routes load calculus
    z2 = z * z

    def integrand(phi: float) -> float:
        s = math.sin(phi)
        return g(1.0 - z2 * s * s)

    return integrate(integrand, 0.0, 0.5 * math.pi, ORACLE_TOL)


def ellip_k(z: float, method: str = "agm") -> float:
    """Complete elliptic integral of the first kind.

    method "agm" inverts Gauss's identity (default: quadratically
    convergent and uniformly accurate); "series" and "quadrature" are the
    slower routes kept as cross-checks.
    """
    fz = check_modulus(z)
    if method == "agm":
        return math.pi / (2.0 * _agm(1.0 - fz, 1.0 + fz))
    if method == "series":
        return _power_series("K series", _k_ratio, fz, 0.5 * math.pi)
    if method == "quadrature":
        return _oracle(lambda w: 1.0 / math.sqrt(w), fz)
    raise ValueError(f"unknown method {method!r}, expected one of {K_METHODS}")


def ellip_e(z: float, method: str = "agm") -> float:
    """Complete elliptic integral of the second kind, for z in [0, 1].

    The default route runs the AGM iteration while accumulating the
    correction sum 2^(n-1) c_n^2; quadrature is the independent oracle.
    E(0) = pi/2 and E(1) = 1 are exact.
    """
    fz = float(z)
    if not 0.0 <= fz <= 1.0:
        raise DomainError(f"E needs a modulus in [0, 1], got {z!r}")
    if fz == 1.0:
        return 1.0
    if method == "agm":
        return _agm_e(fz)
    if method == "quadrature":
        return _oracle(math.sqrt, fz)
    raise ValueError(f"unknown method {method!r}, expected 'agm' or 'quadrature'")


def ellip_k_prime(z: float) -> float:
    """dK/dz, for z from 0.1 up via E(z)/(z (1-z^2)) - K(z)/z.

    Below 0.1 those two terms of size K/z cancel (relative error about
    eps/z^2), so K' is summed there as (pi/2) sum over m >= 1 of
    2m a_m z^(2m-1), a_m = ((2m-1)!!/(2m)!!)^2.  K'(0) = 0.
    """
    if float(z) == 0.0:
        return 0.0
    fz = check_unit(z)
    if fz < 0.1:  # (pi z / 4) (1 + 9/8 z^2 + ...), term ratio (2m+1)^2 / (4m(m+1))
        return _power_series("K' series", lambda m: truediv((2 * m + 1) ** 2, 4 * m * (m + 1)),
                             fz, 0.25 * math.pi * fz)
    one_minus = (1.0 - fz) * (1.0 + fz)
    return ellip_e(fz) / (fz * one_minus) - ellip_k(fz) / fz


def _c_ratio(m: int) -> tuple[int, int]:
    """c_m / c_{m-1} = (2m-1)(2m+1) / (2m)^2 as (numerator, denominator)."""
    return (2 * m - 1) * (2 * m + 1), 4 * m * m


def agm_coefficient(m: int) -> float:
    """c_m = (2m+1) [(2m-1)!!/(2m)!!]^2 as a float, via the ratio recurrence."""
    if m < 1:
        raise DomainError("coefficient index starts at 1")
    c = 1.0
    for j in range(1, m + 1):
        c *= truediv(*_c_ratio(j))
    return c


def agm_coefficient_ratio(m: int):
    """Exact ratio c_{m+1} / c_m = (2m+1)(2m+3) / (2m+2)^2, a Fraction."""
    import fractions  # lazily, for the CLI; a local `from` import costs ~2 us
    if m < 1:
        raise DomainError("coefficient index starts at 1")
    return fractions.Fraction(*_c_ratio(m + 1))


def agm_seiffert_prime(z: float) -> float:
    """Derivative of the AGM Seiffert function by its power series.

    Equals (2/pi) E(z) / (1 - z^2) in closed form; the series route is
    kept independent so the two can check each other.
    """
    return _power_series("derivative series", lambda m: truediv(*_c_ratio(m)),
                         check_unit(z))
