"""The AGM iteration and complete elliptic integrals, functions of a modulus.

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

from ._pairs import check_unit
from .errors import DomainError, NonConvergenceError

__all__ = [
    "ellip_k",
    "ellip_e",
    "ellip_k_prime",
    "agm_seiffert_prime",
    "agm_coefficient",
    "agm_coefficient_ratio",
    "v_seiffert_prime",
]

#: Relative gap at which the AGM iteration is considered converged.
AGM_RTOL = 1e-15

#: The AGM loops raise NonConvergenceError after this many steps.  Over
#: about 2.5 million seeded log-uniform pairs of positive doubles, a run
#: that converged needed at most 13 steps while a*b stayed normal and 50
#: where it was subnormal; only a product that underflowed to 0 ran
#: longer, halving b down to 0 (411 steps for 1e-300, 1e-200).  E's loop
#: needs at most 8 steps on [0, 1).
AGM_MAX_STEPS = 64

#: K is rejected above this modulus; it diverges at z = 1 and relative
#: error contracts are meaningless nearby.
MODULUS_CAP = 1.0 - 1e-12

K_METHODS = ("agm", "series", "quadrature")

#: The power series stop at the first term below SERIES_TERM_TOL, and
#: raise NonConvergenceError after SERIES_MAX_TERMS terms.
SERIES_TERM_TOL = 1e-16
SERIES_MAX_TERMS = 10_000

#: Tolerance of the quadrature routes to K and E, the oracles for the others.
ORACLE_TOL = 1e-13


def _agm(a: float, b: float) -> float:  # AGM's catalog evaluator: 0 < a <= b, unchecked
    steps = 0
    while b - a > AGM_RTOL * b:
        if steps == AGM_MAX_STEPS:
            raise NonConvergenceError(f"AGM not converged after {steps} steps",
                                      best=0.5 * (a + b), error_bound=0.5 * (b - a))
        steps += 1
        a, b = math.sqrt(a * b), 0.5 * (a + b)
        if a > b:
            a, b = b, a
    return 0.5 * (a + b)


def _check_modulus(z: float) -> float:
    fz = float(z)
    if not 0.0 <= fz < 1.0:
        raise DomainError(f"modulus must lie in [0, 1), got {z!r}")
    if fz > MODULUS_CAP:
        raise DomainError(f"modulus {z!r} too close to the z=1 divergence")
    return fz


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
    fz = _check_modulus(z)
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
        a = 1.0
        b = math.sqrt((1.0 - fz) * (1.0 + fz))
        s = 0.5 * fz * fz
        pow2 = 0.5
        steps = 0
        while a - b > AGM_RTOL * a:
            if steps == AGM_MAX_STEPS:
                raise NonConvergenceError(f"E not converged after {steps} AGM steps",
                                          best=math.pi / (a + b) * (1.0 - s))
            steps += 1
            c = 0.5 * (a - b)
            pow2 *= 2.0
            s += pow2 * c * c
            a, b = 0.5 * (a + b), math.sqrt(a * b)
        k = math.pi / (a + b)  # pi / (2 * agm)
        return k * (1.0 - s)
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


def v_seiffert_prime(z: float) -> float:
    """Derivative of the Seiffert function of the mean V, in closed form.

    v(z) = (2/pi) z E(z) / (1 - z^2), and with dE/dz = (E - K)/z,

        v'(z) = (2/pi) [ (2E - K)/(1 - z^2) + 2 z^2 E/(1 - z^2)^2 ].
    """
    fz = check_unit(z)
    e = ellip_e(fz)
    k = ellip_k(fz)
    one_minus = (1.0 - fz) * (1.0 + fz)
    return 2.0 / math.pi * ((2.0 * e - k) / one_minus
                            + 2.0 * fz * fz * e / (one_minus * one_minus))
