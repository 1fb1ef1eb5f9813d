"""Catalog of symmetric homogeneous means and the Seiffert correspondence.

Every symmetric, homogeneous mean M on positive pairs corresponds
one-to-one with a function f on (0, 1) inside the band

    z/(1+z) <= f(z) <= z/(1-z)        (a "Seiffert function")

via

    f_M(z) = z / M(1-z, 1+z)   and   M(x, y) = |x-y| / (2 f(z)),

where z = |x-y|/(x+y) is the relative half-spread (the band endpoints
correspond to the max and min "means").  Larger means have smaller
Seiffert functions and vice versa.

The t-deformation pulls a pair toward its midpoint:

    M^{t}(x, y) = M(m + t d, m - t d),  m = (x+y)/2, d = (x-y)/2,

for 0 < t <= 1, and on the Seiffert side f^{t}(z) = f(t z)/t.  The two
constructions are consistent: the Seiffert function of M^{t} is f^{t}.
Deformation of a mean is done directly on the arguments (fewer roundings),
which turns that consistency into a cross-check instead of a definition.

All values here are immutable and every operation is a pure function.  The loops of
the AGM and V rows live here too, and `elliptic`'s default routes to K and E run them.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Collection
from functools import partial
from math import ldexp

from ._frozen import Frozen, set_field
from ._pairs import check_modulus, check_pair, check_unit, deformed, half_spread
from .errors import DomainError, NonConvergenceError, SeiffertBoundError, UnknownMeanError

__all__ = [
    "MeanDescriptor",
    "SeiffertFunction",
    "CATALOG",
    "MEAN_IDS",
    "get_mean",
    "eval_mean",
    "relative_half_spread",
    "seiffert_bounds",
    "seiffert_of_mean",
    "mean_of_seiffert",
    "deform",
    "deform_mean",
    "agm",
    "v_mean",
    "worst",
]


class MeanDescriptor(Frozen):
    """A named, evaluable symmetric homogeneous mean on positive pairs.

    The evaluator receives a decided pair (lo, hi) with 0 < lo < hi.  Only
    `_pairs.check_pair` decides a pair: it orders it (which makes the mean
    symmetric) and returns (e, lo/2^e, hi/2^e), with e = 0 inside the window
    [2^-500, 2^500] and the pair brought near 1 outside it.  A call decides its
    arguments, returns lo at a tie and calls `evaluator` otherwise, then
    multiplies the value by 2^e if e is not 0; `ordered` is that core at a pair
    already decided.  So an evaluator sees a pair near 1, unless its exponents
    lie more than 1024 apart, and so does the pulled pair that `_pairs.deformed`
    forms for a deformed mean or N^{1/2}.
    `agm` and `v_mean` are catalog rows.

    Catalog means also know their Seiffert function's shape on (0, 1)
    ("affine", "convex" or "concave"; it drives the shape-preservation
    checks of the operator I) and its closed-form derivative (it spares
    the representability check finite-difference noise where the
    derivative touches its band).  Both stay None for derived means.
    """

    __slots__ = ("id", "display", "evaluator", "note", "shape", "derivative")
    _hidden = ("evaluator", "derivative")

    def __init__(self, id: str, display: str, evaluator: Callable[[float, float], float],
                 note: str = "", shape: str | None = None,
                 derivative: Callable[[float], float] | None = None) -> None:
        set_field(self, "id", id)
        set_field(self, "display", display)
        set_field(self, "evaluator", evaluator)
        set_field(self, "note", note)
        set_field(self, "shape", shape)
        set_field(self, "derivative", derivative)

    def ordered(self, lo: float, hi: float) -> float:
        """The mean at a decided pair, 0 < lo <= hi; checks nothing."""
        return lo if lo == hi else self.evaluator(lo, hi)

    def __call__(self, x: float, y: float) -> float:
        e, lo, hi = check_pair(x, y)
        value = lo if lo == hi else self.evaluator(lo, hi)
        return ldexp(value, e) if e else value


class SeiffertFunction(Frozen):
    """An evaluable function on (0, 1), with optional closed-form derivative."""

    __slots__ = ("func", "derivative", "name")
    _hidden = ("func", "derivative")

    def __init__(self, func: Callable[[float], float],
                 derivative: Callable[[float], float] | None = None, name: str = "") -> None:
        set_field(self, "func", func)
        set_field(self, "derivative", derivative)
        set_field(self, "name", name)

    def __call__(self, z: float) -> float:
        return self.func(check_unit(z))


def worst(pick: Callable, values: Collection[float]) -> float:
    """min or max (`pick`) of values, or NaN if any is NaN: the worst value of a
    check or report.  The bare builtins drop a NaN unless it comes first, which
    would let a fault that yields NaN pass."""
    return math.nan if any(map(math.isnan, values)) else pick(values)


def relative_half_spread(x: float, y: float) -> float:
    """z = |x - y| / (x + y), always in [0, 1)."""
    _, lo, hi = check_pair(x, y)  # z is scale-free
    return half_spread(lo, hi)


def seiffert_bounds(z: float) -> tuple[float, float]:
    """The admissible band (z/(1+z), z/(1-z)) at a given z in (0, 1)."""
    fz = check_unit(z)
    return fz / (1.0 + fz), fz / (1.0 - fz)


# --------------------------------------------------------------------------
# Catalog closed forms.  Each evaluator sees 0 < lo < hi.
# --------------------------------------------------------------------------

def _arithmetic(lo: float, hi: float) -> float:
    return 0.5 * (lo + hi)


def _geometric(lo: float, hi: float) -> float:
    return math.sqrt(lo) * math.sqrt(hi)


def _harmonic(lo: float, hi: float) -> float:
    return 2.0 * lo * hi / (lo + hi)


def _contraharmonic(lo: float, hi: float) -> float:
    c = (lo * lo + hi * hi) / (lo + hi)
    # past hi/lo of about 2^53 the quotient can round above hi; an overflow stays inf
    return hi if hi < c < math.inf else c


def _root_mean_square(lo: float, hi: float) -> float:
    return math.hypot(lo, hi) / math.sqrt(2.0)


# Below z = 1e-8 the log difference cancels catastrophically; there
# L = A z/artanh(z) = A (1 - z^2/3 - ...) rounds to A, as z^2/3 < 2^-54.
# Above it, log1p(d/lo) stays uniformly accurate at both ends (plain
# log(hi/lo) cancels near equal arguments, artanh(z) amplifies near z = 1).
_LOG_MEAN_SERIES_CUTOFF = 1e-8


def _logarithmic(lo: float, hi: float) -> float:
    z = half_spread(lo, hi)
    if z < _LOG_MEAN_SERIES_CUTOFF:
        return 0.5 * (lo + hi)
    d = hi - lo
    r = d / lo  # overflows only for lo/hi < 2^-1024, where log(hi) - log(lo) cannot cancel
    return d / (math.log1p(r) if r < math.inf else math.log(hi) - math.log(lo))


def _first_seiffert(lo: float, hi: float) -> float:
    z = half_spread(lo, hi)
    if z > 0.7:
        # arcsin is infinitely steep at 1, so evaluate the complement angle
        # from sqrt(1-z^2) = 2 sqrt(lo hi)/(lo+hi), which never cancels
        w = 2.0 * math.sqrt(lo) * math.sqrt(hi) / (lo + hi)
        angle = 0.5 * math.pi - math.asin(w)
    else:
        angle = math.asin(z)
    return (hi - lo) / (2.0 * angle)


#: The AGM loops stop at a relative gap of AGM_RTOL, and raise NonConvergenceError after
#: AGM_MAX_STEPS steps.  Over about 2.5 million seeded log-uniform pairs of positive doubles,
#: a run that converged needed at most 13 steps while a*b stayed normal and 50 where it was
#: subnormal; only a product that underflowed to 0 ran longer, halving b down to 0 (411 steps
#: for 1e-300, 1e-200).  E's loop needs at most 8 steps on [0, 1).
AGM_RTOL = 1e-15
AGM_MAX_STEPS = 64


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


def _agm_e(z: float) -> float:  # E(z) by the AGM with its correction sum: 0 <= z < 1, unchecked
    a = 1.0
    b = math.sqrt((1.0 - z) * (1.0 + z))
    s = 0.5 * z * z
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


def _elliptic_harmonic(lo: float, hi: float) -> float:
    return 0.5 * math.pi * _harmonic(lo, hi) / _agm_e(half_spread(lo, hi))


def v_seiffert_prime(z: float) -> float:
    """Derivative of the Seiffert function of the mean V, in closed form.

    v(z) = (2/pi) z E(z) / (1 - z^2), and with dE/dz = (E - K)/z,

        v'(z) = (2/pi) [ (2E - K)/(1 - z^2) + 2 z^2 E/(1 - z^2)^2 ].
    """
    fz = check_modulus(check_unit(z))
    e = _agm_e(fz)
    k = math.pi / (2.0 * _agm(1.0 - fz, 1.0 + fz))  # Gauss's identity
    one_minus = (1.0 - fz) * (1.0 + fz)
    return 2.0 / math.pi * ((2.0 * e - k) / one_minus
                            + 2.0 * fz * fz * e / (one_minus * one_minus))


def _from_spread(inv: Callable[[float], float]) -> Callable[[float, float], float]:
    # |x-y| / (2 g(z)) for the means defined through a function of z alone
    def evaluator(lo: float, hi: float) -> float:
        return (hi - lo) / (2.0 * inv(half_spread(lo, hi)))

    return evaluator


def _scaled_arithmetic(shape: Callable[[float], float]) -> Callable[[float, float], float]:
    # A(x,y) * shape(z) for the trig/hyperbolic example means
    def evaluator(lo: float, hi: float) -> float:
        return 0.5 * (lo + hi) * shape(half_spread(lo, hi))

    return evaluator


def _sec2(z: float) -> float:
    c = math.cos(z)
    return 1.0 / (c * c)


def _sech2(z: float) -> float:
    c = math.cosh(z)
    return 1.0 / (c * c)


CATALOG: dict[str, MeanDescriptor] = {}


def _register(mean_id: str, display: str, evaluator: Callable[[float, float], float],
              note: str, shape: str, derivative: Callable[[float], float]) -> None:
    CATALOG[mean_id] = MeanDescriptor(mean_id, display, evaluator, note, shape, derivative)


# id, display, evaluator, note, Seiffert shape, Seiffert derivative
_register("A", "arithmetic mean", _arithmetic, "(x+y)/2", "affine", lambda z: 1.0)
_register("G", "geometric mean", _geometric, "sqrt(xy)", "convex",
          lambda z: ((1.0 - z) * (1.0 + z)) ** -1.5)
_register("H", "harmonic mean", _harmonic, "2xy/(x+y)", "convex",
          lambda z: (1.0 + z * z) / ((1.0 - z) * (1.0 + z)) ** 2)
_register("C", "contraharmonic mean", _contraharmonic, "(x^2+y^2)/(x+y)", "concave",
          lambda z: (1.0 - z) * (1.0 + z) / (1.0 + z * z) ** 2)
_register("R", "root-mean-square", _root_mean_square, "sqrt((x^2+y^2)/2)", "concave",
          lambda z: (1.0 + z * z) ** -1.5)
_register("L", "logarithmic mean", _logarithmic, "(x-y)/(log x - log y)", "convex",
          lambda z: 1.0 / ((1.0 - z) * (1.0 + z)))
_register("P", "first Seiffert mean", _first_seiffert, "|x-y|/(2 arcsin z)", "convex",
          lambda z: ((1.0 - z) * (1.0 + z)) ** -0.5)
_register("T", "second Seiffert mean", _from_spread(math.atan), "|x-y|/(2 arctan z)",
          "concave", lambda z: 1.0 / (1.0 + z * z))
_register("NS", "Neuman-Sandor mean", _from_spread(math.asinh), "|x-y|/(2 arsinh z)",
          "concave", lambda z: (1.0 + z * z) ** -0.5)
_register("AGM", "arithmetic-geometric mean", _agm,
          "Gauss iteration limit; equals pi/(2 K(z)) on (1-z, 1+z)", "convex",
          lambda z: 2.0 / math.pi * _agm_e(z) / ((1.0 - z) * (1.0 + z)))
# V: for the ellipse with semi-axes A and G, the inscribed disc's area over the
# semi-perimeter; its Seiffert function is z times the AGM's Seiffert derivative
_register("V", "elliptic harmonic companion of AGM", _elliptic_harmonic,
          "pi H(x,y)/(2 E(z))", "convex", v_seiffert_prime)
_register("SIN", "sine mean", _from_spread(math.sin), "|x-y|/(2 sin z)", "concave",
          math.cos)
_register("TAN", "tangent mean", _from_spread(math.tan), "|x-y|/(2 tan z)", "convex",
          _sec2)
_register("SINH", "hyperbolic sine mean", _from_spread(math.sinh), "|x-y|/(2 sinh z)",
          "convex", math.cosh)
_register("TANH", "hyperbolic tangent mean", _from_spread(math.tanh),
          "|x-y|/(2 tanh z); a valid mean, but it has no harmonic representation",
          "concave", _sech2)
_register("COSMEAN", "arithmetic over cosine", _scaled_arithmetic(lambda z: 1.0 / math.cos(z)),
          "A(x,y)/cos z", "concave", lambda z: math.cos(z) - z * math.sin(z))
_register("COS2MEAN", "arithmetic times squared cosine",
          _scaled_arithmetic(lambda z: math.cos(z) ** 2), "A(x,y) cos^2 z", "convex",
          lambda z: (math.cos(z) + 2.0 * z * math.sin(z)) / math.cos(z) ** 3)
_register("COSHMEAN", "arithmetic over hyperbolic cosine",
          _scaled_arithmetic(lambda z: 1.0 / math.cosh(z)), "A(x,y)/cosh z", "convex",
          lambda z: math.cosh(z) + z * math.sinh(z))

MEAN_IDS: tuple[str, ...] = tuple(CATALOG)
agm = CATALOG["AGM"]  # the two elliptic means are their rows
v_mean = CATALOG["V"]


def get_mean(mean: str | MeanDescriptor) -> MeanDescriptor:
    """Resolve a catalog id (or pass a descriptor through)."""
    if isinstance(mean, MeanDescriptor):
        return mean
    try:
        return CATALOG[mean]
    except KeyError:
        raise UnknownMeanError(mean) from None


def eval_mean(mean: str | MeanDescriptor, x: float, y: float) -> float:
    """Evaluate a mean at a positive pair; M(x, x) = x exactly."""
    # a catalog id in one lookup; anything else, or a miss, through get_mean
    desc = type(mean) is str and CATALOG.get(mean) or get_mean(mean)
    e, lo, hi = check_pair(x, y)
    value = lo if lo == hi else desc.evaluator(lo, hi)
    return ldexp(value, e) if e else value


# --------------------------------------------------------------------------
# Mean <-> Seiffert function correspondence.
# --------------------------------------------------------------------------

def seiffert_of_mean(mean: str | MeanDescriptor) -> SeiffertFunction:
    """The Seiffert function f(z) = z / M(1-z, 1+z) of a mean.

    Always evaluates through the mean itself (so e.g. the AGM entry
    genuinely exercises the iteration); the descriptor's closed-form
    derivative, if it has one, is attached.
    """
    desc = get_mean(mean)
    evaluator = desc.evaluator

    def func(z: float) -> float:
        lo, hi = 1.0 - z, 1.0 + z  # both 1.0 for z <= 2^-54
        return z / (lo if lo == hi else evaluator(lo, hi))

    return SeiffertFunction(func, desc.derivative, name=f"f[{desc.id}]")


#: Slack (absolute, plus relative to the bound) allowed before a bound
#: violation is reported by a constructed mean; absorbs quadrature noise
#: when f itself is computed numerically.
BOUND_CHECK_TOL = 1e-9


def mean_of_seiffert(f: SeiffertFunction | Callable[[float], float],
                     mean_id: str | None = None) -> MeanDescriptor:
    """The mean M(x, y) = |x - y| / (2 f(z)) encoded by a Seiffert function.

    The returned evaluator checks the admissible band at every call and
    raises SeiffertBoundError with the witness z if f leaves it.
    """
    name = getattr(f, "name", "") or "f"
    mean_id = mean_id or f"M({name})"

    def evaluator(lo: float, hi: float) -> float:
        z = half_spread(lo, hi)
        value = f(z)
        lower, upper = z / (1.0 + z), z / (1.0 - z)  # half_spread put z in (0, 1)
        if not (lower - BOUND_CHECK_TOL * max(1.0, lower) <= value
                <= upper + BOUND_CHECK_TOL * max(1.0, upper)):  # a NaN fails too
            raise SeiffertBoundError(z, value, lower, upper)
        return (hi - lo) / (2.0 * value)

    return MeanDescriptor(mean_id, f"mean of {name}", evaluator,
                          note="constructed from a Seiffert function")


def _check_deform(t: float) -> float:
    ft = float(t)
    if not 0.0 < ft <= 1.0:
        raise DomainError(f"deformation parameter must lie in (0, 1], got {t!r}")
    return ft


def deform(f: SeiffertFunction, t: float) -> SeiffertFunction:
    """f^{t}(z) = f(t z) / t; the identity deformation for t = 1."""
    ft = _check_deform(t)
    if ft == 1.0:
        return f

    def func(z: float) -> float:
        return f(ft * z) / ft

    if f.derivative is None:
        derivative = None
    else:
        base = f.derivative

        def derivative(z: float) -> float:
            # chain rule: d/dz f(tz)/t = f'(tz)
            return base(ft * z)

    return SeiffertFunction(func, derivative, name=f"{f.name or 'f'}^{{{ft:g}}}")


def deform_mean(mean: str | MeanDescriptor, t: float) -> MeanDescriptor:
    """M^{t}: the mean evaluated on the pair pulled toward its midpoint."""
    desc = get_mean(mean)
    ft = _check_deform(t)
    if ft == 1.0:
        return desc
    return MeanDescriptor(f"{desc.id}^{{{ft:g}}}", f"{desc.display} deformed by t={ft:g}",
                          partial(deformed, desc.evaluator, ft),
                          note=f"t-deformation of {desc.id}")
