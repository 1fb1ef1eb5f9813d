"""Hermite-Hadamard machinery for means and the catalog inequality chains.

When N is a harmonic representation of M and n(u)/u is convex (n the
Seiffert function of N), the Hermite-Hadamard inequality applied to the
integral operator gives

    2 n(z/2) <= I(n)(z) <= (z + n(z)) / 2,

which translates to means as H(A, N) <= M <= N^{1/2}, with N^{1/2} the
half-deformation N((3x+y)/4, (x+3y)/4).  The stronger averaged form
sharpens the lower bound to the four-argument harmonic mean
H(A, N^{1/2}, N^{1/2}, N).  When n(u)/u is concave all inequalities
reverse; for the (T, C) and (NS, R) pairs, whose n(u)/u is neither,
closed-form envelope lemmas establish the reversed sandwich anyway:

    4u/(4+u^2) > arctan u > u (2+u^2)/(2+2u^2),
    2u/sqrt(u^2+4) >= arsinh u >= u/2 + u/(2 sqrt(u^2+1)),

whose sides are exactly 2 n(u/2) and (u + n(u))/2 for n the Seiffert
functions of C and R.

Chains are ordered term lists verified pointwise on pair grids, with
margins reported relative to the local arithmetic mean (homogeneity makes
absolute margins meaningless across scales).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .calculus import GridSpec
from .errors import DomainError
from .means import MeanDescriptor, deform_mean, get_mean, relative_half_spread

__all__ = [
    "ChainSpec",
    "ChainPointRecord",
    "ChainReport",
    "CHAIN_NAMES",
    "hh_bounds",
    "hh_refined_lower",
    "envelope_lemma",
    "run_chain_suite",
    "builtin_chain",
    "default_pair_grid",
]

Term = tuple[str, Callable[[float, float], float]]


@dataclass(frozen=True)
class ChainSpec:
    """An ordered (ascending) list of labelled terms to compare pointwise.

    `direction` records why the ordering is expected: "convex" for the
    forward Hermite-Hadamard case, "reversed" for the concave or
    lemma-backed reversed case.
    """

    name: str
    terms: tuple[Term, ...]
    direction: str
    note: str = ""

    def __post_init__(self) -> None:
        if len(self.terms) < 2:
            raise DomainError("a chain needs at least two terms")
        if self.direction not in ("convex", "reversed"):
            raise DomainError(f"unknown chain direction {self.direction!r}")


@dataclass(frozen=True)
class ChainPointRecord:
    x: float
    y: float
    z: float
    values: tuple[float, ...]
    margins: tuple[float, ...]  # adjacent differences relative to A(x, y)


@dataclass(frozen=True)
class ChainReport:
    """Margins of a chain over a pair grid; pass means no margin below -tol."""

    name: str
    tol: float
    points: tuple[ChainPointRecord, ...]
    skipped: tuple[tuple[float, float, str], ...]
    min_margin: float
    passed: bool
    failing_point: tuple[float, float] | None


def _harmonic_of(*values: float) -> float:
    return len(values) / sum(1.0 / v for v in values)


def hh_bounds(mean: str | MeanDescriptor, x: float, y: float) -> tuple[float, float]:
    """The sandwich (H(A, N), N^{1/2}) evaluated at a pair.

    Whether these really bound the represented mean from below/above (or
    the reverse) depends on the shape of n(u)/u; this just evaluates both
    sides.  For equal arguments both bounds collapse to x.
    """
    desc = get_mean(mean)
    if float(x) == float(y):
        value = desc(x, y)
        return value, value
    a = 0.5 * (x + y)
    n_value = desc(x, y)
    lower = _harmonic_of(a, n_value)
    upper = deform_mean(desc, 0.5)(x, y)
    return lower, upper


def hh_refined_lower(mean: str | MeanDescriptor, x: float, y: float) -> float:
    """The sharper lower bound H(A, N^{1/2}, N^{1/2}, N) at a pair."""
    desc = get_mean(mean)
    if float(x) == float(y):
        return desc(x, y)
    a = 0.5 * (x + y)
    n_value = desc(x, y)
    n_half = deform_mean(desc, 0.5)(x, y)
    return _harmonic_of(a, n_half, n_half, n_value)


def envelope_lemma(kind: str, u: float) -> tuple[float, float]:
    """Closed-form (lower, upper) envelopes for arctan or arsinh on (0, 1).

    arctan:  u (2+u^2)/(2+2u^2) < arctan u < 4u/(4+u^2)
    arsinh:  u/2 + u/(2 sqrt(u^2+1)) <= arsinh u <= 2u/sqrt(u^2+4)
    """
    fu = float(u)
    if not 0.0 < fu < 1.0:
        raise DomainError(f"u must lie in (0, 1), got {u!r}")
    u2 = fu * fu
    if kind == "arctan":
        return fu * (2.0 + u2) / (2.0 + 2.0 * u2), 4.0 * fu / (4.0 + u2)
    if kind == "arsinh":
        return 0.5 * fu + 0.5 * fu / math.sqrt(u2 + 1.0), 2.0 * fu / math.sqrt(u2 + 4.0)
    raise DomainError(f"unknown envelope kind {kind!r}, expected 'arctan' or 'arsinh'")


#: Margins may dip to -tol before a chain fails; strictly positive margins
#: are asserted separately where the chains are strict.
CHAIN_TOL = 1e-10

#: Unit draws (for z, for scale) of the default grid's rescaled pairs: the
#: first 20 values of default_rng(24036).random(), frozen so reports are
#: reproducible run to run.
_RESCALING_DRAWS = (
    (0.45553250506870546, 0.04505750114690643),
    (0.5127192475411657, 0.6219300669216343),
    (0.8624979195834163, 0.7484150640709017),
    (0.38808146661406007, 0.5913236361282369),
    (0.7982577543372584, 0.7714503385009818),
    (0.1760996753150027, 0.817188838927504),
    (0.2602471292488041, 0.8626173841981173),
    (0.3378592868946736, 0.2915873209941282),
    (0.8529055163475476, 0.3742679200954574),
    (0.48802336546823266, 0.31375542009046176),
)


def _log_uniform(lo: float, hi: float, r: float) -> float:
    log_lo = math.log(lo)
    return math.exp(log_lo + (math.log(hi) - log_lo) * r)


def default_pair_grid(count: int = 100, z_min: float = 1e-4, z_max: float = 0.999,
                      rescalings: int = 10) -> list[tuple[float, float]]:
    """Pairs with log-spaced half-spreads at x + y = 2, plus rescaled extras.

    Homogeneity makes z the only true degree of freedom; the rescalings
    (log-uniform z in [z_min, z_max] and scale in [1e-3, 1e3], from fixed
    draws) exercise exactly that.  At most 10 rescalings are available.
    """
    if not 0 <= rescalings <= len(_RESCALING_DRAWS):
        raise DomainError(f"rescalings must lie in [0, {len(_RESCALING_DRAWS)}], "
                          f"got {rescalings!r}")
    pairs = [(1.0 - z, 1.0 + z) for z in GridSpec(z_min, z_max, count, "log").points()]
    for rz, rs in _RESCALING_DRAWS[:rescalings]:
        z = _log_uniform(z_min, z_max, rz)
        scale = _log_uniform(1e-3, 1e3, rs)
        pairs.append((scale * (1.0 - z), scale * (1.0 + z)))
    return pairs


def run_chain_suite(spec: ChainSpec,
                    pairs: list[tuple[float, float]] | None = None,
                    tol: float = CHAIN_TOL) -> ChainReport:
    """Evaluate every chain term on a pair grid and report margins.

    A term failure at a point records the point as skipped and flags it in
    the report instead of aborting the whole run.
    """
    if pairs is None:
        pairs = default_pair_grid()
    records = []
    skipped = []
    min_margin = math.inf
    failing = None
    for x, y in pairs:
        a = 0.5 * (x + y)
        try:
            values = tuple(fn(x, y) for _, fn in spec.terms)
        except Exception as exc:  # noqa: BLE001 - recorded, point skipped
            skipped.append((x, y, f"{type(exc).__name__}: {exc}"))
            continue
        margins = tuple((values[i + 1] - values[i]) / a for i in range(len(values) - 1))
        worst = min(margins)
        if worst < min_margin:
            min_margin = worst
            if worst < -tol:
                failing = (x, y)
        records.append(ChainPointRecord(x, y, relative_half_spread(x, y), values, margins))
    passed = failing is None and not skipped
    return ChainReport(spec.name, tol, tuple(records), tuple(skipped),
                       min_margin, passed, failing)


# --------------------------------------------------------------------------
# Built-in chains.
# --------------------------------------------------------------------------

def _mean_term(mean_id: str) -> Term:
    return mean_id, get_mean(mean_id)


def _half_term(mean_id: str) -> Term:
    return f"{mean_id}^{{1/2}}", deform_mean(mean_id, 0.5)


def _hh_lower_term(mean_id: str) -> Term:
    return f"H(A,{mean_id})", lambda x, y: hh_bounds(mean_id, x, y)[0]


def _hh_refined_term(mean_id: str) -> Term:
    return (f"H(A,{mean_id}^{{1/2}},{mean_id}^{{1/2}},{mean_id})",
            lambda x, y: hh_refined_lower(mean_id, x, y))


def _forward_chain(name: str, represented: str, representer: str,
                   refined: bool, note: str = "") -> ChainSpec:
    terms = [_hh_lower_term(representer)]
    if refined:
        terms.append(_hh_refined_term(representer))
    terms.append(_mean_term(represented))
    terms.append(_half_term(representer))
    return ChainSpec(name, tuple(terms), "convex", note)


def _reversed_chain(name: str, represented: str, representer: str,
                    note: str = "") -> ChainSpec:
    terms = (_half_term(representer), _mean_term(represented),
             _hh_lower_term(representer))
    return ChainSpec(name, terms, "reversed", note)


def _build_chains() -> dict[str, ChainSpec]:
    return {
        "hh-P-G": _forward_chain("hh-P-G", "P", "G", refined=True,
                                 note="n(u)/u = (1-u^2)^{-1/2} is convex"),
        "hh-T-C": _reversed_chain("hh-T-C", "T", "C",
                                  note="reversed via the arctan envelope lemma"),
        "hh-L-H": _forward_chain("hh-L-H", "L", "H", refined=True,
                                 note="n(u)/u = 1/(1-u^2) is convex"),
        "hh-NS-R": _reversed_chain("hh-NS-R", "NS", "R",
                                   note="reversed via the arsinh envelope lemma"),
        "hh-SIN": _reversed_chain("hh-SIN", "SIN", "COSMEAN",
                                  note="n(u)/u = cos u is concave"),
        "hh-TAN": _forward_chain("hh-TAN", "TAN", "COS2MEAN", refined=False,
                                 note="n(u)/u = 1/cos^2 u is convex"),
        "hh-SINH": _forward_chain("hh-SINH", "SINH", "COSHMEAN", refined=False,
                                  note="n(u)/u = cosh u is convex"),
        "hh-AGM-V": _forward_chain("hh-AGM-V", "AGM", "V", refined=False,
                                   note="n(u)/u = (2/pi) E(u)/(1-u^2) is convex"),
    }


_CHAINS = _build_chains()

CHAIN_NAMES: tuple[str, ...] = tuple(_CHAINS)


def builtin_chain(name: str) -> ChainSpec:
    """Look up one of the built-in chain specifications by name."""
    try:
        return _CHAINS[name]
    except KeyError:
        raise DomainError(
            f"unknown chain {name!r}; available: {', '.join(CHAIN_NAMES)}") from None
