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

Each row of `PAIR_CATALOG` names its chain and which of these forms it
takes.  A chain is an ascending tuple of labelled means, verified pointwise
on pair grids, with each pair checked once and margins reported relative
to the local arithmetic mean (homogeneity makes absolute margins
meaningless across scales).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable
from functools import partial
from itertools import pairwise
from math import ldexp

from ._frozen import Frozen, set_field
from ._pairs import check_pair, check_unit, deformed, half_spread
from .errors import DomainError
from .harmonic import PAIR_CATALOG, PairCatalogEntry, default_pairs
from .means import CATALOG, MeanDescriptor, deform_mean, get_mean, worst

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

Term = tuple[str, MeanDescriptor]


class ChainSpec(Frozen):
    """An ascending tuple of labelled means, compared pointwise."""

    __slots__ = ("name", "terms")

    def __init__(self, name: str, terms: tuple[Term, ...]) -> None:
        if len(terms) < 2:
            raise DomainError("a chain needs at least two terms")
        for label, term in terms:
            if not isinstance(term, MeanDescriptor):
                raise DomainError(f"chain term {label!r} is not a MeanDescriptor")
        set_field(self, "name", name)
        set_field(self, "terms", terms)


class ChainPointRecord(namedtuple("ChainPointRecord", "x y z values margins")):
    """The chain's values at one pair, and their adjacent differences
    relative to A(x, y) as `margins`."""

    __slots__ = ()

    @property
    def worst_margin(self) -> float:
        """The smallest margin, or NaN if any margin is NaN.

        `run_chain_suite` applies the same rule inline to each point it builds.
        """
        return worst(min, self.margins)


class ChainReport(namedtuple("ChainReport",
                             "name tol points skipped min_margin passed failing_point")):
    """Margins of a chain over a pair grid; pass means no margin below -tol.

    `points` holds a ChainPointRecord per checked pair, `skipped` an
    (x, y, reason) triple per pair that could not be checked, and
    `failing_point` the (x, y) of a failing minimum margin, else None.
    """

    __slots__ = ()


def _hh_lower(n: MeanDescriptor, lo: float, hi: float) -> float:
    """H(A, N) at an ordered pair with lo < hi, kept in [lo, hi]."""
    n_value = n.evaluator(lo, hi)
    # left to right, not sum(): from Python 3.12 sum() of floats is compensated
    h = 2.0 / (1.0 / (0.5 * (lo + hi)) + 1.0 / n_value)
    # near a tie it rounds an ulp or two outside [lo, hi]; a NaN passes, for means.worst
    return lo if h < lo else hi if h > hi else h


def _hh_refined(n: MeanDescriptor, lo: float, hi: float) -> float:
    """H(A, N^{1/2}, N^{1/2}, N) at an ordered pair with lo < hi, kept in [lo, hi]."""
    n_value = n.evaluator(lo, hi)
    n_half = deformed(n.evaluator, 0.5, lo, hi)
    # left to right and kept in [lo, hi], as in _hh_lower
    h = 4.0 / (1.0 / (0.5 * (lo + hi)) + 1.0 / n_half + 1.0 / n_half + 1.0 / n_value)
    return lo if h < lo else hi if h > hi else h


def hh_bounds(mean: str | MeanDescriptor, x: float, y: float) -> tuple[float, float]:
    """The sandwich (H(A, N), N^{1/2}) evaluated at a pair.

    Whether these really bound the represented mean from below/above (or
    the reverse) depends on the shape of n(u)/u; this just evaluates both
    sides.  For equal arguments both bounds collapse to x.
    """
    desc = type(mean) is str and CATALOG.get(mean) or get_mean(mean)  # as in eval_mean
    e, lo, hi = check_pair(x, y)
    # no evaluation at a tie
    lower, upper = ((lo, lo) if lo == hi
                    else (_hh_lower(desc, lo, hi), deformed(desc.evaluator, 0.5, lo, hi)))
    return (ldexp(lower, e), ldexp(upper, e)) if e else (lower, upper)


def hh_refined_lower(mean: str | MeanDescriptor, x: float, y: float) -> float:
    """The sharper lower bound H(A, N^{1/2}, N^{1/2}, N) at a pair."""
    desc = type(mean) is str and CATALOG.get(mean) or get_mean(mean)
    e, lo, hi = check_pair(x, y)
    lower = lo if lo == hi else _hh_refined(desc, lo, hi)
    return ldexp(lower, e) if e else lower


def envelope_lemma(kind: str, u: float) -> tuple[float, float]:
    """Closed-form (lower, upper) envelopes for arctan or arsinh on (0, 1).

    arctan:  u (2+u^2)/(2+2u^2) < arctan u < 4u/(4+u^2)
    arsinh:  u/2 + u/(2 sqrt(u^2+1)) <= arsinh u <= 2u/sqrt(u^2+4)
    """
    fu = check_unit(u, "u")
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


def default_pair_grid(count: int = 100, z_min: float = 1e-4,
                      z_max: float = 0.999) -> list[tuple[float, float]]:
    """Pairs with log-spaced half-spreads at x + y = 2, plus 10 rescaled extras.

    Homogeneity makes z the only true degree of freedom; the rescalings
    (log-uniform z in [z_min, z_max] and scale in [1e-3, 1e3], from fixed
    draws) exercise exactly that.
    """
    pairs = default_pairs(count, z_min, z_max)
    for rz, rs in _RESCALING_DRAWS:
        z = _log_uniform(z_min, z_max, rz)
        scale = _log_uniform(1e-3, 1e3, rs)
        pairs.append((scale * (1.0 - z), scale * (1.0 + z)))
    return pairs


def run_chain_suite(spec: ChainSpec,
                    pairs: list[tuple[float, float]] | None = None,
                    tol: float = CHAIN_TOL) -> ChainReport:
    """Evaluate every chain term on a pair grid and report margins.

    Each pair is checked and decided once; at a tie every term is lo, and values
    and margins are taken at the decided pair, as a call of a mean does.  An invalid
    pair or a term failure at a point records the point as skipped and flags
    it in the report instead of aborting the whole run.  A NaN margin counts
    as the worst: it makes the minimum margin NaN and fails the chain.
    """
    if pairs is None:
        pairs = default_pair_grid()
    evaluators = [term.evaluator for _, term in spec.terms]
    records = []
    skipped = []
    min_margin = math.inf
    failing = None
    for x, y in pairs:
        try:
            e, lo, hi = check_pair(x, y)
            values = (tuple([evaluate(lo, hi) for evaluate in evaluators]) if lo < hi
                      else (lo,) * len(evaluators))
            a = 0.5 * (lo + hi)
            margins = tuple([(upper - lower) / a for lower, upper in pairwise(values)])
            if e:
                values = tuple([ldexp(value, e) for value in values])
        except Exception as exc:  # noqa: BLE001 - recorded, point skipped
            skipped.append((x, y, f"{type(exc).__name__}: {exc}"))
            continue
        # tuple.__new__ skips the Python frame of the namedtuple's __new__
        records.append(tuple.__new__(ChainPointRecord,
                                     (x, y, half_spread(lo, hi), values, margins)))
        # means.worst(min, margins) written out, one Python frame less per point
        worst = math.nan if any(map(math.isnan, margins)) else min(margins)
        # a NaN replaces any number and is never replaced
        if not worst >= min_margin and min_margin == min_margin:
            min_margin = worst
            if not worst >= -tol:
                failing = (x, y)
    passed = failing is None and not skipped
    return ChainReport(spec.name, tol, tuple(records), tuple(skipped),
                       min_margin, passed, failing)


# --------------------------------------------------------------------------
# Built-in chains.
# --------------------------------------------------------------------------

def _hh_term(label: str, bound: Callable, n: MeanDescriptor) -> Term:
    return label, MeanDescriptor(label, label, partial(bound, n))


def _chain(entry: PairCatalogEntry) -> ChainSpec:
    """A catalog pair's Hermite-Hadamard chain; its bounds are derived means, like N^{1/2}."""
    n = get_mean(entry.representer)
    half = f"{n.id}^{{1/2}}"
    lower = _hh_term(f"H(A,{n.id})", _hh_lower, n)
    upper = half, deform_mean(n, 0.5)
    mean = entry.represented, get_mean(entry.represented)
    if entry.form == "reversed":
        return ChainSpec(entry.chain, (upper, mean, lower))
    refined = ((_hh_term(f"H(A,{half},{half},{n.id})", _hh_refined, n),)
               if entry.form == "refined" else ())
    return ChainSpec(entry.chain, (lower, *refined, mean, upper))


_CHAINS = {e.chain: _chain(e) for e in PAIR_CATALOG}

CHAIN_NAMES: tuple[str, ...] = tuple(_CHAINS)


def builtin_chain(name: str) -> ChainSpec:
    """Look up one of the built-in chain specifications by name."""
    try:
        return _CHAINS[name]
    except KeyError:
        raise DomainError(
            f"unknown chain {name!r}; available: {', '.join(CHAIN_NAMES)}") from None
