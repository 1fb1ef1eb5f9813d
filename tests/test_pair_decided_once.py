"""Each pair is tie-tested once, then catalog evaluators are called directly.

`hh_bounds`, `hh_refined_lower`, `run_chain_suite` and the function of
`seiffert_of_mean` decide a tie once and then call
`MeanDescriptor.evaluator` instead of `ordered`.  The reference copies below
are the earlier forms, which evaluated through `ordered` and summed
reciprocals with a loop; the library must give the same bits, and the same
exception with the same message, on every pair.
"""

import math
import random
from collections import namedtuple
from functools import partial

import pytest

from meanlab import (
    CATALOG,
    CHAIN_NAMES,
    MEAN_IDS,
    PAIR_CATALOG,
    ChainSpec,
    MeanDescriptor,
    builtin_chain,
    hh_bounds,
    hh_refined_lower,
    run_chain_suite,
    seiffert_of_mean,
)
from meanlab import inequalities
from meanlab._pairs import check_pair, half_spread, pulled_pair
from meanlab.errors import MeanLabError
from meanlab.inequalities import CHAIN_TOL, ChainPointRecord, ChainReport
from meanlab.means import get_mean

REPRESENTERS = [e.representer for e in PAIR_CATALOG]


# --------------------------------------------------------------------------
# Reference copies of the earlier forms.
# --------------------------------------------------------------------------

def reference_harmonic_of(*values):
    total = 0.0
    for v in values:
        total += 1.0 / v
    return len(values) / total


def reference_hh_lower(n, lo, hi):
    n_value = n.ordered(lo, hi)
    return n_value if lo == hi else reference_harmonic_of(0.5 * (lo + hi), n_value)


def reference_hh_refined(n, lo, hi):
    n_value = n.ordered(lo, hi)
    if lo == hi:
        return n_value
    n_half = n.ordered(*pulled_pair(lo, hi, 0.5))
    return reference_harmonic_of(0.5 * (lo + hi), n_half, n_half, n_value)


def reference_hh_bounds(mean, x, y):
    desc = get_mean(mean)
    lo, hi = check_pair(x, y)
    lower = reference_hh_lower(desc, lo, hi)
    return lower, (lower if lo == hi else desc.ordered(*pulled_pair(lo, hi, 0.5)))


def reference_hh_refined_lower(mean, x, y):
    return reference_hh_refined(get_mean(mean), *check_pair(x, y))


def reference_seiffert_func(mean):
    ordered = get_mean(mean).ordered

    def func(z):
        return z / ordered(1.0 - z, 1.0 + z)

    return func


def reference_run_chain_suite(spec, pairs, tol=CHAIN_TOL):
    evaluators = [term.ordered for _, term in spec.terms]
    records = []
    skipped = []
    min_margin = math.inf
    failing = None
    for x, y in pairs:
        try:
            lo, hi = check_pair(x, y)
            values = tuple([ordered(lo, hi) for ordered in evaluators])
        except Exception as exc:  # noqa: BLE001 - recorded, point skipped
            skipped.append((x, y, f"{type(exc).__name__}: {exc}"))
            continue
        a = 0.5 * (lo + hi)
        margins = tuple([(upper - lower) / a for lower, upper in zip(values, values[1:])])
        record = ChainPointRecord(x, y, half_spread(lo, hi), values, margins)
        records.append(record)
        worst = record.worst_margin
        if not worst >= min_margin and min_margin == min_margin:
            min_margin = worst
            if not worst >= -tol:
                failing = (x, y)
    passed = failing is None and not skipped
    return ChainReport(spec.name, tol, tuple(records), tuple(skipped),
                       min_margin, passed, failing)


_REFERENCE_BOUNDS = {inequalities._hh_lower: reference_hh_lower,
                     inequalities._hh_refined: reference_hh_refined}


def reference_chain(spec):
    """The chain with its H(A, ...) terms evaluated by the reference bounds."""
    terms = []
    for label, term in spec.terms:
        bound = getattr(term.evaluator, "func", None)
        if bound in _REFERENCE_BOUNDS:
            evaluator = partial(_REFERENCE_BOUNDS[bound], *term.evaluator.args)
            term = MeanDescriptor(term.id, term.display, evaluator)
        terms.append((label, term))
    return ChainSpec(spec.name, tuple(terms))


# --------------------------------------------------------------------------
# Seeded inputs and comparison helpers.
# --------------------------------------------------------------------------

def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def seeded_pairs(seed, count):
    """(s (1-z), s (1+z)) as the `pairs` benchmark draws them: every tenth
    scale from all positive doubles, the others from [1e-6, 1e6]."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        z = _log_uniform(rng, 1e-12, 1.0 - 1e-12)
        if len(pairs) % 10 == 9:
            scale = 2.0 ** rng.uniform(-1074.0, 1024.0)
        else:
            scale = _log_uniform(rng, 1e-6, 1e6)
        x, y = scale * (1.0 - z), scale * (1.0 + z)
        if x > 0.0 and math.isfinite(y):
            pairs.append((x, y))
    return pairs


#: Pairs that raise, ties, and a pulled pair that ties, on top of the draws.
EDGE_PAIRS = [
    (1e-300, 1e-200), (1e308, 1.7e308), (5e-324, 1e-323), (1e-320, 1e-310),
    (1e200, 1e300), (1.0, 1e308), (2.0, 2.0), (5e-324, 5e-324), (1e308, 1e308),
    (1.0, math.nextafter(1.0, 2.0)), (3.0, 1.0),
]

PAIRS = seeded_pairs(17, 2000) + EDGE_PAIRS


Raised = namedtuple("Raised", "kind message")


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (MeanLabError, ArithmeticError) as exc:
        return Raised(type(exc), str(exc))


def bits(value):
    """A value with every float replaced by its .hex(), which also tells NaNs apart
    from numbers; tuples (records included) are compared field by field."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return value


class TestSameBitsAsReference:
    # every catalog mean, not only the eight representers, so that AGM's
    # NonConvergenceError is compared too
    @pytest.mark.parametrize("rep", MEAN_IDS)
    def test_hh_bounds_and_refined_lower(self, rep):
        raised = set()
        for x, y in PAIRS:
            for library, reference in ((hh_bounds, reference_hh_bounds),
                                       (hh_refined_lower, reference_hh_refined_lower)):
                expected = outcome(reference, rep, x, y)
                assert bits(outcome(library, rep, x, y)) == bits(expected), (
                    library.__name__, x, y)
                if isinstance(expected, Raised):
                    raised.add(expected.kind)
        assert raised, "the edge pairs raise for every mean"

    def test_every_exception_kind_is_compared(self):
        results = [outcome(fn, rep, x, y) for rep in MEAN_IDS for x, y in EDGE_PAIRS
                   for fn in (reference_hh_bounds, reference_hh_refined_lower)]
        raised = {r.kind.__name__ for r in results if isinstance(r, Raised)}
        assert {"DomainError", "ZeroDivisionError", "NonConvergenceError"} <= raised

    @pytest.mark.parametrize("name", CHAIN_NAMES)
    def test_chain_reports(self, name):
        spec = builtin_chain(name)
        reference = reference_chain(spec)
        replaced = sum(a is not b for (_, a), (_, b) in zip(spec.terms, reference.terms))
        assert replaced >= 1
        self.assert_same_report(spec, reference)

    def test_chain_of_every_catalog_mean(self):
        spec = ChainSpec("catalog", tuple((m, CATALOG[m]) for m in MEAN_IDS))
        report = self.assert_same_report(spec, spec)
        assert any(reason.startswith("NonConvergenceError") for *_, reason in report.skipped)

    @staticmethod
    def assert_same_report(spec, reference):
        expected = reference_run_chain_suite(reference, PAIRS)
        report = run_chain_suite(spec, PAIRS)
        assert len(report.points) == len(expected.points)
        for got, want in zip(report.points, expected.points):
            assert bits(got) == bits(want), (got.x, got.y)
        assert bits(report) == bits(expected)
        return report

    @pytest.mark.parametrize("mean_id", MEAN_IDS)
    def test_seiffert_functions(self, mean_id):
        rng = random.Random(29)
        zs = [_log_uniform(rng, 1e-12, 1.0 - 1e-12) for _ in range(1000)]
        zs += [rng.random() or 0.5 for _ in range(1000)]
        f = seiffert_of_mean(mean_id)
        reference = reference_seiffert_func(mean_id)
        for z in zs:
            assert bits(outcome(f, z)) == bits(outcome(reference, z)), z


class TestTiePaths:
    @pytest.mark.parametrize("mean_id", MEAN_IDS)
    def test_seiffert_function_is_z_where_the_pair_ties(self, mean_id):
        f = seiffert_of_mean(mean_id)
        for z in (5e-324, 2.0 ** -54, 1e-17):
            assert 1.0 - z == 1.0 + z
            assert f(z) == z
            assert f.func(z) == z

    @pytest.mark.parametrize("rep", REPRESENTERS)
    def test_hh_bounds_collapse_to_x(self, rep):
        for x in (5e-324, 1.0, 1e308):
            assert hh_bounds(rep, x, x) == (x, x)
            assert hh_refined_lower(rep, x, x) == x

    @pytest.mark.parametrize("name", CHAIN_NAMES)
    def test_chain_at_equal_arguments(self, name):
        xs = (5e-324, 1.0, 1e308)
        report = run_chain_suite(builtin_chain(name), [(x, x) for x in xs])
        assert report.passed and report.skipped == ()
        assert report.min_margin == 0.0
        for x, point in zip(xs, report.points):
            assert point.values == (x,) * len(report.points[0].values)
            assert all(m == 0.0 for m in point.margins)
            assert point.z == 0.0

    def test_ties_call_no_evaluator(self):
        def refuse(lo, hi):
            raise AssertionError(f"evaluated at a tie ({lo!r}, {hi!r})")

        term = MeanDescriptor("X", "", refuse)
        spec = ChainSpec("ties", (("X", term), ("A", CATALOG["A"])))
        report = run_chain_suite(spec, [(2.0, 2.0)])
        assert report.points[0].values == (2.0, 2.0)
        assert seiffert_of_mean(term)(1e-17) == 1e-17
