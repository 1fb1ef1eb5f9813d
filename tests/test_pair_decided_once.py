"""Each pair is tie-tested once, then catalog evaluators are called directly.

`hh_bounds`, `hh_refined_lower`, `run_chain_suite` and the function of
`seiffert_of_mean` decide a tie once and then call
`MeanDescriptor.evaluator` instead of `ordered`; `agm` and `v_mean` are the
AGM and V catalog rows, not functions with a pair check of their own.
`eval_mean`, `hh_bounds` and `hh_refined_lower` resolve a catalog id with one
dictionary lookup, and `run_chain_suite` builds its point records and worst
margins inline.  The reference copies below are the earlier forms, which
evaluated through `ordered` and `MeanDescriptor.__call__`, summed
reciprocals with a loop, and read `ChainPointRecord.worst_margin`, and the
earlier `agm` and `v_mean`; the library must give the same bits, and the
same exception with the same message, on every pair that it evaluates as
given: a tie, or both arguments in [2^-500, 2^500].  Every other pair is
evaluated at unit scale, so there the library must give the reference's bits
at the pair divided by an even power of two, multiplied back.
"""

import math
import random
from collections import namedtuple
from functools import partial

import pytest

import meanlab
from meanlab import (
    CATALOG,
    CHAIN_NAMES,
    MEAN_IDS,
    PAIR_CATALOG,
    ChainSpec,
    MeanDescriptor,
    builtin_chain,
    deform_mean,
    eval_mean,
    hh_bounds,
    hh_refined_lower,
    run_chain_suite,
    seiffert_of_mean,
)
from meanlab import elliptic, inequalities
from meanlab._pairs import check_pair, half_spread, pulled_pair
from meanlab.errors import MeanLabError, NonConvergenceError
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


def reference_eval_mean(mean, x, y):
    return get_mean(mean)(x, y)


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


def reference_agm(x, y):
    lo, hi = check_pair(x, y)
    return lo if lo == hi else elliptic._agm(lo, hi)


def reference_v_mean(x, y):
    lo, hi = check_pair(x, y)
    return lo if lo == hi else reference_v_evaluator(lo, hi)


def reference_v_evaluator(lo, hi):
    z = half_spread(lo, hi)
    harmonic = 2.0 * lo * hi / (lo + hi)
    return 0.5 * math.pi * harmonic / elliptic.ellip_e(z)


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


#: Pairs that raised before they were rescaled, ties, and a pulled pair that
#: ties, on top of the draws.
EDGE_PAIRS = [
    (1e-300, 1e-200), (1e308, 1.7e308), (5e-324, 1e-323), (1e-320, 1e-310),
    (1e200, 1e300), (1.0, 1e308), (2.0, 2.0), (5e-324, 5e-324), (1e308, 1e308),
    (1.0, math.nextafter(1.0, 2.0)), (3.0, 1.0),
]

WINDOW = (2.0 ** -500, 2.0 ** 500)


def as_given(x, y):
    """Whether the library evaluates (x, y) as given: a tie, or inside the window."""
    lo, hi = sorted((x, y))
    return lo == hi or WINDOW[0] <= lo and hi <= WINDOW[1]


def unit_scale(x, y):
    """(e, x / 2^e, y / 2^e) with e the even integer nearest the mean of the
    binary exponents of x and y, a tie rounded up."""
    e = 2 * math.floor((math.frexp(x)[1] + math.frexp(y)[1]) / 4 + 0.5)
    scaled = math.ldexp(x, -e), math.ldexp(y, -e)
    assert [math.ldexp(v, e) for v in scaled] == [x, y], "an exact rescale"
    return e, *scaled


ALL_PAIRS = seeded_pairs(17, 2000) + EDGE_PAIRS
#: Compared with the reference copies bit for bit.
PAIRS = [p for p in ALL_PAIRS if as_given(*p)]
#: Compared with the reference copies at unit scale.
FAR_PAIRS = [p for p in ALL_PAIRS if not as_given(*p)]

#: Pairs that fail the pair check.
INVALID_PAIRS = [(0.0, 1.0), (-1.0, 2.0), (math.nan, 1.0), (1.0, math.inf)]

#: Ids that are no catalog id; a list is unhashable, so its lookup raises TypeError.
BAD_IDS = ["nope", None, 3, []]


Raised = namedtuple("Raised", "kind message")


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (MeanLabError, ArithmeticError, TypeError) as exc:
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
    # every catalog mean, not only the eight representers
    @pytest.mark.parametrize("rep", MEAN_IDS)
    def test_hh_bounds_and_refined_lower(self, rep):
        raised = set()
        for x, y in PAIRS + INVALID_PAIRS:
            for library, reference in ((hh_bounds, reference_hh_bounds),
                                       (hh_refined_lower, reference_hh_refined_lower)):
                expected = outcome(reference, rep, x, y)
                assert bits(outcome(library, rep, x, y)) == bits(expected), (
                    library.__name__, x, y)
                if isinstance(expected, Raised):
                    raised.add(expected.kind)
        assert raised, "the invalid pairs raise for every mean"

    def test_every_exception_kind_is_compared(self):
        # a planted mean raises what the catalog rows raised at far-out pairs
        # before those were rescaled; the invalid pairs raise DomainError
        def planted(lo, hi):
            if lo == 2.0:
                raise ZeroDivisionError("float division by zero")
            if lo == 3.0:
                raise NonConvergenceError("AGM not converged after 64 steps")
            return CATALOG["G"].evaluator(lo, hi)

        mean = MeanDescriptor("X", "", planted)
        raised = set()
        for x, y in [(2.0, 5.0), (3.0, 5.0), (1.0, 5.0), *INVALID_PAIRS]:
            for library, reference in ((hh_bounds, reference_hh_bounds),
                                       (hh_refined_lower, reference_hh_refined_lower)):
                expected = outcome(reference, mean, x, y)
                assert bits(outcome(library, mean, x, y)) == bits(expected), (x, y)
                if isinstance(expected, Raised):
                    raised.add(expected.kind.__name__)
        assert raised == {"DomainError", "ZeroDivisionError", "NonConvergenceError"}

    @pytest.mark.parametrize("name", CHAIN_NAMES)
    def test_chain_reports(self, name):
        spec = builtin_chain(name)
        reference = reference_chain(spec)
        replaced = sum(a is not b for (_, a), (_, b) in zip(spec.terms, reference.terms))
        assert replaced >= 1
        self.assert_same_report(spec, reference)

    def test_chain_of_every_catalog_mean(self):
        report = self.assert_same_report(CATALOG_CHAIN, CATALOG_CHAIN)
        assert report.skipped == ()

    @staticmethod
    def assert_same_report(spec, reference, pairs=PAIRS):
        expected = reference_run_chain_suite(reference, pairs)
        report = run_chain_suite(spec, pairs)
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


CATALOG_CHAIN = ChainSpec("catalog", tuple((m, CATALOG[m]) for m in MEAN_IDS))


class TestFarPairs:
    """The pairs outside the window: the reference copies at unit scale."""

    def test_far_pairs_are_drawn(self):
        assert len(FAR_PAIRS) > 100
        assert {(1e-300, 1e-200), (1e308, 1.7e308), (1.0, 1e308)} <= set(FAR_PAIRS)

    @pytest.mark.parametrize("mean", [*MEAN_IDS, deform_mean("P", 0.3)], ids=repr)
    def test_eval_mean(self, mean):
        for x, y in FAR_PAIRS:
            e, sx, sy = unit_scale(x, y)
            value = eval_mean(mean, x, y)
            assert bits(value) == bits(math.ldexp(reference_eval_mean(mean, sx, sy), e))
            assert min(x, y) <= value <= max(x, y), (x, y)

    @pytest.mark.parametrize("name, reference", [("agm", reference_agm),
                                                 ("v_mean", reference_v_mean)])
    def test_elliptic_rows(self, name, reference):
        library = getattr(meanlab, name)
        for x, y in FAR_PAIRS:
            e, sx, sy = unit_scale(x, y)
            assert bits(library(x, y)) == bits(math.ldexp(reference(sx, sy), e)), (x, y)

    @pytest.mark.parametrize("rep", MEAN_IDS)
    def test_hh_bounds_and_refined_lower(self, rep):
        for x, y in FAR_PAIRS:
            e, sx, sy = unit_scale(x, y)
            bounds = hh_bounds(rep, x, y)
            lower = hh_refined_lower(rep, x, y)
            expected = tuple(math.ldexp(v, e) for v in reference_hh_bounds(rep, sx, sy))
            assert bits(bounds) == bits(expected), (x, y)
            assert bits(lower) == bits(
                math.ldexp(reference_hh_refined_lower(rep, sx, sy), e)), (x, y)
            assert all(min(x, y) <= v <= max(x, y) for v in (*bounds, lower)), (x, y)

    @pytest.mark.parametrize("spec", [builtin_chain(name) for name in CHAIN_NAMES]
                             + [CATALOG_CHAIN], ids=lambda spec: spec.name)
    def test_chain_reports(self, spec):
        report = run_chain_suite(spec, FAR_PAIRS)
        assert report.skipped == () and report.passed == (spec is not CATALOG_CHAIN)
        scaled = [unit_scale(x, y) for x, y in FAR_PAIRS]
        expected = reference_run_chain_suite(reference_chain(spec), [p for _, *p in scaled])
        assert bits(report.min_margin) == bits(expected.min_margin)
        for got, want, (e, *_), (x, y) in zip(report.points, expected.points, scaled,
                                              FAR_PAIRS):
            assert (got.x, got.y) == (x, y)
            assert bits((got.z, got.margins)) == bits((want.z, want.margins)), (x, y)
            assert bits(got.values) == bits(tuple(math.ldexp(v, e) for v in want.values))


class TestIdLookup:
    """eval_mean, hh_bounds and hh_refined_lower against the earlier get_mean route."""

    MEANS = [*MEAN_IDS, deform_mean("P", 0.3), *BAD_IDS]

    @pytest.mark.parametrize("mean", MEANS, ids=repr)
    def test_eval_mean(self, mean):
        for x, y in PAIRS + INVALID_PAIRS:
            expected = outcome(reference_eval_mean, mean, x, y)
            assert bits(outcome(eval_mean, mean, x, y)) == bits(expected), (x, y)

    @pytest.mark.parametrize("mean", [deform_mean("P", 0.3), *BAD_IDS], ids=repr)
    def test_hh_bounds_and_refined_lower(self, mean):
        edges = [p for p in EDGE_PAIRS if as_given(*p)]
        for x, y in PAIRS[:200] + edges + INVALID_PAIRS:
            for library, reference in ((hh_bounds, reference_hh_bounds),
                                       (hh_refined_lower, reference_hh_refined_lower)):
                expected = outcome(reference, mean, x, y)
                assert bits(outcome(library, mean, x, y)) == bits(expected), (x, y)

    def test_bad_ids_raise_as_before(self):
        kinds = [outcome(eval_mean, mean, 1.0, 3.0) for mean in BAD_IDS]
        assert [k.kind.__name__ for k in kinds] == ["UnknownMeanError"] * 3 + ["TypeError"]
        assert kinds[-1].message == "unhashable type: 'list'"


class TestPlantedChainPoints:
    """A chain point with a NaN margin, a term that raises, invalid pairs and
    ties in one grid, against the reference loop, which reads worst_margin."""

    NAN_PAIR = PAIRS[7]
    RAISE_PAIR = PAIRS[11]
    GRID = PAIRS[:40] + INVALID_PAIRS + [(2.0, 2.0), (5e-324, 5e-324)]

    @classmethod
    def planted(cls, lo, hi):
        if (lo, hi) == tuple(sorted(cls.NAN_PAIR)):
            return math.nan
        if (lo, hi) == tuple(sorted(cls.RAISE_PAIR)):
            raise ZeroDivisionError("planted")
        return CATALOG["C"].evaluator(lo, hi)

    def spec(self, last):
        # the planted term comes last, so the NaN is not the first margin, which min() keeps
        terms = (("G", CATALOG["G"]), ("A", CATALOG["A"]))
        return ChainSpec("planted", (*terms, ("X", MeanDescriptor("X", "", last))))

    def test_same_report_as_reference(self):
        spec = self.spec(self.planted)
        report = TestSameBitsAsReference.assert_same_report(spec, spec, self.GRID)
        assert math.isnan(report.min_margin) and not report.passed
        assert report.failing_point == self.NAN_PAIR
        reasons = {(x, y): reason for x, y, reason in report.skipped}
        assert reasons[self.RAISE_PAIR] == "ZeroDivisionError: planted"
        assert set(INVALID_PAIRS) <= reasons.keys()
        (nan_point,) = [p for p in report.points if (p.x, p.y) == self.NAN_PAIR]
        assert not math.isnan(nan_point.margins[0]) and math.isnan(nan_point.margins[1])
        assert math.isnan(nan_point.worst_margin)

    def test_points_are_chain_point_records(self):
        report = run_chain_suite(self.spec(CATALOG["C"].evaluator), self.GRID)
        for point in report.points:
            assert type(point) is ChainPointRecord
            assert point == ChainPointRecord(*point)
        assert report.min_margin == min(p.worst_margin for p in report.points)


class TestEllipticMeansAreRows:
    #: ties and pairs that fail the pair check; the AGM loop's own step cap is
    #: tested on `elliptic._agm` in test_elliptic.py
    ROW_PAIRS = PAIRS + [(1.0, 1.0), (0.0, 1.0), (-1.0, 2.0), (math.nan, 1.0)]

    def test_public_names_are_the_rows(self):
        assert meanlab.agm is meanlab.CATALOG["AGM"] is meanlab.means.agm
        assert meanlab.v_mean is meanlab.CATALOG["V"] is meanlab.means.v_mean

    def test_elliptic_takes_no_pair(self):
        names = vars(elliptic)
        assert not {"agm", "v_mean", "_v_mean", "check_pair", "half_spread"} & set(names)

    @pytest.mark.parametrize("name, reference", [("agm", reference_agm),
                                                 ("v_mean", reference_v_mean)])
    def test_same_bits_as_reference(self, name, reference):
        library = getattr(meanlab, name)
        raised = set()
        for x, y in self.ROW_PAIRS:
            expected = outcome(reference, x, y)
            assert bits(outcome(library, x, y)) == bits(expected), (x, y)
            if isinstance(expected, Raised):
                raised.add(expected.kind.__name__)
        assert raised == {"DomainError"}


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
