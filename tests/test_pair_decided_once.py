"""Each pair is decided once, a far-out pair is evaluated at unit scale, and
every value is the recorded one.

Only `_pairs.check_pair` and `_pairs.pulled_pair` decide a pair: they order it
and return (e, lo/2^e, hi/2^e), e = 0 inside [2^-500, 2^500] and an even power
outside it.  A call of a mean, each `run_chain_suite` point, `hh_bounds`,
`hh_refined_lower` and a deformed mean then test the decided pair for a tie,
hand it to a catalog evaluator and multiply the value by 2^e; `agm` and
`v_mean` are the AGM and V catalog rows.  The tests here assert that
behaviour: no other module binds the window, a tie calls no evaluator, a bad
id raises as it did, an exception or a planted NaN reaches the caller or fails
its chain point, a pair outside the window gets the value at the pair divided
by an even power of two, multiplied back, and N^{1/2} is one function wherever
it is taken.

The values themselves are checked against tests/golden/digests.txt, one
SHA-256 line per (function, mean) over the `.hex()` bits of every output, or
the type and message of what it raised, on the inputs of
tests/golden/goldens.py: the 2,011 seeded and edge pairs, near ties, pairs
whose exponents lie more than 1024 apart, invalid pairs, bad ids and a
deformed mean.  A change that moves them on purpose runs
`python tests/golden/regen.py`, and its diff names every moved line.
"""

import importlib
import math
import pkgutil

import pytest

import goldens
import meanlab
from goldens import (
    BAD_IDS,
    CATALOG_CHAIN,
    DEFORMED,
    FAR_APART,
    FAR_PAIRS,
    INVALID_PAIRS,
    NAN_PAIR,
    NEAR_TIES,
    PAIRS,
    PLANTED_GRID,
    RAISE_PAIR,
    Raised,
    bits,
    ident,
    outcome,
    planted_chain,
)
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
from meanlab import _pairs, elliptic
from meanlab.errors import NonConvergenceError
from meanlab.inequalities import ChainPointRecord

REPRESENTERS = [e.representer for e in PAIR_CATALOG]

RECORDED = goldens.read_digests()


def assert_recorded(*keys):
    """Each digest line, computed now, is the recorded one."""
    for key in keys:
        goldens.check_same(key, RECORDED[key], goldens.digest(key))


def unit_scale(x, y):
    """(e, x / 2^e, y / 2^e) with e the even integer nearest the mean of the
    binary exponents of x and y, a tie rounded up."""
    e = 2 * math.floor((math.frexp(x)[1] + math.frexp(y)[1]) / 4 + 0.5)
    scaled = math.ldexp(x, -e), math.ldexp(y, -e)
    assert [math.ldexp(v, e) for v in scaled] == [x, y], "an exact rescale"
    return e, *scaled


class TestSameBitsAsReference:
    """The recorded digests are the reference."""

    # every catalog mean, not only the eight representers
    @pytest.mark.parametrize("rep", MEAN_IDS)
    def test_hh_bounds_and_refined_lower(self, rep):
        assert_recorded(f"hh_bounds {rep}", f"hh_refined_lower {rep}")
        kinds = {outcome(fn, rep, x, y).kind
                 for fn in (hh_bounds, hh_refined_lower) for x, y in INVALID_PAIRS}
        assert kinds == {"DomainError"}

    def test_every_exception_kind_is_compared(self):
        # a planted mean raises what the catalog rows raised at far-out pairs
        # before those were rescaled; the invalid pairs raise DomainError.  The
        # bounds pass each on, and a digest records its type and message.
        def planted(lo, hi):
            if lo == 2.0:
                raise ZeroDivisionError("float division by zero")
            if lo == 3.0:
                raise NonConvergenceError("AGM not converged after 64 steps")
            return CATALOG["G"].evaluator(lo, hi)

        mean = MeanDescriptor("X", "", planted)
        for fn in (hh_bounds, hh_refined_lower):
            assert outcome(fn, mean, 2.0, 5.0) == Raised("ZeroDivisionError",
                                                         "float division by zero")
            assert outcome(fn, mean, 3.0, 5.0) == Raised("NonConvergenceError",
                                                         "AGM not converged after 64 steps")
            assert outcome(fn, mean, 0.0, 1.0) == Raised(
                "DomainError", "arguments must be positive, got (0.0, 1.0)")
            assert not isinstance(outcome(fn, mean, 1.0, 1.5), Raised)

    @pytest.mark.parametrize("name", CHAIN_NAMES)
    def test_chain_reports(self, name):
        assert_recorded(f"run_chain_suite {name}")

    def test_chain_of_every_catalog_mean(self):
        assert_recorded("run_chain_suite catalog")
        assert run_chain_suite(CATALOG_CHAIN, PAIRS).skipped == ()

    @pytest.mark.parametrize("mean_id", MEAN_IDS)
    def test_seiffert_functions(self, mean_id):
        assert_recorded(f"seiffert_of_mean {mean_id}")


def as_tuple(value):
    return value if isinstance(value, tuple) else (value,)


class TestFarPairs:
    """The pairs outside the window: homogeneity, value(x, y) equal to 2^e times
    value(x/2^e, y/2^e) for the even e of `unit_scale`, bit for bit."""

    SCALED = [unit_scale(x, y) for x, y in FAR_PAIRS]

    def test_far_pairs_are_drawn(self):
        assert len(FAR_PAIRS) > 100
        assert {(1e-300, 1e-200), (1e308, 1.7e308), (1.0, 1e308)} <= set(FAR_PAIRS)

    def test_decided_pair_scales_back_exactly(self):
        for (x, y), (e, sx, sy) in zip(FAR_PAIRS, self.SCALED):
            decided = _pairs.check_pair(x, y)
            assert decided == (e, *sorted((sx, sy))), (x, y)
            _, lo, hi = decided
            assert (math.ldexp(lo, e), math.ldexp(hi, e)) == tuple(sorted((x, y)))

    def assert_homogeneous(self, fn, *head):
        for (x, y), (e, sx, sy) in zip(FAR_PAIRS, self.SCALED):
            values, scaled = as_tuple(fn(*head, x, y)), as_tuple(fn(*head, sx, sy))
            assert bits(values) == bits(tuple(math.ldexp(v, e) for v in scaled)), (x, y)
            assert all(min(x, y) <= v <= max(x, y) for v in values), (x, y)

    @pytest.mark.parametrize("mean", [*MEAN_IDS, DEFORMED], ids=repr)
    def test_eval_mean(self, mean):
        self.assert_homogeneous(eval_mean, mean)

    @pytest.mark.parametrize("name", ["agm", "v_mean"])
    def test_elliptic_rows(self, name):
        self.assert_homogeneous(getattr(meanlab, name))

    @pytest.mark.parametrize("rep", MEAN_IDS)
    def test_hh_bounds_and_refined_lower(self, rep):
        self.assert_homogeneous(hh_bounds, rep)
        self.assert_homogeneous(hh_refined_lower, rep)

    @pytest.mark.parametrize("spec", [builtin_chain(name) for name in CHAIN_NAMES]
                             + [CATALOG_CHAIN], ids=lambda spec: spec.name)
    def test_chain_reports(self, spec):
        report = run_chain_suite(spec, FAR_PAIRS)
        assert report.skipped == () and report.passed == (spec is not CATALOG_CHAIN)
        scaled = run_chain_suite(spec, [(sx, sy) for _, sx, sy in self.SCALED])
        assert bits(report.min_margin) == bits(scaled.min_margin)
        for got, want, (e, *_), (x, y) in zip(report.points, scaled.points, self.SCALED,
                                              FAR_PAIRS):
            assert (got.x, got.y) == (x, y)
            assert bits((got.z, got.margins)) == bits((want.z, want.margins)), (x, y)
            assert bits(got.values) == bits(tuple(math.ldexp(v, e) for v in want.values))


class TestDecidedInPairs:
    """`_pairs` alone decides a pair, and so N^{1/2} is one function wherever it
    is taken."""

    def test_no_other_module_binds_the_window(self):
        for info in pkgutil.iter_modules(meanlab.__path__):
            if info.name in ("_pairs", "__main__"):  # importing __main__ would run the CLI
                continue
            names = vars(importlib.import_module(f"meanlab.{info.name}"))
            assert not {"unit_scale", "WINDOW_LO", "WINDOW_HI"} & set(names), info.name

    @pytest.mark.parametrize("entry", PAIR_CATALOG, ids=lambda e: e.chain)
    def test_one_half_deformation(self, entry):
        n = entry.representer
        half = deform_mean(n, 0.5)
        spec = builtin_chain(entry.chain)
        column = [label for label, _ in spec.terms].index(f"{n}^{{1/2}}")
        for pairs in (PAIRS, NEAR_TIES, FAR_PAIRS, FAR_APART):
            report = run_chain_suite(spec, pairs)
            assert report.skipped == ()
            for (x, y), point in zip(pairs, report.points):
                want = bits(half(x, y))
                assert bits(point.values[column]) == want, (x, y)
                assert bits(hh_bounds(n, x, y)[1]) == want, (x, y)

    def test_sandwich_of_c_holds_far_apart(self):
        report = run_chain_suite(builtin_chain("hh-T-C"), FAR_APART)
        assert report.passed and report.min_margin > 0.0


class TestIdLookup:
    """eval_mean, hh_bounds and hh_refined_lower resolve an id as get_mean does."""

    MEANS = [*MEAN_IDS, DEFORMED, *BAD_IDS]

    @pytest.mark.parametrize("mean", MEANS, ids=repr)
    def test_eval_mean(self, mean):
        assert_recorded(f"eval_mean {ident(mean)}")

    @pytest.mark.parametrize("mean", [DEFORMED, *BAD_IDS], ids=repr)
    def test_hh_bounds_and_refined_lower(self, mean):
        assert_recorded(f"hh_bounds {ident(mean)}", f"hh_refined_lower {ident(mean)}")

    def test_bad_ids_raise_as_before(self):
        kinds = [outcome(eval_mean, mean, 1.0, 3.0) for mean in BAD_IDS]
        assert [k.kind for k in kinds] == ["UnknownMeanError"] * 3 + ["TypeError"]
        assert kinds[-1].message == "unhashable type: 'list'"


class TestPlantedChainPoints:
    """A chain point with a NaN margin, a term that raises, invalid pairs and
    ties in one grid."""

    def test_same_report_as_reference(self):
        assert_recorded("run_chain_suite planted")
        report = run_chain_suite(planted_chain(), PLANTED_GRID)
        assert math.isnan(report.min_margin) and not report.passed
        assert report.failing_point == NAN_PAIR
        reasons = {(x, y): reason for x, y, reason in report.skipped}
        assert reasons[RAISE_PAIR] == "ZeroDivisionError: planted"
        assert set(INVALID_PAIRS) <= reasons.keys()
        (nan_point,) = [p for p in report.points if (p.x, p.y) == NAN_PAIR]
        assert not math.isnan(nan_point.margins[0]) and math.isnan(nan_point.margins[1])
        assert math.isnan(nan_point.worst_margin)

    def test_points_are_chain_point_records(self):
        report = run_chain_suite(planted_chain(CATALOG["C"].evaluator), PLANTED_GRID)
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

    @pytest.mark.parametrize("name", ["agm", "v_mean"])
    def test_same_bits_as_reference(self, name):
        row = getattr(meanlab, name)
        assert_recorded(f"{name} {row.id}")
        kinds = {r.kind for r in (outcome(row, x, y) for x, y in self.ROW_PAIRS)
                 if isinstance(r, Raised)}
        assert kinds == {"DomainError"}


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
