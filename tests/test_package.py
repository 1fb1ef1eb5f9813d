"""The package's export surface: every public name resolves lazily to its home;
and the contract of its value types: immutable, compared by value."""

import copy
import importlib
import pickle
import subprocess
import sys

import pytest

import meanlab
from meanlab import reporting
from meanlab.calculus import GridSpec, probe_shape
from meanlab.errors import DomainError
from meanlab.harmonic import (PAIR_CATALOG, check_representable, log_envelope_check,
                              verify_identity)
from meanlab.inequalities import ChainSpec, builtin_chain, run_chain_suite
from meanlab.means import MeanDescriptor, get_mean, seiffert_of_mean


def home_value(name):
    module, attr = meanlab._HOMES[name]
    return getattr(importlib.import_module(f"meanlab.{module}"), attr)


@pytest.mark.parametrize("name", meanlab.__all__)
def test_every_export_is_its_home_object(name):
    assert getattr(meanlab, name) is home_value(name)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from meanlab import *", namespace)
    for name in meanlab.__all__:
        assert namespace[name] is home_value(name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        meanlab.no_such_name
    assert not hasattr(meanlab, "no_such_name")


def test_version_is_the_report_tool_version():
    assert meanlab.__version__ == reporting.TOOL_VERSION


def test_dir_lists_every_export():
    assert set(meanlab.__all__) <= set(dir(meanlab))


def test_import_loads_no_submodule_until_a_name_is_used():
    code = ("import sys, meanlab\n"
            "before = sorted(m for m in sys.modules if m.startswith('meanlab.'))\n"
            "meanlab.eval_mean\n"
            "after = sorted(m for m in sys.modules if m.startswith('meanlab.'))\n"
            "print(before, 'meanlab.means' in after, 'meanlab.harmonic' in after)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[] True False"


def value_instances():
    """One instance of each of the 15 value types, as the library builds them."""
    identity = verify_identity("P", "G", [(1.0, 3.0)])
    envelope = log_envelope_check("A", [(1.0, 3.0)])
    chain = builtin_chain("hh-P-G")
    chain_report = run_chain_suite(chain, [(1.0, 3.0)])
    record = reporting.CheckRecord("c", "n", True)
    grid = GridSpec(0.1, 0.9, 3)
    return [get_mean("P"), seiffert_of_mean("P"), grid, chain,
            probe_shape(abs, grid), check_representable(seiffert_of_mean("A"), grid),
            PAIR_CATALOG[0], identity, identity.points[0], envelope, envelope.points[0],
            chain_report, chain_report.points[0], record, reporting.build_report([record])]


def fields_of(value):
    return getattr(value, "_fields", None) or value.__slots__


VALUES = value_instances()


def test_fifteen_value_types():
    assert len({type(v) for v in VALUES}) == 15


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_types_refuse_assignment(value):
    for name in (*fields_of(value), "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in fields_of(value):
        with pytest.raises(AttributeError):
            delattr(value, name)


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_types_compare_by_value(value):
    twin = copy.copy(value)
    assert twin == value and twin is not value
    assert [getattr(twin, n) for n in fields_of(twin)] == [getattr(value, n) for n in fields_of(value)]


def test_equal_fields_compare_equal():
    record = reporting.CheckRecord(check="c", name="n", passed=True, margin=0.5)
    assert record == reporting.CheckRecord("c", "n", True, None, None, None, 0.5, "")
    assert record != record._replace(margin=0.25)
    assert verify_identity("L", "H", [(1.0, 3.0)]) == verify_identity("L", "H", [(1.0, 3.0)])
    assert GridSpec(0.1, 0.9, 3) == GridSpec(0.1, 0.9, 3) != GridSpec(0.1, 0.9, 4)
    assert hash(GridSpec(0.1, 0.9, 3)) == hash(GridSpec(0.1, 0.9, 3))
    assert pickle.loads(pickle.dumps(GridSpec(0.1, 0.9, 3, "log"))) == GridSpec(0.1, 0.9, 3, "log")


def test_repr_hides_callables():
    assert repr(get_mean("P")) == ("MeanDescriptor(id='P', display='first Seiffert mean', "
                                   "note='|x-y|/(2 arcsin z)', shape='convex')")
    assert repr(seiffert_of_mean("P")) == "SeiffertFunction(name='f[P]')"
    assert repr(GridSpec(0.1, 0.9)) == (
        "GridSpec(start=0.1, end=0.9, count=101, spacing='uniform')")


def test_mean_descriptor_is_not_a_tuple_and_can_be_rebound_from_outside():
    desc = MeanDescriptor("X", "x", lambda lo, hi: hi)
    assert not isinstance(desc, tuple)
    object.__setattr__(desc, "evaluator", lambda lo, hi: lo)
    assert desc(1.0, 3.0) == 1.0


@pytest.mark.parametrize("args, message", [
    ((0.5, 0.5), "grid start must be below grid end"),
    ((0.1, 0.9, 1), "grid needs at least 2 points"),
    ((0.1, 0.9, 5, "cubic"), "unknown spacing 'cubic'"),
    ((0.0, 0.9, 5, "log"), "log spacing needs a positive start"),
])
def test_grid_spec_validation(args, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        GridSpec(*args)


@pytest.mark.parametrize("terms, message", [
    ((("A", get_mean("A")),), "a chain needs at least two terms"),
    ((("A", get_mean("A")), ("g", max)), "chain term 'g' is not a MeanDescriptor"),
])
def test_chain_spec_validation(terms, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        ChainSpec("c", terms)
