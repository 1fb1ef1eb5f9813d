"""The package's export surface: every public name resolves lazily to its home."""

import importlib
import subprocess
import sys

import pytest

import meanlab
from meanlab import reporting


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
