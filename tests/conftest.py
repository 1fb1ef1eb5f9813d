import importlib
import os
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

# pytest puts src/ on sys.path (pyproject's `pythonpath`); the CLI and demo
# subprocesses need it on PYTHONPATH to import the same checkout.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
# the golden outputs and their inputs: `import goldens`
sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))


@pytest.fixture(scope="session")
def z_grid():
    """Probe abscissas strictly inside (0, 1), z = 0.01 .. 0.99."""
    return [round(0.01 * k, 2) for k in range(1, 100)]


@pytest.fixture(scope="session")
def pair_grid_50():
    """50 pairs at x + y = 2 with log-spaced half-spreads."""
    return [(1.0 - float(z), 1.0 + float(z)) for z in np.geomspace(1e-4, 0.99, 50)]


@pytest.fixture
def check_pair_calls(monkeypatch):
    """A list that gets one entry per `check_pair` call, from any meanlab module.

    Every submodule is imported first: `import meanlab` loads them lazily, and
    one first imported while the patch is on would keep this test's counter,
    so its calls would escape the counts of later tests.
    """
    import meanlab
    from meanlab import _pairs

    for info in pkgutil.iter_modules(meanlab.__path__):
        if info.name != "__main__":  # importing it would run the CLI
            importlib.import_module(f"meanlab.{info.name}")
    calls = []
    original = _pairs.check_pair

    def counted(x, y):
        calls.append((x, y))
        return original(x, y)

    for name, module in list(sys.modules.items()):
        if name.startswith("meanlab") and getattr(module, "check_pair", None) is original:
            monkeypatch.setattr(module, "check_pair", counted)
    return calls
