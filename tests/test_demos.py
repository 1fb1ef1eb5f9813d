"""Every demo script runs to completion against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("agm_elliptic", "harmonic_representation", "inequality_chains",
         "mean_correspondence")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                            capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout
