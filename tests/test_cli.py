"""End-to-end CLI behaviour through real subprocesses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, env=None):
    return subprocess.run([sys.executable, "-m", "meanlab", *args],
                          capture_output=True, text=True, env=env)


class TestEval:
    def test_first_seiffert(self):
        result = run_cli("eval", "--mean", "P", "1", "3")
        assert result.returncode == 0
        assert result.stdout.strip() == "1.90985931710274"

    def test_nonpositive_arguments(self):
        result = run_cli("eval", "--mean", "A", "0", "3")
        assert result.returncode == 2
        assert "arguments must be positive" in result.stderr
        assert result.stdout == ""

    def test_unknown_mean(self):
        result = run_cli("eval", "--mean", "Q17", "1", "3")
        assert result.returncode == 2
        assert "unknown mean id" in result.stderr


class TestSeiffertAndDeform:
    def test_single_abscissa(self):
        result = run_cli("seiffert", "--mean", "G", "--z", "0.6")
        assert result.returncode == 0
        assert result.stdout.strip() == "0.75"

    def test_zgrid_lines(self):
        result = run_cli("seiffert", "--mean", "A", "--zgrid", "0.1:0.9:5")
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert len(lines) == 5
        z, fz = lines[2].split()
        assert z == fz == "0.5"

    def test_malformed_grid(self):
        result = run_cli("seiffert", "--mean", "A", "--zgrid", "0.1:0.9")
        assert result.returncode == 2
        assert "malformed grid" in result.stderr

    def test_deform(self):
        result = run_cli("deform", "--mean", "C", "--t", "0.5", "1", "3")
        assert result.returncode == 0
        assert result.stdout.strip() == "2.125"

    def test_deform_bad_parameter(self):
        result = run_cli("deform", "--mean", "C", "--t", "1.5", "1", "3")
        assert result.returncode == 2


class TestHarmonic:
    def test_verify_logarithmic_with_harmonic(self):
        result = run_cli("harmonic", "verify", "--mean", "L", "--repr", "H",
                         "--pairs", "default", "--tol", "1e-9")
        assert result.returncode == 0
        assert "summary: 20 passed, 0 failed" in result.stdout

    def test_verify_wrong_representer_fails(self):
        result = run_cli("harmonic", "verify", "--mean", "L", "--repr", "G")
        assert result.returncode == 1

    def test_check_representable_mean(self):
        result = run_cli("harmonic", "check", "--mean", "SIN")
        assert result.returncode == 0
        assert "status=representable" in result.stdout

    def test_check_falsified_mean(self):
        result = run_cli("harmonic", "check", "--mean", "G", "--format", "json")
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["records"][0]["pass"] is False
        assert "falsified" in payload["records"][0]["detail"]

    def test_construct_prints_candidate(self):
        result = run_cli("harmonic", "construct", "--mean", "L",
                         "--zgrid", "0.5:0.9:2")
        assert result.returncode == 0
        first = result.stdout.splitlines()[0].split()
        # candidate for artanh is z/(1-z^2): 0.5/0.75
        assert float(first[1]) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_pairs_file(self, tmp_path):
        pair_file = tmp_path / "pairs.csv"
        pair_file.write_text("x,y\n1,3\n2,5\n")
        result = run_cli("harmonic", "verify", "--mean", "P", "--repr", "G",
                         "--pairs", str(pair_file))
        assert result.returncode == 0
        assert "2 passed" in result.stdout

    def test_bad_pairs_file(self, tmp_path):
        pair_file = tmp_path / "pairs.csv"
        pair_file.write_text("a,b\n1,3\n")
        result = run_cli("harmonic", "verify", "--mean", "P", "--repr", "G",
                         "--pairs", str(pair_file))
        assert result.returncode == 2
        assert "header" in result.stderr

    def test_missing_pairs_file(self):
        result = run_cli("harmonic", "verify", "--mean", "P", "--repr", "G",
                         "--pairs", "no-such-file.csv")
        assert result.returncode == 2

    def test_env_tolerance_override(self):
        import os

        env = dict(os.environ, MEANLAB_TOL="1e-16")
        result = run_cli("harmonic", "verify", "--mean", "L", "--repr", "H",
                         env=env)
        assert result.returncode == 1  # unreachable tolerance: checks fail

    def test_env_tolerance_must_be_numeric(self):
        import os

        env = dict(os.environ, MEANLAB_TOL="plenty")
        result = run_cli("harmonic", "verify", "--mean", "L", "--repr", "H",
                         env=env)
        assert result.returncode == 2


class TestIneq:
    def test_run_chain(self):
        result = run_cli("ineq", "run", "--chain", "hh-L-H")
        assert result.returncode == 0
        assert "chain-summary" in result.stdout

    def test_unknown_chain(self):
        result = run_cli("ineq", "run", "--chain", "hh-X-Y")
        assert result.returncode == 2
        assert "unknown chain" in result.stderr

    def test_csv_output(self):
        result = run_cli("ineq", "run", "--chain", "hh-T-C", "--format", "csv")
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "check,name,x,y,z,margin,pass"


class TestSuiteCommand:
    def test_requires_all_flag(self):
        result = run_cli("suite")
        assert result.returncode == 2
        assert "--all" in result.stderr

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.csv"
        result = run_cli("ineq", "run", "--chain", "hh-SIN", "--format", "csv",
                         "--out", str(out))
        assert result.returncode == 0
        assert out.read_text().startswith("check,name")

    def test_unwritable_out(self):
        result = run_cli("ineq", "run", "--chain", "hh-SIN",
                         "--out", "/no-such-dir/report.csv")
        assert result.returncode == 2
        assert "cannot write" in result.stderr


def test_cli_imports_without_numpy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = "import meanlab, meanlab.cli, sys; assert 'numpy' not in sys.modules"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
