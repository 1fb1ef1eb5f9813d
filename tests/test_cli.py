"""End-to-end CLI behaviour through real subprocesses."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from meanlab import builtin_chain, run_chain_suite

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, env=None):
    return subprocess.run([sys.executable, "-m", "meanlab", *args],
                          capture_output=True, text=True, env=env)


def strict_json(text):
    """Parse JSON, refusing the non-standard NaN/Infinity constants."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


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

    def test_agm_underflow_is_an_error(self):
        # a*b underflows to 0; the AGM loop stops at its step cap
        result = run_cli("eval", "--mean", "AGM", "1e-300", "1e-200")
        assert result.returncode == 2
        assert "AGM not converged" in result.stderr
        assert result.stdout == ""


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

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_flag_tolerance_must_be_finite_and_positive(self, value):
        result = run_cli("harmonic", "verify", "--mean", "P", "--repr", "TANH",
                         "--tol", value)
        assert result.returncode == 2
        assert "--tol must be finite and positive" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_env_tolerance_must_be_finite_and_positive(self, value):
        env = dict(os.environ, MEANLAB_TOL=value)
        result = run_cli("harmonic", "verify", "--mean", "P", "--repr", "TANH", env=env)
        assert result.returncode == 2
        assert "MEANLAB_TOL must be finite and positive" in result.stderr
        assert result.stdout == ""

    def test_inconclusive_check_writes_standard_json(self):
        result = run_cli("harmonic", "check", "--mean", "TANH", "--zgrid", "0.5:1.5:5",
                         "--format", "json")
        assert result.returncode == 1
        record = strict_json(result.stdout)["records"][0]
        assert record["margin"] == "nan"
        assert "status=inconclusive" in record["detail"]

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

    def test_point_verdict_follows_its_worst_margin(self, tmp_path):
        pair = (1e200, 1e300)
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("x,y\n1e200,1e300\n")
        result = run_cli("ineq", "run", "--chain", "hh-AGM-V", "--pairs", str(pairs),
                         "--format", "json")
        records = strict_json(result.stdout)["records"]
        point = next(r for r in records if r["name"] == "point-000")
        worst = run_chain_suite(builtin_chain("hh-AGM-V"), [pair]).points[0].worst_margin
        assert point["margin"] == (worst if math.isfinite(worst) else repr(worst))
        assert point["pass"] == (worst >= -1e-10)
        assert result.returncode == (0 if all(r["pass"] for r in records) else 1)

    def test_csv_output(self):
        result = run_cli("ineq", "run", "--chain", "hh-T-C", "--format", "csv")
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "check,name,x,y,z,margin,pass"


#: The two verbs that read pair files.
PAIR_VERBS = {"verify": ("harmonic", "verify", "--mean", "L", "--repr", "H"),
              "ineq": ("ineq", "run", "--chain", "hh-L-H")}


class TestPairFiles:
    def test_header_with_spaces_is_read_and_row_order_kept(self, tmp_path):
        pair_file = tmp_path / "pairs.csv"
        pair_file.write_text("x, y\n3,1\n2, 5\n")
        result = run_cli(*PAIR_VERBS["verify"], "--pairs", str(pair_file),
                         "--format", "json")
        assert result.returncode == 0, result.stderr
        records = strict_json(result.stdout)["records"]
        assert [(r["x"], r["y"]) for r in records] == [(3.0, 1.0), (2.0, 5.0)]

    @pytest.mark.parametrize("verb", sorted(PAIR_VERBS))
    @pytest.mark.parametrize("row", ["nan,1", "-1,3", "1,3,4"])
    def test_bad_row_is_a_usage_error(self, tmp_path, verb, row):
        pair_file = tmp_path / "pairs.csv"
        pair_file.write_text(f"x,y\n1,3\n{row}\n")
        result = run_cli(*PAIR_VERBS[verb], "--pairs", str(pair_file))
        assert result.returncode == 2
        assert "bad row" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("verb", sorted(PAIR_VERBS))
    @pytest.mark.parametrize("target", ["directory", "undecodable", "empty-path"])
    def test_unreadable_file_is_a_usage_error(self, tmp_path, verb, target):
        pair_file = tmp_path / "pairs.csv"
        pair_file.write_bytes(b"x,y\n1,3\n\xff\xfe,2\n")
        spec = {"directory": str(tmp_path), "undecodable": str(pair_file),
                "empty-path": ""}[target]
        result = run_cli(*PAIR_VERBS[verb], "--pairs", spec)
        assert result.returncode == 2
        assert result.stderr.startswith("meanlab: error:")
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    @staticmethod
    def _verify_pair(tmp_path, pair):
        pair_file = tmp_path / "pairs.csv"
        pair_file.write_text(f"x,y\n{pair}\n")
        return subprocess.run(
            [sys.executable, "-m", "meanlab", *PAIR_VERBS["verify"],
             "--pairs", str(pair_file)],
            capture_output=True, text=True, timeout=30)

    def test_unresolvable_pair_fails_instead_of_hanging(self, tmp_path):
        # I(f_H) at z = 1 - 1e-12 stops at rounding noise near u = 1; the
        # timeout turns a hang into a failure
        result = self._verify_pair(tmp_path, "1e-12,2")
        assert result.returncode == 1
        assert "quadrature failed" in result.stdout

    def test_wide_pair_converges(self, tmp_path):
        # z = 1 - 1e-5 is within reach of the quadrature
        result = self._verify_pair(tmp_path, "1e-5,2")
        assert result.returncode == 0, result.stdout
        assert "quadrature failed" not in result.stdout


class TestSuiteCommand:
    def test_requires_all_flag(self):
        result = run_cli("suite")
        assert result.returncode == 2
        assert "--all" in result.stderr

    def test_out_file(self, tmp_path):
        # the file holds the bytes stdout shows, apart from the timestamp
        untimed = {"csv": lambda b: b,
                   "json": lambda b: re.sub(rb'"timestamp": "[^"]*"', b"", b),
                   "text": lambda b: b.split(b"\n", 1)[1]}
        for fmt, strip in untimed.items():
            argv = [sys.executable, "-m", "meanlab", "ineq", "run", "--chain", "hh-SIN",
                    "--format", fmt]
            out = tmp_path / f"report.{fmt}"
            written = subprocess.run([*argv, "--out", str(out)], capture_output=True)
            shown = subprocess.run(argv, capture_output=True)
            assert written.returncode == shown.returncode == 0
            assert written.stdout == b""
            assert strip(out.read_bytes()) == strip(shown.stdout)

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


def test_format_choices_are_the_report_formats():
    from meanlab import cli, reporting
    assert cli._FORMATS == reporting.FORMATS


#: Verbs run in one process, and modules that process must not have loaded.
#: No verb loads `dataclasses` or `inspect`, which pull in ast, dis and tokenize,
#: or `pathlib`, which pulls in `urllib.parse`: files are read and written with open().
COLD_STARTS = [
    ([["eval", "--mean", "P", "1", "3"],
      ["seiffert", "--mean", "AGM", "--z", "0.5"],
      ["seiffert", "--mean", "L", "--zgrid", "0.1:0.9:3:log"],
      ["deform", "--mean", "C", "--t", "0.5", "1", "3"]],
     ["meanlab.harmonic", "meanlab.inequalities", "meanlab.suite", "meanlab.reporting",
      "fractions", "json", "csv", "datetime", "dataclasses", "inspect", "pathlib",
      "urllib.parse"]),
    # only the quadrature routes to K and E need calculus
    ([["eval", "--mean", "AGM", "1", "3"],
      ["seiffert", "--mean", "V", "--z", "0.5"],
      ["deform", "--mean", "AGM", "--t", "0.5", "1", "3"]],
     ["meanlab.calculus", "meanlab.reporting", "heapq", "dataclasses", "inspect", "pathlib",
      "urllib.parse"]),
    ([["harmonic", "check", "--mean", "SIN", "--format", "csv"]],
     ["meanlab.inequalities", "meanlab.suite", "dataclasses", "inspect", "pathlib",
      "urllib.parse"]),
    ([["harmonic", "verify", "--mean", "L", "--repr", "H", "--format", "csv"]],
     ["meanlab.inequalities", "meanlab.suite", "json", "dataclasses", "inspect",
      "pathlib", "urllib.parse"]),
    ([["ineq", "run", "--chain", "hh-P-G", "--format", "csv"]],
     ["meanlab.suite", "json", "dataclasses", "inspect", "pathlib", "urllib.parse"]),
]


@pytest.mark.parametrize("argvs, absent", COLD_STARTS,
                         ids=["light-verbs", "no-quadrature", "harmonic-check",
                              "harmonic-verify", "ineq-run"])
def test_cold_start_loads_only_what_its_verb_runs(argvs, absent):
    # without site (-S) no .pth file preloads a module, so every load is meanlab's
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = ("import sys\n"
            "from meanlab.cli import run_command\n"
            f"codes = [run_command(argv) for argv in {argvs!r}]\n"
            f"print(codes, [m for m in {absent!r} if m in sys.modules])")
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == f"{[0] * len(argvs)} []"
