"""End-to-end CLI behaviour: exit codes, stdout and stderr of `meanlab` verbs.

Each verb runs in-process through `cli.run_command` (the `run_cli` fixture). A
process starts only where the process is under test: `python -m meanlab`, the
modules a cold start loads, and the timeout that stops a hung quadrature.
"""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from meanlab import (CATALOG, ChainSpec, DomainError, MeanDescriptor, builtin_chain,
                     eval_mean, inequalities, run_chain_suite)
from meanlab.cli import run_command

SRC = Path(__file__).resolve().parent.parent / "src"


class Outcome(NamedTuple):
    """What a `meanlab` process gives: its exit status and its two streams."""
    returncode: int
    stdout: str
    stderr: str


@pytest.fixture
def run_cli(monkeypatch, capsys):
    """`run_cli(*args, env=None)` runs `meanlab ARGS` in-process and returns its Outcome.

    `env` is set through monkeypatch, and COLUMNS is pinned to the width a piped
    child process lays out argparse's help and usage at: the inherited value, else 80.
    """
    monkeypatch.setenv("COLUMNS", os.environ.get("COLUMNS", "80"))

    def run(*args, env=None):
        for name, value in (env or {}).items():
            monkeypatch.setenv(name, value)
        try:
            code = run_command(list(args))
        except SystemExit as exc:  # argparse's help and usage errors
            code = exc.code
        return Outcome(code, *capsys.readouterr())

    return run


def strict_json(text):
    """Parse JSON, refusing the non-standard NaN/Infinity constants."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


class TestEval:
    def test_first_seiffert(self, run_cli):
        result = run_cli("eval", "--mean", "P", "1", "3")
        assert result.returncode == 0
        assert result.stdout.strip() == "1.90985931710274"

    def test_nonpositive_arguments(self, run_cli):
        result = run_cli("eval", "--mean", "A", "0", "3")
        assert result.returncode == 2
        assert "arguments must be positive" in result.stderr
        assert result.stdout == ""

    def test_unknown_mean(self, run_cli):
        result = run_cli("eval", "--mean", "Q17", "1", "3")
        assert result.returncode == 2
        assert "unknown mean id" in result.stderr

    def test_agm_underflow_is_an_error(self, run_cli):
        # a*b underflowed to 0 and the AGM loop stopped at its step cap (exit 2);
        # the pair is now evaluated at unit scale
        result = run_cli("eval", "--mean", "AGM", "1e-300", "1e-200")
        assert result.returncode == 0 and result.stderr == ""
        assert 1e-300 < float(result.stdout) < 1e-200
        assert result.stdout == f"{eval_mean('AGM', 1e-300, 1e-200):.15g}\n"


class TestSeiffertAndDeform:
    def test_single_abscissa(self, run_cli):
        result = run_cli("seiffert", "--mean", "G", "--z", "0.6")
        assert result.returncode == 0
        assert result.stdout.strip() == "0.75"

    def test_zgrid_lines(self, run_cli):
        result = run_cli("seiffert", "--mean", "A", "--zgrid", "0.1:0.9:5")
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert len(lines) == 5
        z, fz = lines[2].split()
        assert z == fz == "0.5"

    def test_log_zgrid_lines(self, run_cli):
        result = run_cli("seiffert", "--mean", "G", "--zgrid", "0.1:0.9:3:log")
        assert result.returncode == 0
        assert [line.split()[0] for line in result.stdout.splitlines()] == [
            "0.1", "0.3", "0.9"]

    def test_malformed_grid(self, run_cli):
        result = run_cli("seiffert", "--mean", "A", "--zgrid", "0.1:0.9")
        assert result.returncode == 2
        assert "malformed grid" in result.stderr

    @pytest.mark.parametrize("zgrid, reason", [
        ("0.1:0.9:x", "non-numeric field"),
        ("0.1:0.9:3:lin", "trailing field must be 'log'")])
    def test_malformed_grid_field(self, zgrid, reason, run_cli):
        result = run_cli("seiffert", "--mean", "A", "--zgrid", zgrid)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"meanlab: error: malformed grid {zgrid!r}: {reason}\n"

    @pytest.mark.parametrize("verb", [["seiffert"], ["harmonic", "check"],
                                      ["harmonic", "construct"]])
    def test_grid_end_must_be_finite(self, verb, run_cli):
        # the grid's first point was nan, reported as a point outside (0, 1)
        result = run_cli(*verb, "--mean", "A", "--zgrid", "0.1:inf:4")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == ("meanlab: error: grid start and end must be finite, "
                                 "got 0.1, inf\n")

    def test_deform(self, run_cli):
        result = run_cli("deform", "--mean", "C", "--t", "0.5", "1", "3")
        assert result.returncode == 0
        assert result.stdout.strip() == "2.125"

    def test_deform_bad_parameter(self, run_cli):
        result = run_cli("deform", "--mean", "C", "--t", "1.5", "1", "3")
        assert result.returncode == 2


class TestHarmonic:
    def test_verify_logarithmic_with_harmonic(self, run_cli):
        result = run_cli("harmonic", "verify", "--mean", "L", "--repr", "H",
                         "--pairs", "default", "--tol", "1e-9")
        assert result.returncode == 0
        assert "summary: 20 passed, 0 failed" in result.stdout

    def test_verify_wrong_representer_fails(self, run_cli):
        result = run_cli("harmonic", "verify", "--mean", "L", "--repr", "G")
        assert result.returncode == 1

    def test_check_representable_mean(self, run_cli):
        result = run_cli("harmonic", "check", "--mean", "SIN")
        assert result.returncode == 0
        assert "status=representable" in result.stdout

    def test_check_falsified_mean(self, run_cli):
        result = run_cli("harmonic", "check", "--mean", "G", "--format", "json")
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["records"][0]["pass"] is False
        assert "falsified" in payload["records"][0]["detail"]

    def test_check_text_names_the_witness(self, run_cli):
        result = run_cli("harmonic", "check", "--mean", "TANH")
        assert result.returncode == 1
        assert "(status=falsified, witness z=0.999)" in result.stdout

    def test_check_csv_pass_cell_of_a_failure(self, run_cli):
        result = run_cli("harmonic", "check", "--mean", "TANH", "--format", "csv")
        assert result.returncode == 1
        header, row = result.stdout.splitlines()
        assert header.endswith(",pass") and row.split(",")[-1] == "false"

    def test_construct_prints_candidate(self, run_cli):
        result = run_cli("harmonic", "construct", "--mean", "L",
                         "--zgrid", "0.5:0.9:2")
        assert result.returncode == 0
        first = result.stdout.splitlines()[0].split()
        # candidate for artanh is z/(1-z^2): 0.5/0.75
        assert float(first[1]) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_pairs_file(self, tmp_path, run_cli):
        pair_file = tmp_path / "pairs.csv"
        pair_file.write_text("x,y\n1,3\n2,5\n")
        result = run_cli("harmonic", "verify", "--mean", "P", "--repr", "G",
                         "--pairs", str(pair_file))
        assert result.returncode == 0
        assert "2 passed" in result.stdout

    def test_bad_pairs_file(self, tmp_path, run_cli):
        pair_file = tmp_path / "pairs.csv"
        pair_file.write_text("a,b\n1,3\n")
        result = run_cli("harmonic", "verify", "--mean", "P", "--repr", "G",
                         "--pairs", str(pair_file))
        assert result.returncode == 2
        assert "header" in result.stderr

    def test_missing_pairs_file(self, run_cli):
        result = run_cli("harmonic", "verify", "--mean", "P", "--repr", "G",
                         "--pairs", "no-such-file.csv")
        assert result.returncode == 2

    @pytest.mark.parametrize("value", ["1e-16", "nan", "inf", "0", "-1", "plenty"])
    def test_environment_changes_no_report(self, value, monkeypatch, run_cli):
        # only --tol sets a tolerance, so MEANLAB_TOL, at any value, changes no report
        def untimed(argv, env=None):
            result = run_cli(*argv, env=env)
            return result.returncode, re.sub(r'"timestamp": "[^"]*"', "", result.stdout)

        monkeypatch.delenv("MEANLAB_TOL", raising=False)
        for argv in (["harmonic", "verify", "--mean", "L", "--repr", "H", "--format", "json"],
                     ["ineq", "run", "--chain", "hh-L-H", "--format", "json"]):
            unset = untimed(argv)
            assert unset[0] == 0
            assert untimed(argv, env={"MEANLAB_TOL": value}) == unset

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_flag_tolerance_must_be_finite_and_positive(self, value, run_cli):
        result = run_cli("harmonic", "verify", "--mean", "P", "--repr", "TANH",
                         "--tol", value)
        assert result.returncode == 2
        assert "--tol must be finite and positive" in result.stderr
        assert result.stdout == ""

    def test_inconclusive_check_writes_standard_json(self, monkeypatch, run_cli):
        tanh = CATALOG["TANH"]
        monkeypatch.setitem(CATALOG, "TANH", MeanDescriptor(
            "TANH", tanh.display, tanh.evaluator, derivative=lambda z: math.nan))
        result = run_cli("harmonic", "check", "--mean", "TANH", "--format", "json")
        assert result.returncode == 1
        record = strict_json(result.stdout)["records"][0]
        assert record["margin"] == "nan"
        assert "status=inconclusive" in record["detail"]

    @pytest.mark.parametrize("mean, zgrid", [("TANH", "0.5:1.5:5"), ("G", "1.2:1.5:3"),
                                             ("T", "1.2:1.5:3"), ("A", "1.2:1.5:3"),
                                             ("AGM", "1.2:1.5:3")])
    def test_check_grid_outside_unit_interval_is_a_usage_error(self, mean, zgrid, run_cli):
        # G raised a TypeError, T and A were falsified at z = 1.2, AGM and TANH inconclusive
        result = run_cli("harmonic", "check", "--mean", mean, "--zgrid", zgrid)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "grid point must lie in (0, 1)" in result.stderr

    # planted representer rows that raise what the real rows raised at
    # (1e308, 1.7e308) and (1e-300, 1e-200) before those pairs were rescaled
    @pytest.mark.parametrize("mean, repr_, error, note", [
        ("L", "H", DomainError("arguments must be finite, got (inf, inf)"),
         "DomainError: arguments must be finite, got (inf, inf)"),
        ("AGM", "V", ZeroDivisionError("float division by zero"),
         "ZeroDivisionError: float division by zero"),
    ], ids=["L-H-overflow", "AGM-V-underflow"])
    def test_verify_records_a_failing_evaluation(self, tmp_path, monkeypatch, run_cli,
                                                 mean, repr_, error, note):
        # the representer's row raises at every pulled pair of (200, 600) only
        row = CATALOG[repr_]

        def planted(lo, hi):
            if lo >= 200.0:
                raise error
            return row.evaluator(lo, hi)

        monkeypatch.setitem(CATALOG, repr_, MeanDescriptor(repr_, row.display, planted))
        reports = []
        for rows in (["1,3"], ["1,3", "200,600"]):
            pair_file = tmp_path / "pairs.csv"
            pair_file.write_text("x,y\n" + "\n".join(rows) + "\n")
            result = run_cli("harmonic", "verify", "--mean", mean, "--repr", repr_,
                             "--pairs", str(pair_file), "--format", "json")
            reports.append((result.returncode, strict_json(result.stdout)["records"]))
        (code_alone, (alone,)), (code, (kept, failed)) = reports
        assert (code_alone, code) == (0, 1)
        assert kept == alone
        assert failed["pass"] is False
        assert failed["margin"] == "-inf"
        assert failed["detail"] == note

    def test_verify_passes_far_out_pairs(self, tmp_path, run_cli):
        # the pulled pair of (1e308, 1.7e308) overflowed, and V underflowed at (1e-300, 1e-299)
        pair_file = tmp_path / "pairs.csv"
        pair_file.write_text("x,y\n1,3\n1e308,1.7e308\n1e-300,1e-299\n")
        for mean, repr_ in (("L", "H"), ("AGM", "V")):
            result = run_cli("harmonic", "verify", "--mean", mean, "--repr", repr_,
                             "--pairs", str(pair_file), "--format", "json")
            assert result.returncode == 0, result.stdout
            assert [r["pass"] for r in strict_json(result.stdout)["records"]] == [True] * 3

    def test_verify_margin_is_nan_when_a_deviation_is(self, tmp_path, monkeypatch, run_cli):
        # L's row is NaN only at (0.5, 1.5), where the Seiffert function of
        # the pair (1, 3) evaluates it, so only the operator deviation is NaN
        log = CATALOG["L"]

        def planted(lo, hi):
            return math.nan if (lo, hi) == (0.5, 1.5) else log.evaluator(lo, hi)

        monkeypatch.setitem(CATALOG, "L", MeanDescriptor("L", log.display, planted))
        pair_file = tmp_path / "pairs.csv"
        pair_file.write_text("x,y\n1,3\n")
        result = run_cli("harmonic", "verify", "--mean", "L", "--repr", "H",
                         "--pairs", str(pair_file), "--format", "json")
        assert result.returncode == 1
        (record,) = strict_json(result.stdout)["records"]
        assert record["pass"] is False
        assert record["margin"] == "nan"


class TestIneq:
    def test_run_chain(self, run_cli):
        result = run_cli("ineq", "run", "--chain", "hh-L-H")
        assert result.returncode == 0
        assert "chain-summary" in result.stdout

    def test_unknown_chain(self, run_cli):
        result = run_cli("ineq", "run", "--chain", "hh-X-Y")
        assert result.returncode == 2
        assert "unknown chain" in result.stderr

    def test_point_verdict_follows_its_worst_margin(self, tmp_path, run_cli):
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

    def test_a_term_that_raises_skips_its_pair(self, tmp_path, monkeypatch, run_cli):
        def planted(lo, hi):
            if hi == 3.0:
                raise ZeroDivisionError("planted at (1, 3)")
            return 0.5 * (lo + hi)

        spec = ChainSpec("planted", (("A", CATALOG["A"]),
                                     ("P", MeanDescriptor("P", "planted", planted))))
        monkeypatch.setitem(inequalities._CHAINS, "planted", spec)
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("x,y\n1,2\n1,3\n")
        result = run_cli("ineq", "run", "--chain", "planted", "--pairs", str(pairs),
                         "--format", "json")
        assert result.returncode == 1
        records = strict_json(result.stdout)["records"]
        assert [(r["name"], r["pass"]) for r in records] == [
            ("chain-summary", False), ("point-000", True), ("skipped", False)]
        skipped = records[2]
        assert skipped["check"] == "ineq-planted"
        assert (skipped["x"], skipped["y"], skipped["z"]) == (1.0, 3.0, None)
        assert skipped["margin"] is None
        assert skipped["detail"] == "ZeroDivisionError: planted at (1, 3)"

    def test_text_point_lines_have_no_empty_detail(self, run_cli):
        result = run_cli("ineq", "run", "--chain", "hh-L-H", "--format", "text")
        assert result.returncode == 0
        points = [line for line in result.stdout.splitlines() if ":: point-" in line]
        assert points and all(re.fullmatch(r"\[PASS\] ineq-hh-L-H :: point-\d{3} margin=\S+",
                                           line) for line in points)

    def test_csv_output(self, run_cli):
        result = run_cli("ineq", "run", "--chain", "hh-T-C", "--format", "csv")
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "check,name,x,y,z,margin,pass"


#: The two verbs that read pair files.
PAIR_VERBS = {"verify": ("harmonic", "verify", "--mean", "L", "--repr", "H"),
              "ineq": ("ineq", "run", "--chain", "hh-L-H")}


class TestPairFiles:
    def test_header_with_spaces_is_read_and_row_order_kept(self, tmp_path, run_cli):
        pair_file = tmp_path / "pairs.csv"
        pair_file.write_text("x, y\n3,1\n2, 5\n")
        result = run_cli(*PAIR_VERBS["verify"], "--pairs", str(pair_file),
                         "--format", "json")
        assert result.returncode == 0, result.stderr
        records = strict_json(result.stdout)["records"]
        assert [(r["x"], r["y"]) for r in records] == [(3.0, 1.0), (2.0, 5.0)]

    @pytest.mark.parametrize("verb", sorted(PAIR_VERBS))
    @pytest.mark.parametrize("row", ["nan,1", "-1,3", "1,3,4"])
    def test_bad_row_is_a_usage_error(self, tmp_path, verb, row, run_cli):
        pair_file = tmp_path / "pairs.csv"
        pair_file.write_text(f"x,y\n1,3\n{row}\n")
        result = run_cli(*PAIR_VERBS[verb], "--pairs", str(pair_file))
        assert result.returncode == 2
        assert "bad row" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("verb", sorted(PAIR_VERBS))
    @pytest.mark.parametrize("target", ["directory", "undecodable", "empty-path"])
    def test_unreadable_file_is_a_usage_error(self, tmp_path, verb, target, run_cli):
        pair_file = tmp_path / "pairs.csv"
        pair_file.write_bytes(b"x,y\n1,3\n\xff\xfe,2\n")
        spec = {"directory": str(tmp_path), "undecodable": str(pair_file),
                "empty-path": ""}[target]
        result = run_cli(*PAIR_VERBS[verb], "--pairs", spec)
        assert result.returncode == 2
        assert result.stderr.startswith("meanlab: error:")
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("verb", sorted(PAIR_VERBS))
    def test_empty_file_is_a_usage_error(self, tmp_path, verb, run_cli):
        pair_file = tmp_path / "pairs.csv"
        pair_file.write_bytes(b"")
        result = run_cli(*PAIR_VERBS[verb], "--pairs", str(pair_file))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (f"meanlab: error: pair file {str(pair_file)!r} "
                                 "needs the header 'x,y'\n")

    @pytest.mark.parametrize("verb", sorted(PAIR_VERBS))
    def test_header_only_file_is_a_usage_error(self, tmp_path, verb, run_cli):
        pair_file = tmp_path / "pairs.csv"
        pair_file.write_text("x,y\n\n")
        result = run_cli(*PAIR_VERBS[verb], "--pairs", str(pair_file))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (f"meanlab: error: pair file {str(pair_file)!r} "
                                 "contains no pairs\n")

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
    def test_requires_all_flag(self, run_cli):
        result = run_cli("suite")
        assert result.returncode == 2
        assert "--all" in result.stderr

    def test_out_file(self, tmp_path, run_cli):
        # the file holds the bytes stdout shows, apart from the timestamp
        untimed = {"csv": lambda b: b,
                   "json": lambda b: re.sub(rb'"timestamp": "[^"]*"', b"", b),
                   "text": lambda b: b.split(b"\n", 1)[1]}
        for fmt, strip in untimed.items():
            argv = ["ineq", "run", "--chain", "hh-SIN", "--format", fmt]
            out = tmp_path / f"report.{fmt}"
            written = run_cli(*argv, "--out", str(out))
            shown = run_cli(*argv)
            assert written.returncode == shown.returncode == 0
            assert written.stdout == ""
            assert strip(out.read_bytes()) == strip(shown.stdout.encode())

    def test_unwritable_out(self, run_cli):
        result = run_cli("ineq", "run", "--chain", "hh-SIN",
                         "--out", "/no-such-dir/report.csv")
        assert result.returncode == 2
        assert "cannot write" in result.stderr


def test_format_choices_are_the_report_formats():
    from meanlab import cli, reporting
    assert cli._FORMATS == reporting.FORMATS


def test_python_m_meanlab_gives_what_the_runner_gives(run_cli):
    # __main__ exits with run_command's status, after its report reached stdout
    argv = ["harmonic", "verify", "--mean", "L", "--repr", "G", "--format", "csv"]
    result = subprocess.run([sys.executable, "-m", "meanlab", *argv],
                            capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == run_cli(*argv)
    assert result.returncode == 1 and result.stdout


#: Verbs run in one process, and modules that process must not have loaded.
#: No verb loads numpy, a test extra, or `dataclasses` or `inspect`, which pull in ast,
#: dis and tokenize, or `pathlib`, which pulls in `urllib.parse`: files are read and
#: written with open().
#: Only `suite --all` and the quadrature routes load `meanlab.calculus`, and only the
#: suite and the elliptic functions' own callers load `meanlab.elliptic`: the AGM and V
#: rows run their kernels in `meanlab.means`, and grids live in `meanlab._pairs`.
COLD_STARTS = [
    ([["eval", "--mean", "P", "1", "3"],
      ["seiffert", "--mean", "AGM", "--z", "0.5"],
      ["seiffert", "--mean", "L", "--zgrid", "0.1:0.9:3:log"],
      ["deform", "--mean", "C", "--t", "0.5", "1", "3"]],
     ["meanlab.elliptic", "meanlab.calculus", "meanlab.harmonic", "meanlab.inequalities",
      "meanlab.suite", "meanlab.reporting", "fractions", "json", "csv", "datetime",
      "dataclasses", "inspect", "pathlib", "urllib.parse", "numpy"]),
    ([["eval", "--mean", "AGM", "1", "3"],
      ["eval", "--mean", "V", "1", "3"],
      ["seiffert", "--mean", "V", "--z", "0.5"],
      ["seiffert", "--mean", "AGM", "--zgrid", "0.1:0.9:3"],
      ["deform", "--mean", "AGM", "--t", "0.5", "1", "3"]],
     ["meanlab.elliptic", "meanlab.calculus", "meanlab.reporting", "heapq", "dataclasses",
      "inspect", "pathlib", "urllib.parse", "numpy"]),
    ([["harmonic", "check", "--mean", "SIN", "--format", "csv"]],
     ["meanlab.elliptic", "meanlab.calculus", "meanlab.inequalities", "meanlab.suite",
      "heapq", "datetime", "dataclasses", "inspect", "pathlib", "urllib.parse", "numpy"]),
    ([["harmonic", "construct", "--mean", "V", "--zgrid", "0.1:0.9:5"]],
     ["meanlab.elliptic", "meanlab.calculus", "meanlab.inequalities", "meanlab.suite",
      "meanlab.reporting", "heapq", "json", "csv", "datetime", "dataclasses", "inspect",
      "pathlib", "urllib.parse", "numpy"]),
    ([["harmonic", "verify", "--mean", "L", "--repr", "H", "--format", "csv"]],
     ["meanlab.elliptic", "meanlab.inequalities", "meanlab.suite", "json", "datetime",
      "dataclasses", "inspect", "pathlib", "urllib.parse", "numpy"]),
    ([["ineq", "run", "--chain", "hh-P-G", "--format", "csv"],
      ["ineq", "run", "--chain", "hh-AGM-V", "--format", "csv"]],
     ["meanlab.elliptic", "meanlab.calculus", "meanlab.suite", "heapq", "json", "datetime",
      "dataclasses", "inspect", "pathlib", "urllib.parse", "numpy"]),
]


@pytest.mark.parametrize("argvs, absent", COLD_STARTS,
                         ids=["light-verbs", "no-quadrature", "harmonic-check",
                              "harmonic-construct", "harmonic-verify", "ineq-run"])
def test_cold_start_loads_only_what_its_verb_runs(argvs, absent):
    # without site (-S) no .pth file preloads a module, so every load is meanlab's;
    # numpy's directory is on the path, so that an import of numpy would succeed
    numpy_dir = Path(importlib.util.find_spec("numpy").origin).parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(numpy_dir)])}
    code = ("import sys\n"
            "from meanlab.cli import run_command\n"
            f"codes = [run_command(argv) for argv in {argvs!r}]\n"
            f"print(codes, [m for m in {absent!r} if m in sys.modules])")
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == f"{[0] * len(argvs)} []"


#: Help and usage errors: the top-level ones, every verb's and sub-verb's help,
#: and a missing, surplus or invalid argument of each verb.
PARSER_ARGVS = [
    ["--help"], ["-h", "eval"], [], ["bogus"], ["--", "eval"],
    *([*verb, "--help"] for verb in (["eval"], ["seiffert"], ["deform"], ["harmonic"],
                                     ["harmonic", "check"], ["harmonic", "construct"],
                                     ["harmonic", "verify"], ["ineq"], ["ineq", "run"],
                                     ["suite"])),
    ["eval"], ["eval", "--mean", "P", "1"], ["eval", "--mean", "P", "1", "x"],
    ["eval", "--mean", "P", "1", "3", "4"], ["--bogus", "eval", "--mean", "P", "1", "3"],
    ["seiffert", "--mean", "P"], ["seiffert", "--mean", "P", "--z", "0.5", "--zgrid", "0:1:3"],
    ["deform", "--mean", "P", "1", "3"], ["harmonic"], ["harmonic", "bogus"],
    ["harmonic", "check"], ["harmonic", "verify", "--mean", "L"],
    ["harmonic", "verify", "--mean", "L", "--repr", "H", "--tol", "x"], ["ineq"],
    ["ineq", "run"], ["suite", "--all", "--format", "xml"], ["suite", "--bogus"],
]


@pytest.mark.parametrize("columns", [None, "50", "200"])
@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "no-args")
def test_parser_of_one_verb_prints_what_the_full_parser_prints(argv, columns, monkeypatch,
                                                               run_cli):
    # in-process: argparse lays help out differently from one Python version to the next
    from meanlab import cli
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)

    code, out, err = run_cli(*argv)
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda verb=None: full_parser())
    assert run_cli(*argv) == (code, out, err)
    assert code in (0, 2) and (out or err)
