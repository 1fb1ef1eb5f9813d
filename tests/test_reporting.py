"""Report document assembly and rendering."""

import json
import math
import time
from datetime import datetime, timezone

import pytest

from meanlab.reporting import (
    CSV_HEADER,
    CheckRecord,
    build_report,
    render_report,
    to_csv,
    to_json,
    to_text,
)


def _rec(check="01-x", name="n", passed=True, **kw):
    return CheckRecord(check=check, name=name, passed=passed, **kw)


class TestWithin:
    @pytest.mark.parametrize("dev, passed, margin", [
        (0.0, True, 1e-12), (1e-12, True, 0.0), (2e-12, False, -1e-12),
        (math.inf, False, -math.inf)])
    def test_passes_up_to_the_tolerance(self, dev, passed, margin):
        record = CheckRecord.within("01-x", "n", dev, 1e-12, "detail", x=1.0, z=0.5)
        assert record == CheckRecord("01-x", "n", passed, 1.0, None, 0.5, margin, "detail")

    def test_nan_deviation_fails(self):
        record = CheckRecord.within("01-x", "n", math.nan, 1e-12, "")
        assert record.passed is False
        assert math.isnan(record.margin)


class TestBuildReport:
    def test_empty(self):
        doc = build_report([])
        assert doc.summary == {"pass": 0, "fail": 0, "total": 0}
        assert doc.records == ()
        assert json.loads(to_json(doc))["records"] == []

    def test_single_pass(self):
        doc = build_report([_rec()])
        assert doc.summary == {"pass": 1, "fail": 0, "total": 1}

    def test_mixed_counts(self):
        doc = build_report([_rec(), _rec(passed=False), _rec(passed=False)])
        assert doc.summary == {"pass": 1, "fail": 2, "total": 3}

    def test_sorted_by_check_then_stable(self):
        doc = build_report([
            _rec(check="02-b", name="first"),
            _rec(check="01-a", name="x"),
            _rec(check="02-b", name="second"),
        ])
        assert [(r.check, r.name) for r in doc.records] == [
            ("01-a", "x"), ("02-b", "first"), ("02-b", "second")]

    @pytest.mark.parametrize("moment, stamp", [
        (0.0, "1970-01-01T00:00:00+00:00"),
        (951_782_400.5, "2000-02-29T00:00:00+00:00"),
        (1_700_000_000.0, "2023-11-14T22:13:20+00:00"),
        (4_102_444_799.0, "2099-12-31T23:59:59+00:00"),
    ])
    def test_timestamp_is_utc_iso_to_the_second(self, monkeypatch, moment, stamp):
        # the format of datetime's isoformat(timespec="seconds") in UTC
        assert datetime.fromtimestamp(moment, timezone.utc).isoformat(timespec="seconds") == stamp
        gmtime = time.gmtime
        monkeypatch.setattr(time, "gmtime", lambda secs=None: gmtime(moment))
        assert build_report([]).timestamp == stamp

    def test_timestamp_reads_the_clock(self):
        before = datetime.now(timezone.utc).replace(microsecond=0)
        stamp = datetime.fromisoformat(build_report([]).timestamp)
        assert before <= stamp <= datetime.now(timezone.utc)
        assert stamp.utcoffset().total_seconds() == 0


class TestRendering:
    def test_json_roundtrip_fields(self):
        doc = build_report([_rec(x=1.0, y=3.0, z=0.5, margin=1e-3, detail="d")])
        payload = json.loads(to_json(doc))
        record = payload["records"][0]
        assert record == {"check": "01-x", "name": "n", "x": 1.0, "y": 3.0,
                          "z": 0.5, "margin": 1e-3, "pass": True, "detail": "d"}
        assert payload["summary"] == {"pass": 1, "fail": 0, "total": 1}
        assert payload["tool"] == "meanlab"

    def test_json_writes_non_finite_floats_as_csv_cells(self):
        doc = build_report([_rec(x=math.inf, y=3.0, z=-math.inf, margin=math.nan)])

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        record = json.loads(to_json(doc), parse_constant=reject)["records"][0]
        assert (record["x"], record["y"], record["z"], record["margin"]) == (
            "inf", 3.0, "-inf", "nan")
        assert to_csv(doc).splitlines()[1] == "01-x,n,inf,3.0,-inf,nan,true"

    def test_csv_header_and_blanks(self):
        doc = build_report([_rec(margin=None)])
        lines = to_csv(doc).splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[1] == "01-x,n,,,,,true"

    def test_text_contains_status_lines(self):
        doc = build_report([_rec(), _rec(name="bad", passed=False)])
        text = to_text(doc)
        assert "[PASS] 01-x :: n" in text
        assert "[FAIL] 01-x :: bad" in text
        assert "1 passed, 1 failed, 2 total" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report(build_report([]), "yaml")
