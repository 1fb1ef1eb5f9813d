"""Report document assembly and rendering."""

import json
import math
import time
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanlab.reporting import (
    CSV_HEADER,
    CheckRecord,
    ReportDocument,
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


def json_dumps_report(doc):
    """The report as json.dumps wrote it before `to_json` wrote the layout itself: the oracle."""
    def number(value):
        return value if value is None or math.isfinite(value) else repr(value)

    payload = {
        "tool": doc.tool,
        "version": doc.version,
        "timestamp": doc.timestamp,
        "records": [
            {"check": r.check, "name": r.name, "x": number(r.x), "y": number(r.y),
             "z": number(r.z), "margin": number(r.margin), "pass": r.passed,
             "detail": r.detail}
            for r in doc.records
        ],
        "summary": doc.summary,
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


# characters of every category, and ones that JSON escapes, lone surrogates among them
ESCAPED = '"\\/\x00\x08\t\n\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600'
texts = st.text(st.one_of(st.characters(exclude_categories=()), st.sampled_from(ESCAPED)),
                max_size=12)
numbers = st.one_of(
    st.none(), st.integers(min_value=-2 ** 64, max_value=2 ** 64), st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf,
                     math.nan]))
records = st.builds(CheckRecord, check=texts, name=texts, passed=st.booleans(), x=numbers,
                    y=numbers, z=numbers, margin=numbers, detail=texts)
documents = st.builds(ReportDocument, tool=texts, version=texts, timestamp=texts,
                      records=st.lists(records, max_size=20).map(tuple),
                      summary=st.dictionaries(texts, st.integers(), max_size=3))


class TestJsonBytes:
    @settings(max_examples=100, deadline=None)
    @given(documents)
    def test_same_bytes_as_json_dumps(self, doc):
        assert to_json(doc) == json_dumps_report(doc)

    @pytest.mark.parametrize("records", [[], [_rec(x=1.0, margin=math.nan, detail="d")]])
    def test_built_reports(self, records):
        doc = build_report(records)
        assert to_json(doc) == json_dumps_report(doc)
