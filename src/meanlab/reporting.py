"""Check records and report documents (JSON / CSV / text renderings).

A report is deterministic apart from its timestamp: records are ordered
by check name (then insertion order), floats are serialized with repr
precision, and the summary counts are derived from the records.  JSON has
no infinities or NaN, so the JSON report writes those as the strings the
CSV cell holds ("inf", "-inf", "nan").  `to_json` writes the bytes of
json.dumps(..., indent=2) itself, as json's encoder runs in pure Python under
indent; json supplies only its C string escaper.  The renderers import json
and csv where they run, so a command that needs only FORMATS does not load
them, and the timestamp comes from the built-in `time` module, not `datetime`.
"""

from __future__ import annotations

import io
import math
import time
from collections import namedtuple

__all__ = [
    "CheckRecord",
    "ReportDocument",
    "build_report",
    "render_report",
    "to_json",
    "to_csv",
    "to_text",
]

TOOL_NAME = "meanlab"
TOOL_VERSION = "0.1.0"

FORMATS = ("json", "csv", "text")

CSV_HEADER = ("check", "name", "x", "y", "z", "margin", "pass")


class CheckRecord(namedtuple("CheckRecord", "check name passed x y z margin detail",
                             defaults=(None, None, None, None, ""))):
    """One verification outcome.

    `margin` is the signed slack of whatever inequality or tolerance the
    check enforces (non-negative on pass); point-free checks leave the
    coordinate fields None.
    """

    __slots__ = ()

    @classmethod
    def within(cls, check: str, name: str, dev: float, tol: float, detail: str,
               **where: float) -> CheckRecord:
        """The record of a deviation `dev` bounded by `tol`: it passes when
        dev <= tol (a NaN fails), with margin tol - dev."""
        return cls(check, name, dev <= tol, margin=tol - dev, detail=detail, **where)


class ReportDocument(namedtuple("ReportDocument", "tool version timestamp records summary")):
    """A report: its CheckRecords in order, and the pass/fail/total counts in `summary`."""

    __slots__ = ()


def build_report(records: list[CheckRecord]) -> ReportDocument:
    """Assemble a document: records sorted by check name, tallied summary."""
    ordered = tuple(sorted(records, key=lambda r: r.check))  # stable within a check
    n_pass = sum(1 for r in ordered if r.passed)
    return ReportDocument(
        tool=TOOL_NAME,
        version=TOOL_VERSION,
        # UTC, ISO 8601; a bare time.gmtime() reads C's time(), a tick behind the clock
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime(time.time())),
        records=ordered,
        summary={"pass": n_pass, "fail": len(ordered) - n_pass, "total": len(ordered)},
    )


def to_json(doc: ReportDocument) -> str:
    """The bytes of json.dumps(payload, indent=2, allow_nan=False) plus a newline, written
    here one f-string per record: json's encoder would run in pure Python under indent."""
    from json.encoder import encode_basestring_ascii as text  # the escaper of ensure_ascii
    num = _json_number
    records = ",\n".join(
        f'    {{\n      "check": {text(r.check)},\n      "name": {text(r.name)},\n'
        f'      "x": {num(r.x)},\n      "y": {num(r.y)},\n      "z": {num(r.z)},\n'
        f'      "margin": {num(r.margin)},\n      "pass": {num(r.passed)},\n'
        f'      "detail": {text(r.detail)}\n    }}' for r in doc.records)
    records = f"[\n{records}\n  ]" if doc.records else "[]"
    summary = ",\n".join(f"    {text(k)}: {num(v)}" for k, v in doc.summary.items())
    summary = f"{{\n{summary}\n  }}" if doc.summary else "{}"
    return (f'{{\n  "tool": {text(doc.tool)},\n  "version": {text(doc.version)},\n'
            f'  "timestamp": {text(doc.timestamp)},\n  "records": {records},\n'
            f'  "summary": {summary}\n}}\n')


def _cell(value: float | None) -> str:
    return "" if value is None else repr(value)


def _json_number(value: float | None) -> str:
    """A number or bool field as json writes it, a non-finite float as its quoted CSV cell.
    Bools are tested before ints, as True is an int."""
    if value is None:
        return "null"
    if not math.isfinite(value):
        return f'"{_cell(value)}"'
    if isinstance(value, float):
        return float.__repr__(value)
    return "true" if value is True else "false" if value is False else int.__repr__(value)


def to_csv(doc: ReportDocument) -> str:
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in doc.records:
        writer.writerow([r.check, r.name, _cell(r.x), _cell(r.y), _cell(r.z),
                         _cell(r.margin), "true" if r.passed else "false"])
    return buf.getvalue()


def to_text(doc: ReportDocument) -> str:
    lines = [f"{doc.tool} {doc.version} @ {doc.timestamp}"]
    for r in doc.records:
        status = "PASS" if r.passed else "FAIL"
        extra = f" margin={r.margin:.3e}" if r.margin is not None else ""
        detail = f"  ({r.detail})" if r.detail else ""
        lines.append(f"[{status}] {r.check} :: {r.name}{extra}{detail}")
    s = doc.summary
    lines.append(f"summary: {s['pass']} passed, {s['fail']} failed, {s['total']} total")
    return "\n".join(lines) + "\n"


def render_report(doc: ReportDocument, fmt: str) -> str:
    if fmt == "json":
        return to_json(doc)
    if fmt == "csv":
        return to_csv(doc)
    if fmt == "text":
        return to_text(doc)
    raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
