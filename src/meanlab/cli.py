"""Command-line front end.

Verbs map one-to-one onto the library surface: `eval` and `seiffert` for
single evaluations, `deform` for the midpoint deformation, `harmonic
check|construct|verify` for representability work, `ineq run` for the
inequality chains, and `suite --all` for the full reproduction suite.

Check-style commands emit a report document (text, JSON or CSV) and exit
0 only if every requested check passed; usage and domain errors exit 2
with a diagnostic on stderr.  All floats print with 15 significant
digits.  The MEANLAB_TOL environment variable overrides the default
tolerance where a command accepts one.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

from .calculus import GridSpec
from .errors import MeanLabError
from .harmonic import check_representable, construct_candidate, verify_identity
from .inequalities import CHAIN_NAMES, builtin_chain, run_chain_suite
from .means import MEAN_IDS, deform_mean, eval_mean, seiffert_of_mean
from .reporting import FORMATS, CheckRecord, build_report, render_report
from .suite import run_full_suite

__all__ = ["run_command", "main"]

_DEFAULT_GRID = "0.05:0.95:19"


def _parse_zgrid(spec: str) -> GridSpec:
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise MeanLabError(f"malformed grid {spec!r}, expected start:end:count[:log]")
    try:
        start, end, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise MeanLabError(f"malformed grid {spec!r}: non-numeric field") from None
    spacing = "uniform"
    if len(parts) == 4:
        if parts[3] != "log":
            raise MeanLabError(f"malformed grid {spec!r}: trailing field must be 'log'")
        spacing = "log"
    return GridSpec(start, end, count, spacing)


def _parse_pairs(spec: str) -> list[tuple[float, float]] | None:
    if spec == "default":
        return None  # commands fall back to their own defaults
    path = Path(spec)
    if not path.exists():
        raise MeanLabError(f"pair file {spec!r} not found")
    pairs = []
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["x", "y"]:
            raise MeanLabError(f"pair file {spec!r} needs the header 'x,y'")
        for row in reader:
            try:
                pairs.append((float(row["x"]), float(row["y"])))
            except (TypeError, ValueError):
                raise MeanLabError(f"pair file {spec!r}: bad row {row!r}") from None
    if not pairs:
        raise MeanLabError(f"pair file {spec!r} contains no pairs")
    return pairs


def _default_tol(flag_value: float | None, fallback: float) -> float:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("MEANLAB_TOL")
    if env:
        try:
            value = float(env)
        except ValueError:
            raise MeanLabError(f"MEANLAB_TOL={env!r} is not a number") from None
        if value <= 0:
            raise MeanLabError("MEANLAB_TOL must be positive")
        return value
    return fallback


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise MeanLabError(f"cannot write report to {out!r}: {exc}") from None


def _emit_report(records: list[CheckRecord], fmt: str, out: str | None) -> int:
    doc = build_report(records)
    _emit(render_report(doc, fmt), out)
    return 0 if doc.summary["fail"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanlab",
        description="Evaluate bivariate means and verify their Seiffert-function "
                    "calculus, harmonic representations, and inequality chains.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a catalog mean at a pair")
    p_eval.add_argument("--mean", required=True, metavar="ID",
                        help=f"one of: {', '.join(MEAN_IDS)}")
    p_eval.add_argument("x", type=float)
    p_eval.add_argument("y", type=float)

    p_seif = sub.add_parser("seiffert", help="evaluate the Seiffert function of a mean")
    p_seif.add_argument("--mean", required=True, metavar="ID")
    group = p_seif.add_mutually_exclusive_group(required=True)
    group.add_argument("--z", type=float, help="single abscissa in (0, 1)")
    group.add_argument("--zgrid", metavar="S:E:C[:log]", help="print 'z f(z)' lines")

    p_def = sub.add_parser("deform", help="evaluate the t-deformation of a mean")
    p_def.add_argument("--mean", required=True, metavar="ID")
    p_def.add_argument("--t", type=float, required=True, help="parameter in (0, 1]")
    p_def.add_argument("x", type=float)
    p_def.add_argument("y", type=float)

    p_harm = sub.add_parser("harmonic", help="harmonic-representation operations")
    harm_sub = p_harm.add_subparsers(dest="harmonic_command", required=True)

    p_check = harm_sub.add_parser("check", help="probe the representability criterion")
    p_check.add_argument("--mean", required=True, metavar="ID")
    p_check.add_argument("--zgrid", metavar="S:E:C[:log]")
    _add_report_flags(p_check)

    p_con = harm_sub.add_parser("construct", help="print the candidate representer "
                                                  "Seiffert function z m'(z)")
    p_con.add_argument("--mean", required=True, metavar="ID")
    p_con.add_argument("--zgrid", metavar="S:E:C[:log]", default=_DEFAULT_GRID)

    p_ver = harm_sub.add_parser("verify", help="verify the defining integral identity")
    p_ver.add_argument("--mean", required=True, metavar="ID", help="represented mean")
    p_ver.add_argument("--repr", required=True, metavar="ID", dest="representer",
                       help="candidate representer mean")
    p_ver.add_argument("--pairs", default="default", metavar="default|FILE.csv")
    p_ver.add_argument("--tol", type=float, default=None)
    _add_report_flags(p_ver)

    p_ineq = sub.add_parser("ineq", help="inequality chain verification")
    ineq_sub = p_ineq.add_subparsers(dest="ineq_command", required=True)
    p_run = ineq_sub.add_parser("run", help="run one built-in chain on a pair grid")
    p_run.add_argument("--chain", required=True, metavar="NAME",
                       help=f"one of: {', '.join(CHAIN_NAMES)}")
    p_run.add_argument("--pairs", default="default", metavar="default|FILE.csv")
    p_run.add_argument("--tol", type=float, default=None)
    _add_report_flags(p_run)

    p_suite = sub.add_parser("suite", help="run the full reproduction suite")
    p_suite.add_argument("--all", action="store_true",
                         help="run every check (required)")
    _add_report_flags(p_suite)

    return parser


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, default="text")
    parser.add_argument("--out", default=None, metavar="PATH")


def _fmt(value: float) -> str:
    return f"{value:.15g}"


def _cmd_eval(args) -> int:
    print(_fmt(eval_mean(args.mean, args.x, args.y)))
    return 0


def _cmd_seiffert(args) -> int:
    f = seiffert_of_mean(args.mean)
    if args.z is not None:
        print(_fmt(f(args.z)))
        return 0
    for z in _parse_zgrid(args.zgrid).points():
        print(f"{_fmt(z)} {_fmt(f(z))}")
    return 0


def _cmd_deform(args) -> int:
    print(_fmt(deform_mean(args.mean, args.t)(args.x, args.y)))
    return 0


def _cmd_harmonic_check(args) -> int:
    f = seiffert_of_mean(args.mean)
    if args.zgrid is not None:
        verdict = check_representable(f, _parse_zgrid(args.zgrid))
    else:
        verdict = check_representable(f)
    record = CheckRecord(
        check="harmonic-check", name=args.mean,
        passed=verdict.status == "representable",
        z=verdict.witness_z, margin=verdict.margin,
        detail=f"status={verdict.status}"
               + (f", witness z={_fmt(verdict.witness_z)}" if verdict.witness_z else ""))
    return _emit_report([record], args.format, args.out)


def _cmd_harmonic_construct(args) -> int:
    candidate = construct_candidate(seiffert_of_mean(args.mean))
    for z in _parse_zgrid(args.zgrid).points():
        print(f"{_fmt(z)} {_fmt(candidate(z))}")
    return 0


def _cmd_harmonic_verify(args) -> int:
    tol = _default_tol(args.tol, 1e-9)
    report = verify_identity(args.mean, args.representer,
                             _parse_pairs(args.pairs), tol=tol)
    records = [
        CheckRecord(
            check="harmonic-verify",
            name=f"{report.represented}~{report.representer}[{i:02d}]",
            passed=r.passed, x=r.x, y=r.y, z=r.z,
            margin=tol - max(r.product_deviation, r.operator_deviation),
            detail=r.note)
        for i, r in enumerate(report.points)
    ]
    return _emit_report(records, args.format, args.out)


def _cmd_ineq_run(args) -> int:
    tol = _default_tol(args.tol, 1e-10)
    spec = builtin_chain(args.chain)
    report = run_chain_suite(spec, _parse_pairs(args.pairs), tol=tol)
    labels = " <= ".join(label for label, _ in spec.terms)
    records = [CheckRecord(check=f"ineq-{report.name}", name="chain-summary",
                           passed=report.passed, margin=report.min_margin,
                           detail=labels)]
    records.extend(
        CheckRecord(check=f"ineq-{report.name}", name=f"point-{i:03d}",
                    passed=min(p.margins) >= -tol, x=p.x, y=p.y, z=p.z,
                    margin=min(p.margins))
        for i, p in enumerate(report.points)
    )
    for x, y, reason in report.skipped:
        records.append(CheckRecord(check=f"ineq-{report.name}", name="skipped",
                                   passed=False, x=x, y=y, detail=reason))
    return _emit_report(records, args.format, args.out)


def _cmd_suite(args) -> int:
    if not getattr(args, "all", False):
        raise MeanLabError("nothing selected; pass --all to run the suite")
    return _emit_report(run_full_suite(), args.format, args.out)


def run_command(argv: list[str]) -> int:
    """Parse argv and execute; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "eval": _cmd_eval,
        "seiffert": _cmd_seiffert,
        "deform": _cmd_deform,
        "suite": _cmd_suite,
    }
    try:
        if args.command == "harmonic":
            sub_handlers = {
                "check": _cmd_harmonic_check,
                "construct": _cmd_harmonic_construct,
                "verify": _cmd_harmonic_verify,
            }
            return sub_handlers[args.harmonic_command](args)
        if args.command == "ineq":
            return _cmd_ineq_run(args)
        return handlers[args.command](args)
    except MeanLabError as exc:
        print(f"meanlab: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
