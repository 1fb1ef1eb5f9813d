"""Command-line front end.

Verbs map one-to-one onto the library surface: `eval` and `seiffert` for
single evaluations, `deform` for the midpoint deformation, `harmonic
check|construct|verify` for representability work, `ineq run` for the
inequality chains, and `suite --all` for the full reproduction suite.

Check-style commands emit a report document (text, JSON or CSV) and exit
0 only if every requested check passed; usage and domain errors exit 2
with a diagnostic on stderr.  All floats print with 15 significant
digits.  `--tol` sets the tolerance where a command accepts one.

Each handler imports the library modules it runs, and `run_command` parses with the
arguments of its verb only, so a process loads and builds only what its verb needs.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import MeanLabError

__all__ = ["run_command", "main"]

_DEFAULT_GRID = "0.05:0.95:19"

# reporting.FORMATS, kept here so that verbs without a report never load reporting
_FORMATS = ("json", "csv", "text")


def _parse_zgrid(spec: str):
    from ._pairs import GridSpec
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise MeanLabError(f"malformed grid {spec!r}, expected start:end:count[:log]")
    try:
        start, end, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise MeanLabError(f"malformed grid {spec!r}: non-numeric field") from None
    if parts[3:] not in ([], ["log"]):
        raise MeanLabError(f"malformed grid {spec!r}: trailing field must be 'log'")
    return GridSpec(start, end, count, "log" if parts[3:] else "uniform")


def _parse_pairs(spec: str) -> list[tuple[float, float]] | None:
    if spec == "default":
        return None  # commands fall back to their own defaults
    import csv
    from ._pairs import check_pair
    try:
        with open(spec, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]  # blank lines are skipped
    except FileNotFoundError:
        raise MeanLabError(f"pair file {spec!r} not found") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise MeanLabError(f"cannot read pair file {spec!r}: {exc}") from None
    if not rows or [f.strip() for f in rows[0]] != ["x", "y"]:
        raise MeanLabError(f"pair file {spec!r} needs the header 'x,y'")
    pairs = []
    for row in rows[1:]:
        try:
            x, y = map(float, row)
            check_pair(x, y)
        except ValueError as exc:  # DomainError included
            raise MeanLabError(f"pair file {spec!r}: bad row {row!r} ({exc})") from None
        pairs.append((x, y))
    if not pairs:
        raise MeanLabError(f"pair file {spec!r} contains no pairs")
    return pairs


def _default_tol(flag_value: float | None, fallback: float) -> float:
    """--tol, else the fallback; --tol must be finite and > 0."""
    if flag_value is None:
        return fallback
    if not (math.isfinite(flag_value) and flag_value > 0):
        raise MeanLabError(f"--tol must be finite and positive, got {flag_value!r}")
    return flag_value


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise MeanLabError(f"cannot write report to {out!r}: {exc}") from None


def _emit_report(records: list, fmt: str, out: str | None) -> int:
    from .reporting import build_report, render_report
    doc = build_report(records)
    _emit(render_report(doc, fmt), out)
    return 0 if doc.summary["fail"] == 0 else 1


def _eval_args(p: argparse.ArgumentParser) -> None:
    from .means import MEAN_IDS
    p.add_argument("--mean", required=True, metavar="ID",
                   help=f"one of: {', '.join(MEAN_IDS)}")
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.set_defaults(handler=_cmd_eval)


def _seiffert_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mean", required=True, metavar="ID")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--z", type=float, help="single abscissa in (0, 1)")
    group.add_argument("--zgrid", metavar="S:E:C[:log]", help="print 'z f(z)' lines")
    p.set_defaults(handler=_cmd_seiffert)


def _deform_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mean", required=True, metavar="ID")
    p.add_argument("--t", type=float, required=True, help="parameter in (0, 1]")
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.set_defaults(handler=_cmd_deform)


def _harmonic_args(p: argparse.ArgumentParser) -> None:
    harm_sub = p.add_subparsers(dest="harmonic_command", required=True)

    p_check = harm_sub.add_parser("check", help="probe the representability criterion")
    p_check.add_argument("--mean", required=True, metavar="ID")
    p_check.add_argument("--zgrid", metavar="S:E:C[:log]")
    p_check.set_defaults(handler=_cmd_harmonic_check)
    _add_report_flags(p_check)
    p_con = harm_sub.add_parser("construct", help="print the candidate representer "
                                                  "Seiffert function z m'(z)")
    p_con.add_argument("--mean", required=True, metavar="ID")
    p_con.add_argument("--zgrid", metavar="S:E:C[:log]", default=_DEFAULT_GRID)
    p_con.set_defaults(handler=_cmd_harmonic_construct)
    p_ver = harm_sub.add_parser("verify", help="verify the defining integral identity")
    p_ver.add_argument("--mean", required=True, metavar="ID", help="represented mean")
    p_ver.add_argument("--repr", required=True, metavar="ID", dest="representer",
                       help="candidate representer mean")
    p_ver.add_argument("--pairs", default="default", metavar="default|FILE.csv")
    p_ver.add_argument("--tol", type=float, default=None)
    p_ver.set_defaults(handler=_cmd_harmonic_verify)
    _add_report_flags(p_ver)


def _ineq_args(p: argparse.ArgumentParser) -> None:
    ineq_sub = p.add_subparsers(dest="ineq_command", required=True)
    p_run = ineq_sub.add_parser("run", help="run one built-in chain on a pair grid")
    p_run.add_argument("--chain", required=True, metavar="NAME",
                       help="a built-in chain; an unknown name lists them all")
    p_run.add_argument("--pairs", default="default", metavar="default|FILE.csv")
    p_run.add_argument("--tol", type=float, default=None)
    p_run.set_defaults(handler=_cmd_ineq_run)
    _add_report_flags(p_run)


def _suite_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--all", action="store_true", help="run every check (required)")
    p.set_defaults(handler=_cmd_suite)
    _add_report_flags(p)


_VERBS = {
    "eval": ("evaluate a catalog mean at a pair", _eval_args),
    "seiffert": ("evaluate the Seiffert function of a mean", _seiffert_args),
    "deform": ("evaluate the t-deformation of a mean", _deform_args),
    "harmonic": ("harmonic-representation operations", _harmonic_args),
    "ineq": ("inequality chain verification", _ineq_args),
    "suite": ("run the full reproduction suite", _suite_args),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb, or with the arguments and sub-verbs of `verb` only."""
    parser = argparse.ArgumentParser(
        prog="meanlab",
        description="Evaluate bivariate means and verify their Seiffert-function "
                    "calculus, harmonic representations, and inequality chains.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _VERBS.items():
        p = sub.add_parser(name, help=help_line)
        if verb is None or verb == name:
            add_arguments(p)
    return parser


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=_FORMATS, default="text")
    parser.add_argument("--out", default=None, metavar="PATH")


def _fmt(value: float) -> str:
    return f"{value:.15g}"


def _cmd_eval(args) -> int:
    from .means import eval_mean
    print(_fmt(eval_mean(args.mean, args.x, args.y)))
    return 0


def _cmd_seiffert(args) -> int:
    from .means import seiffert_of_mean
    f = seiffert_of_mean(args.mean)
    if args.z is not None:
        print(_fmt(f(args.z)))
        return 0
    for z in _parse_zgrid(args.zgrid).points():
        print(f"{_fmt(z)} {_fmt(f(z))}")
    return 0


def _cmd_deform(args) -> int:
    from .means import deform_mean
    print(_fmt(deform_mean(args.mean, args.t)(args.x, args.y)))
    return 0


def _cmd_harmonic_check(args) -> int:
    from .harmonic import DEFAULT_CHECK_GRID, check_representable
    from .means import seiffert_of_mean
    from .reporting import CheckRecord
    grid = DEFAULT_CHECK_GRID if args.zgrid is None else _parse_zgrid(args.zgrid)
    verdict = check_representable(seiffert_of_mean(args.mean), grid)
    record = CheckRecord(
        check="harmonic-check", name=args.mean,
        passed=verdict.status == "representable",
        z=verdict.witness_z, margin=verdict.margin,
        detail=f"status={verdict.status}"
               + (f", witness z={_fmt(verdict.witness_z)}" if verdict.witness_z else ""))
    return _emit_report([record], args.format, args.out)


def _cmd_harmonic_construct(args) -> int:
    from .harmonic import construct_candidate
    from .means import seiffert_of_mean
    candidate = construct_candidate(seiffert_of_mean(args.mean))
    for z in _parse_zgrid(args.zgrid).points():
        print(f"{_fmt(z)} {_fmt(candidate(z))}")
    return 0


def _cmd_harmonic_verify(args) -> int:
    from .harmonic import IDENTITY_TOL, verify_identity
    from .means import worst
    from .reporting import CheckRecord
    tol = _default_tol(args.tol, IDENTITY_TOL)
    report = verify_identity(args.mean, args.representer,
                             _parse_pairs(args.pairs), tol=tol)
    records = [
        CheckRecord.within("harmonic-verify",
                           f"{report.represented}~{report.representer}[{i:02d}]",
                           worst(max, (r.product_deviation, r.operator_deviation)), tol,
                           r.note, x=r.x, y=r.y, z=r.z)
        for i, r in enumerate(report.points)
    ]
    return _emit_report(records, args.format, args.out)


def _cmd_ineq_run(args) -> int:
    from .inequalities import CHAIN_TOL, builtin_chain, run_chain_suite
    from .reporting import CheckRecord
    tol = _default_tol(args.tol, CHAIN_TOL)
    spec = builtin_chain(args.chain)
    report = run_chain_suite(spec, _parse_pairs(args.pairs), tol=tol)
    labels = " <= ".join(label for label, _ in spec.terms)
    records = [CheckRecord(check=f"ineq-{report.name}", name="chain-summary",
                           passed=report.passed, margin=report.min_margin,
                           detail=labels)]
    records.extend(
        CheckRecord(check=f"ineq-{report.name}", name=f"point-{i:03d}",
                    passed=p.worst_margin >= -tol, x=p.x, y=p.y, z=p.z,
                    margin=p.worst_margin)
        for i, p in enumerate(report.points)
    )
    for x, y, reason in report.skipped:
        records.append(CheckRecord(check=f"ineq-{report.name}", name="skipped",
                                   passed=False, x=x, y=y, detail=reason))
    return _emit_report(records, args.format, args.out)


def _cmd_suite(args) -> int:
    from .suite import run_full_suite
    if not args.all:
        raise MeanLabError("nothing selected; pass --all to run the suite")
    return _emit_report(run_full_suite(), args.format, args.out)


def run_command(argv: list[str]) -> int:
    """Parse argv and execute; returns the process exit status."""
    # argparse's verb is the first argument that is not an option: the first verb named
    parser = build_parser(next((arg for arg in argv if arg in _VERBS), None))
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except MeanLabError as exc:
        print(f"meanlab: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
