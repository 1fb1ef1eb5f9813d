"""The golden outputs: how they are computed, and the inputs they cover.

This directory records every output of the reproduction as text:

- `reports/`: the 19 report texts, timestamps blanked: `suite --all` in
  json, csv and text, each inequality chain and each harmonic
  representation pair in json;
- `pairs.txt`: what the `pairs` benchmark workload computes for seeds 1,
  7, 13 and 31 (each batch's output digest, then the failure counts);
- `digests.txt`: one SHA-256 line per (function, mean) over the `.hex()`
  bits of each output on the inputs below, or over the type and message of
  what it raised.

`python tests/golden/regen.py` rewrites them from the code in `src/`, and
the tier-1 tests compare the same texts, computed by this module, with the
files.  The values come from the platform's libm: the files record glibc on
x86-64, so a platform whose `math.sin` rounds differently fails the
comparison.  This module imports only the standard library and meanlab.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import math
import random
import re
from collections import namedtuple
from pathlib import Path

from meanlab import (
    CATALOG,
    CHAIN_NAMES,
    MEAN_IDS,
    PAIR_CATALOG,
    ChainSpec,
    MeanDescriptor,
    agm,
    builtin_chain,
    deform_mean,
    eval_mean,
    hh_bounds,
    hh_refined_lower,
    run_chain_suite,
    seiffert_of_mean,
    v_mean,
)
from meanlab.cli import run_command

HERE = Path(__file__).resolve().parent
REPORTS = HERE / "reports"
PAIRS_FILE = HERE / "pairs.txt"
DIGESTS_FILE = HERE / "digests.txt"


# --------------------------------------------------------------------------
# Reports.
# --------------------------------------------------------------------------

def report_argvs() -> dict[str, list[str]]:
    """File name -> CLI argv of each report."""
    argvs = {f"suite.{ext}": ["suite", "--all", "--format", fmt]
             for ext, fmt in (("json", "json"), ("csv", "csv"), ("txt", "text"))}
    for chain in CHAIN_NAMES:
        argvs[f"ineq-{chain}.json"] = ["ineq", "run", "--chain", chain, "--format", "json"]
    for e in PAIR_CATALOG:
        argvs[f"verify-{e.represented}-{e.representer}.json"] = [
            "harmonic", "verify", "--mean", e.represented, "--repr", e.representer,
            "--format", "json"]
    return argvs


# reporting.build_report's stamp, "%Y-%m-%dT%H:%M:%S+00:00"
_TIMESTAMP = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00")


def report(argv: list[str]) -> str:
    """What `meanlab ARGV` prints, run in-process, its timestamp blanked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run_command(argv)
    return _TIMESTAMP.sub("", out.getvalue())


# --------------------------------------------------------------------------
# The `pairs` benchmark workload.
# --------------------------------------------------------------------------

PAIRS_SEEDS = (1, 7, 13, 31)


def pairs_section(seed: int, work) -> str:
    """One seed's part of pairs.txt, from a `workloads.PairsWorkload` that has
    run and checked every batch once."""
    lines = [f"seed {seed}"]
    lines += [f"  batch {item}: {output_digest}"
              for item, output_digest in sorted(work.digests.items())]
    lines.append(f"  ops: {work.failed} of {work.attempted} failed")
    lines.append(f"  evaluations: {work.evals_failed} of {work.evals_attempted} failed")
    lines += [f"    {key}: {failed}" for key, failed in sorted(work.breakdown.items())]
    lines += [f"  problem: {problem}" for problem in work.problems]
    return "\n".join(lines) + "\n"


def pairs_sections(text: str) -> dict[int, str]:
    """pairs.txt split by seed."""
    parts = re.split(r"(?m)^(?=seed )", text)
    return {int(part.split(maxsplit=2)[1]): part for part in parts if part}


# --------------------------------------------------------------------------
# Digest inputs.
# --------------------------------------------------------------------------

def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def seeded_pairs(seed, count):
    """(s (1-z), s (1+z)) as the `pairs` benchmark draws them: every tenth
    scale from all positive doubles, the others from [1e-6, 1e6]."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        z = _log_uniform(rng, 1e-12, 1.0 - 1e-12)
        if len(pairs) % 10 == 9:
            scale = 2.0 ** rng.uniform(-1074.0, 1024.0)
        else:
            scale = _log_uniform(rng, 1e-6, 1e6)
        x, y = scale * (1.0 - z), scale * (1.0 + z)
        if x > 0.0 and math.isfinite(y):
            pairs.append((x, y))
    return pairs


#: Pairs that raised before they were rescaled, ties, and a pulled pair that
#: ties, on top of the draws.
EDGE_PAIRS = [
    (1e-300, 1e-200), (1e308, 1.7e308), (5e-324, 1e-323), (1e-320, 1e-310),
    (1e200, 1e300), (1.0, 1e308), (2.0, 2.0), (5e-324, 5e-324), (1e308, 1e308),
    (1.0, math.nextafter(1.0, 2.0)), (3.0, 1.0),
]

WINDOW = (2.0 ** -500, 2.0 ** 500)


def as_given(x, y):
    """Whether the library evaluates (x, y) as given: a tie, or inside the window."""
    lo, hi = sorted((x, y))
    return lo == hi or WINDOW[0] <= lo and hi <= WINDOW[1]


ALL_PAIRS = seeded_pairs(17, 2000) + EDGE_PAIRS
#: Evaluated as given.
PAIRS = [p for p in ALL_PAIRS if as_given(*p)]
#: Evaluated at unit scale.
FAR_PAIRS = [p for p in ALL_PAIRS if not as_given(*p)]

NEAR_TIE_SCALES = (1.0, 2.0 ** 600, 2.0 ** -600, 1e-3, 7e5)


def near_tie_pairs(seed=54, per_gap=200):
    """(x, y) with y 1, 2 or 3 ulp above x, at each of NEAR_TIE_SCALES."""
    rng = random.Random(seed)
    pairs = []
    for scale in NEAR_TIE_SCALES:
        for gap in (1, 2, 3):
            for _ in range(per_gap):
                x = y = scale * rng.uniform(1.0, 2.0)
                for _ in range(gap):
                    y = math.nextafter(y, math.inf)
                pairs.append((x, y))
    return pairs


#: Where rounding can put a mean or a Hermite-Hadamard bound outside [lo, hi].
NEAR_TIES = near_tie_pairs()

#: Exponents more than 1024 apart: these are evaluated as given.
FAR_APART = [(5e-324, 1e308), (1e-320, 1e300), (2.0 ** -520, 2.0 ** 520)]

#: Pairs that fail the pair check.
INVALID_PAIRS = [(0.0, 1.0), (-1.0, 2.0), (math.nan, 1.0), (1.0, math.inf)]

#: Ids that are no catalog id; a list is unhashable, so its lookup raises TypeError.
BAD_IDS = ["nope", None, 3, []]

DEFORMED = deform_mean("P", 0.3)

#: The means that eval_mean, hh_bounds and hh_refined_lower are digested for.
MEANS = [*MEAN_IDS, DEFORMED, *BAD_IDS]

#: The input of every digested function of a pair.
DIGEST_PAIRS = ALL_PAIRS + NEAR_TIES + FAR_APART + INVALID_PAIRS


def _seiffert_points():
    rng = random.Random(29)
    zs = [_log_uniform(rng, 1e-12, 1.0 - 1e-12) for _ in range(1000)]
    return zs + [rng.random() or 0.5 for _ in range(1000)]


SEIFFERT_POINTS = _seiffert_points()

CATALOG_CHAIN = ChainSpec("catalog", tuple((m, CATALOG[m]) for m in MEAN_IDS))

#: A chain point whose last margin is NaN, and one whose last term raises.
NAN_PAIR = PAIRS[7]
RAISE_PAIR = PAIRS[11]
PLANTED_GRID = PAIRS[:40] + INVALID_PAIRS + [(2.0, 2.0), (5e-324, 5e-324)]


def _planted(lo, hi):
    if (lo, hi) == tuple(sorted(NAN_PAIR)):
        return math.nan
    if (lo, hi) == tuple(sorted(RAISE_PAIR)):
        raise ZeroDivisionError("planted")
    return CATALOG["C"].evaluator(lo, hi)


def planted_chain(last=_planted):
    """G <= A <= last; the planted term comes last, so its NaN is not the
    point's first margin, which the builtin min() would keep."""
    terms = (("G", CATALOG["G"]), ("A", CATALOG["A"]))
    return ChainSpec("planted", (*terms, ("X", MeanDescriptor("X", "", last))))


# --------------------------------------------------------------------------
# Digests.
# --------------------------------------------------------------------------

Raised = namedtuple("Raised", "kind message")


def outcome(fn, *args):
    """fn's result, or the type name and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - every kind is recorded
        return Raised(type(exc).__name__, str(exc))


def bits(value):
    """A value with every float replaced by its .hex(), which also tells NaNs
    apart from numbers; tuples (records included) become plain tuples."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return value


def _sha256(outputs) -> str:
    h = hashlib.sha256()
    for output in outputs:
        h.update(repr(bits(output)).encode())
        h.update(b"\n")
    return h.hexdigest()


def ident(mean) -> str:
    """The digest line's name of a mean: its id, or the repr of a bad id."""
    if isinstance(mean, MeanDescriptor):
        return mean.id
    return mean if mean in MEAN_IDS else repr(mean)


def _over_pairs(fn, *head):
    return lambda: _sha256(outcome(fn, *head, x, y) for x, y in DIGEST_PAIRS)


def _seiffert(mean_id):
    # the function is built when the digest is taken, from the row as it is then
    return lambda: _sha256(map(seiffert_of_mean(mean_id).func, SEIFFERT_POINTS))


def _chain(spec_of, pairs=DIGEST_PAIRS):
    return lambda: _sha256([run_chain_suite(spec_of(), pairs)])


def digest_jobs() -> dict[str, object]:
    """'function mean' -> a function that computes the digest now."""
    jobs = {}
    for fn in (eval_mean, hh_bounds, hh_refined_lower):
        for mean in MEANS:
            jobs[f"{fn.__name__} {ident(mean)}"] = _over_pairs(fn, mean)
    for mean_id in MEAN_IDS:
        jobs[f"seiffert_of_mean {mean_id}"] = _seiffert(mean_id)
    jobs["agm AGM"] = _over_pairs(agm)
    jobs["v_mean V"] = _over_pairs(v_mean)
    for name in CHAIN_NAMES:
        jobs[f"run_chain_suite {name}"] = _chain(lambda name=name: builtin_chain(name))
    jobs["run_chain_suite catalog"] = _chain(lambda: CATALOG_CHAIN)
    jobs["run_chain_suite planted"] = _chain(planted_chain, PLANTED_GRID)
    return jobs


DIGEST_JOBS = digest_jobs()

_digests: dict[str, str] = {}


def digest(key: str) -> str:
    """The digest of one job, computed once per process."""
    if key not in _digests:
        _digests[key] = DIGEST_JOBS[key]()
    return _digests[key]


def digests_text() -> str:
    return "".join(f"{key} {digest(key)}\n" for key in DIGEST_JOBS)


def recorded(path: Path) -> str:
    """A golden file's text, its bytes decoded as they are (no newline translation)."""
    return path.read_bytes().decode()


def read_digests() -> dict[str, str]:
    """digests.txt as 'function mean' -> digest."""
    return dict(line.rsplit(" ", 1) for line in recorded(DIGESTS_FILE).splitlines())


def check_same(name: str, golden: str, now: str) -> None:
    """Raise AssertionError with a unified diff unless the two texts are equal."""
    __tracebackhide__ = True  # pytest shows the diff, not this frame
    if golden != now:
        diff = difflib.unified_diff(golden.splitlines(keepends=True),
                                    now.splitlines(keepends=True),
                                    f"recorded/{name}", f"now/{name}")
        raise AssertionError(f"{name} moved; if on purpose, run python tests/golden/regen.py"
                             f" and name what moved\n{''.join(diff)}")
