"""The three workloads: seeded inputs, one op, and the check of its output.

Every workload is a closed loop with one client.  Item `i` of a workload
is `items[i % len(items)]`, so the ops of a run, split over several
worker processes, cycle through the same seeded inputs, and an item met
twice must give the same output.

The generators at the top are pure (they take the catalog lists as
arguments); the workload classes import meanlab when they are built.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

#: Every WIDE_EVERY-th pair of a batch draws its scale from all positive
#: doubles, subnormals included; the others from [1e-6, 1e6], the range on
#: which the catalog's properties are claimed to hold.
WIDE_EVERY = 10
PAIRS_PER_BATCH = 200
BATCHES = 8
Z_RANGE = (1e-12, 1.0 - 1e-12)
NARROW_SCALE = (1e-6, 1e6)
# 2**e for e uniform here is log-uniform over the positive doubles
WIDE_EXPONENT = (-1074.0, 1024.0)

CLI_KINDS = ("eval", "seiffert-z", "seiffert-zgrid", "deform", "harmonic-check",
             "harmonic-construct", "harmonic-verify", "ineq-run")
#: Each cycle of CLI invocations holds every kind this many times, so the
#: cost of a cycle does not depend on the seed.
CLI_KIND_REPEATS = 2


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def is_wide(index: int) -> bool:
    """Whether pair `index` of a batch is drawn from all positive doubles."""
    return index % WIDE_EVERY == WIDE_EVERY - 1


def generate_pair(rng: random.Random, wide: bool) -> tuple[float, float]:
    """(s (1-z), s (1+z)) with z log-uniform on Z_RANGE, both finite and positive."""
    while True:
        z = _log_uniform(rng, *Z_RANGE)
        if wide:
            scale = 2.0 ** rng.uniform(*WIDE_EXPONENT)
        else:
            scale = _log_uniform(rng, *NARROW_SCALE)
        x, y = scale * (1.0 - z), scale * (1.0 + z)
        if x > 0.0 and math.isfinite(y):
            return x, y


def generate_batches(seed: int, mean_ids) -> list[dict]:
    """BATCHES batches of PAIRS_PER_BATCH pairs, each with one (mean id, t) to deform."""
    rng = random.Random(seed)
    batches = []
    for _ in range(BATCHES):
        pairs = [generate_pair(rng, is_wide(j)) for j in range(PAIRS_PER_BATCH)]
        deform = (rng.choice(mean_ids), 1.0 - rng.random())  # t in (0, 1]
        batches.append({"pairs": pairs, "deform": deform})
    return batches


def _pair_args(rng: random.Random) -> list[str]:
    x, y = generate_pair(rng, wide=False)
    return [repr(x), repr(y)]


def _zgrid(rng: random.Random) -> str:
    spec = f"{rng.uniform(0.01, 0.3)!r}:{rng.uniform(0.6, 0.99)!r}:{rng.randint(5, 40)}"
    return spec + ":log" if rng.random() < 0.5 else spec


def generate_argvs(seed: int, mean_ids, chain_names, pairs) -> list[list[str]]:
    """A seeded cycle of `meanlab` argument lists, every kind CLI_KIND_REPEATS times.

    `pairs` holds the (represented, representer) ids that `harmonic verify`
    draws from.  Check-style commands ask for CSV, which has no timestamp.
    """
    rng = random.Random(seed)
    kinds = list(CLI_KINDS) * CLI_KIND_REPEATS
    rng.shuffle(kinds)
    argvs = []
    for kind in kinds:
        if kind == "eval":
            argv = ["eval", "--mean", rng.choice(mean_ids), *_pair_args(rng)]
        elif kind == "seiffert-z":
            argv = ["seiffert", "--mean", rng.choice(mean_ids),
                    "--z", repr(rng.uniform(0.001, 0.999))]
        elif kind == "seiffert-zgrid":
            argv = ["seiffert", "--mean", rng.choice(mean_ids), "--zgrid", _zgrid(rng)]
        elif kind == "deform":
            argv = ["deform", "--mean", rng.choice(mean_ids),
                    "--t", repr(1.0 - rng.random()), *_pair_args(rng)]
        elif kind == "harmonic-check":
            argv = ["harmonic", "check", "--mean", rng.choice(mean_ids),
                    "--format", "csv"]
        elif kind == "harmonic-construct":
            argv = ["harmonic", "construct", "--mean", rng.choice(mean_ids),
                    "--zgrid", _zgrid(rng)]
        elif kind == "harmonic-verify":
            represented, representer = rng.choice(pairs)
            argv = ["harmonic", "verify", "--mean", represented, "--repr", representer,
                    "--format", "csv"]
        else:
            argv = ["ineq", "run", "--chain", rng.choice(chain_names), "--format", "csv"]
        argvs.append(argv)
    return argvs


def digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


class Workload:
    """Counts and digests shared by the three workloads.

    `attempted`/`failed` count ops; `evals_attempted`/`evals_failed` count
    evaluations as the workload defines them, `breakdown` the failed ones
    by call group and id, and `group_attempted` the attempted ones by call
    group.  `digests` maps an item index to the digest of its output.
    """

    def __init__(self, items: int) -> None:
        self.items = items
        self.attempted = 0
        self.failed = 0
        self.evals_attempted = 0
        self.evals_failed = 0
        self.breakdown: Counter = Counter()
        self.group_attempted: Counter = Counter()
        self.digests: dict[int, str] = {}
        self.problems: list[str] = []

    def count(self, key: str, ok: bool, timed: bool) -> None:
        """Count one evaluation of call group and id `key` ("group:id")."""
        if timed:
            self.evals_attempted += 1
            self.group_attempted[key.split(":")[0]] += 1
            if not ok:
                self.evals_failed += 1
                self.breakdown[key] += 1

    def record(self, i: int, ok: bool, output_digest: str, timed: bool = True) -> None:
        """Count op i; it fails if `ok` is false or its output digest differs."""
        item = i % self.items
        if self.digests.setdefault(item, output_digest) != output_digest:
            ok = False
            self.problems.append(f"item {item}: output differs from its first run")
        if timed:
            self.attempted += 1
            self.failed += not ok


class CliWorkload(Workload):
    """Sequential fresh `python -m meanlab` processes; an op is one invocation.

    The expected exit code and stdout of every argv come from the
    in-process `run_command`, computed at set-up.  With `trace_dir` set,
    each invocation runs under `cli_child.py`, which traces it and writes
    its spans there.
    """

    def __init__(self, seed: int, env: dict, trace_dir: Path | None = None) -> None:
        import meanlab
        from meanlab.cli import run_command

        self.argvs = generate_argvs(
            seed, list(meanlab.MEAN_IDS), list(meanlab.CHAIN_NAMES),
            [(e.represented, e.representer) for e in meanlab.PAIR_CATALOG])
        super().__init__(len(self.argvs))
        self.env = env
        self.trace_dir = trace_dir
        self.expected = []
        for argv in self.argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run_command(argv)
            self.expected.append((code, buf.getvalue()))

    def command(self, i: int) -> list[str]:
        argv = self.argvs[i % self.items]
        if self.trace_dir is None:
            return [sys.executable, "-m", "meanlab", *argv]
        child = Path(__file__).with_name("cli_child.py")
        return [sys.executable, str(child), str(self.trace_dir / f"op{i}"), str(i), *argv]

    def run(self, i: int):
        proc = subprocess.run(self.command(i), env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, check=False)
        return proc.returncode, proc.stdout.decode()

    def check(self, i: int, output, timed: bool = True) -> None:
        argv = self.argvs[i % self.items]
        ok = output == self.expected[i % self.items]
        if not ok:
            self.problems.append(f"{argv}: got {output!r}")
        self.count(f"cli:{' '.join(argv[:2])}", ok, timed)
        self.record(i, ok, digest(output), timed)


_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


class SuiteWorkload(Workload):
    """In-process run_full_suite -> build_report -> render_report(doc, "json").

    The suite's inputs are fixed by the program, so there is one item and
    the seed is unused.  An op fails if its summary counts a failed check,
    or if its report, timestamp removed, differs from the first op's.
    """

    def __init__(self, seed: int) -> None:
        import meanlab
        from meanlab import reporting

        super().__init__(1)
        self.run_full_suite = meanlab.run_full_suite
        self.build_report = reporting.build_report
        self.render_report = reporting.render_report

    def run(self, i: int):
        doc = self.build_report(self.run_full_suite())
        return doc.summary, self.render_report(doc, "json")

    def check(self, i: int, output, timed: bool = True) -> None:
        summary, text = output
        ok = summary["fail"] == 0
        if not ok:
            self.problems.append(f"suite summary {summary}")
        self.count("suite:run_full_suite", ok, timed)
        self.record(i, ok, digest(_TIMESTAMP.sub("", text)), timed)


class PairsWorkload(Workload):
    """A seeded stream of positive pairs; an op is one batch through

    eval_mean for all 18 catalog ids, one seeded deform_mean, hh_bounds and
    hh_refined_lower for the eight representers, and run_chain_suite for
    all eight chains.

    An evaluation fails if it raises, or its value is non-finite, outside
    [min, max] or not bitwise equal to the value at (y, x); a chain point
    fails if it is skipped or a margin is below -CHAIN_TOL or not a number.
    Failures on the wide pairs are counted and broken down by mean id; an
    op fails only on a failure at a narrow pair, or on output that differs
    from an earlier run of the same batch.
    """

    def __init__(self, seed: int) -> None:
        import meanlab
        from meanlab.errors import MeanLabError
        from meanlab.inequalities import CHAIN_TOL

        self.errors = (MeanLabError, ArithmeticError, ValueError)
        self.mean_ids = list(meanlab.MEAN_IDS)
        self.representers = [e.representer for e in meanlab.PAIR_CATALOG]
        self.chains = [meanlab.builtin_chain(name) for name in meanlab.CHAIN_NAMES]
        self.batches = generate_batches(seed, self.mean_ids)
        for batch in self.batches:
            batch["wide"] = {p for j, p in enumerate(batch["pairs"]) if is_wide(j)}
        super().__init__(len(self.batches))
        self.eval_mean = meanlab.eval_mean
        self.deform_mean = meanlab.deform_mean
        self.hh_bounds = meanlab.hh_bounds
        self.hh_refined_lower = meanlab.hh_refined_lower
        self.run_chain_suite = meanlab.run_chain_suite
        self.chain_tol = CHAIN_TOL

    def _evaluate(self, fn, *args):
        try:
            return fn(*args)
        except self.errors as exc:
            return exc

    def run(self, i: int):
        batch = self.batches[i % self.items]
        pairs = batch["pairs"]
        evaluate = self._evaluate
        evals = [[evaluate(self.eval_mean, mean_id, x, y) for x, y in pairs]
                 for mean_id in self.mean_ids]
        deformed = self.deform_mean(*batch["deform"])
        deforms = [evaluate(deformed, x, y) for x, y in pairs]
        bounds = [[(evaluate(self.hh_bounds, rep, x, y),
                    evaluate(self.hh_refined_lower, rep, x, y)) for x, y in pairs]
                  for rep in self.representers]
        chains = [self.run_chain_suite(spec, pairs) for spec in self.chains]
        return evals, deformed, deforms, bounds, chains

    def _tally(self, key: str, pair, ok: bool, wide: set, timed: bool) -> bool:
        """Count one evaluation; False if it is a failure at a narrow pair."""
        self.count(key, ok, timed)
        return ok or pair in wide

    def check(self, i: int, output, timed: bool = True) -> None:
        evals, deformed, deforms, bounds, chains = output
        batch = self.batches[i % self.items]
        pairs = batch["pairs"]
        wide = batch["wide"]
        ok = True

        def good(value, x, y, again) -> bool:
            return (isinstance(value, float) and math.isfinite(value)
                    and min(x, y) <= value <= max(x, y) and value == again)

        for mean_id, row in zip(self.mean_ids, evals):
            for (x, y), value in zip(pairs, row):
                again = self._evaluate(self.eval_mean, mean_id, y, x)
                ok &= self._tally(f"eval:{mean_id}", (x, y), good(value, x, y, again),
                                  wide, timed)
        mean_id = batch["deform"][0]
        for (x, y), value in zip(pairs, deforms):
            again = self._evaluate(deformed, y, x)
            ok &= self._tally(f"deform:{mean_id}", (x, y), good(value, x, y, again),
                              wide, timed)
        for rep, row in zip(self.representers, bounds):
            for (x, y), (sandwich, refined) in zip(pairs, row):
                swapped = self._evaluate(self.hh_bounds, rep, y, x)
                if isinstance(sandwich, tuple) and isinstance(swapped, tuple):
                    fine = all(good(v, x, y, w) for v, w in zip(sandwich, swapped))
                else:
                    fine = False
                ok &= self._tally(f"hh_bounds:{rep}", (x, y), fine, wide, timed)
                again = self._evaluate(self.hh_refined_lower, rep, y, x)
                ok &= self._tally(f"hh_refined_lower:{rep}", (x, y),
                                  good(refined, x, y, again), wide, timed)
        for report in chains:
            for point in report.points:
                fine = all(m >= -self.chain_tol for m in point.margins)
                ok &= self._tally(f"chain:{report.name}", (point.x, point.y), fine,
                                  wide, timed)
            for x, y, _ in report.skipped:
                ok &= self._tally(f"chain:{report.name}", (x, y), False, wide, timed)
        if not ok:
            self.problems.append(f"batch {i % self.items}: failure at a narrow pair")
        self.record(i, ok, digest(evals, deforms, bounds,
                                  [(r.points, r.skipped, r.min_margin) for r in chains]),
                    timed)


def build(name: str, seed: int, env: dict, trace_dir: Path | None) -> Workload:
    if name == "cli":
        return CliWorkload(seed, env, trace_dir)
    if name == "suite":
        return SuiteWorkload(seed)
    if name == "pairs":
        return PairsWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
