"""Benchmark of meanlab: three workloads, end-to-end and per-layer metrics.

Usage, from the root of the repository (no install needed; src/ is used):

    python3 perfbench/run.py --workload cli|suite|pairs --seed N --seconds S --trace 0|1

With --trace 0 the run starts WORKERS worker processes one after the
other.  Each imports meanlab, builds the seeded inputs and runs one
untimed op (its set-up), then runs timed ops for S / WORKERS seconds,
continuing the cycle of inputs where the previous worker stopped.  The
end-to-end metrics come from all of them.  With --trace 1 one untraced
and one traced worker run S / 2 seconds each, and the per-layer metrics
come from the traced one.  See perfbench/README.md for the workloads and
what each metric should move.

The last line printed is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The run exits 1 if an output check failed, 2 if meanlab's sources are
not under ./src.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import speed

WORKLOADS = ("cli", "suite", "pairs")
OP_SIZE = {
    "cli": "one fresh `python -m meanlab` process",
    "suite": "one full suite and its JSON report",
    "pairs": "one batch of 200 pairs (1 in 10 over all positive doubles)",
}
EVAL_UNIT = {"cli": "invocations", "suite": "suite runs", "pairs": "evaluations"}

#: Set-ups per untraced run; set-up time is their median.
WORKERS = 5
#: The tail percentile keeps at least this many samples beyond it.
TAIL_BEYOND = 10
#: Everything, workers and probes, ends within this many seconds.
TIME_LIMIT_S = 170.0
PROBE_REPEATS = 3
OUT_DIR = Path("perfbench") / "out"

END_TO_END = (
    ("setup_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"),
)

_SUITE_CHECKS = ("roundtrip", "harmonic_identities", "negative_results", "gauss_identity",
                 "elliptic_cross_validation", "coefficient_facts", "inequality_chains",
                 "envelope_lemmas", "operator_properties", "one_directional")

#: (name, unit, better) of every per-layer metric, as BENCHMARK.json lists them.
PER_LAYER = (
    ("cli.python_start_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.import_numpy_ms", "ms", "lower"),
    ("cli.run_command_ms", "ms", "lower"),
    ("cli.startup_share", "ratio", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("means.calls", "count", "lower"),
    ("means.check_pair_calls", "count", "lower"),
    ("means.self_ms", "ms", "lower"),
    ("means.eval_us", "us", "lower"),
    ("means.fail_ratio", "ratio", "lower"),
    ("elliptic.calls", "count", "lower"),
    ("elliptic.agm_calls", "count", "lower"),
    ("elliptic.ellip_k_agm_calls", "count", "lower"),
    ("elliptic.ellip_k_series_calls", "count", "lower"),
    ("elliptic.ellip_k_quadrature_calls", "count", "lower"),
    ("elliptic.ellip_e_calls", "count", "lower"),
    ("elliptic.self_ms", "ms", "lower"),
    ("calculus.integrate_calls", "count", "lower"),
    ("calculus.integrand_evals", "count", "lower"),
    ("calculus.evals_per_integrate", "count", "lower"),
    ("calculus.i_operator_calls", "count", "lower"),
    ("calculus.probe_shape_ms", "ms", "lower"),
    ("calculus.self_ms", "ms", "lower"),
    ("harmonic.verify_identity_ms", "ms", "lower"),
    ("harmonic.check_representable_ms", "ms", "lower"),
    ("harmonic.self_ms", "ms", "lower"),
    ("inequalities.chain_points", "count", "higher"),
    ("inequalities.skipped_points", "count", "lower"),
    ("inequalities.run_chain_suite_ms", "ms", "lower"),
    ("inequalities.self_ms", "ms", "lower"),
    *((f"suite.{check}_ms", "ms", "lower") for check in _SUITE_CHECKS),
    ("suite.self_ms", "ms", "lower"),
    ("reporting.build_ms", "ms", "lower"),
    ("reporting.render_ms", "ms", "lower"),
    ("reporting.self_ms", "ms", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.spans_per_op", "count", "lower"),
)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it.

    That is the sample with exactly TAIL_BEYOND samples after it in sorted
    order; its percentile is the share of samples at or below it.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave none with {TAIL_BEYOND} beyond it")
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(latencies_ns: list[float], setups_ns: list[float]) -> dict[str, float]:
    """Timing metrics of a run from its op latencies and set-up times."""
    value, pct = tail(latencies_ns)
    metrics = {"op_p50_ms": statistics.median(latencies_ns) / 1e6,
               "op_tail_ms": value / 1e6, "tail_pct": pct,
               "ops_per_s": len(latencies_ns) * 1e9 / sum(latencies_ns)}
    if setups_ns:
        metrics["setup_s"] = statistics.median(setups_ns) / 1e9
    return metrics


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(self.end - time.monotonic(), 1.0)


def run_worker(root: Path, env: dict, deadline: Deadline, *, workload: str, seed: int,
               seconds: float, start: int, trace: int) -> tuple[tuple[int, float], dict]:
    """Run one worker; return its set-up time (start to "ready", in ns, measured
    and normalized) and its result."""
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--start", str(start), "--trace", str(trace), "--out", str(root / OUT_DIR)]
    reference = speed.INTERPRETER
    before = reference.median_ns()
    t0 = time.perf_counter_ns()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter_ns() - t0
        speed_ns = (before + reference.median_ns()) / 2
        setup = (setup, setup * reference.nominal_ms * 1e6 / speed_ns)
        rest, _ = proc.communicate("go\n", timeout=deadline.left())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker for {workload} ran out of time") from None
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    return setup, json.loads(rest.splitlines()[-1])


def _timed(cmd: list[str], env: dict, deadline: Deadline) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True,
                          timeout=deadline.left())
    return (time.perf_counter() - t0) * 1e3, proc.stderr


def probe_startup(env: dict, deadline: Deadline) -> dict[str, float]:
    """Interpreter start, and `import meanlab` and numpy's part of it per -X importtime."""
    starts, imports, numpys = [], [], []
    for _ in range(PROBE_REPEATS):
        starts.append(_timed([sys.executable, "-c", "pass"], env, deadline)[0])
        _, err = _timed([sys.executable, "-X", "importtime", "-c", "import meanlab"],
                        env, deadline)
        cumulative = {}
        for line in err.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) / 1e3
        imports.append(cumulative["meanlab"])
        numpys.append(cumulative.get("numpy", 0.0))
    return {"cli.python_start_ms": statistics.median(starts),
            "cli.import_ms": statistics.median(imports),
            "cli.import_numpy_ms": statistics.median(numpys)}


def machine_context(root: Path, seed: int, startup: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"  # a checkout without .git has no commit to report
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (root / ".git" / ref[5:]).is_file():
            commit = (root / ".git" / ref[5:]).read_text().strip()
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit, "seed": seed,
            "cli.import_numpy_ms": startup["cli.import_numpy_ms"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "meanlab" / "__init__.py").is_file():
        print("perfbench: run from the root of a meanlab checkout (no src/meanlab here)",
              file=sys.stderr)
        return 2
    (root / OUT_DIR).mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "MEANLAB_TOL"}
    env["PYTHONPATH"] = str(root / "src")
    deadline = Deadline(TIME_LIMIT_S)

    shares = [args.seconds / 2] * 2 if args.trace else [args.seconds / WORKERS] * WORKERS
    setups, results = [], []
    start = 0
    for k, share in enumerate(shares):
        setup, result = run_worker(root, env, deadline, workload=args.workload,
                                   seed=args.seed, seconds=share, start=start,
                                   trace=int(args.trace and k == 1))
        setups.append(setup)
        results.append(result)
        if not args.trace:  # traced and untraced workers run the same inputs
            start += len(result["latencies_ns"])
    startup = probe_startup(env, deadline)
    context = machine_context(root, args.seed, startup)

    problems = [p for r in results for p in r["problems"]]
    digests: dict[str, str] = {}
    for r in results:
        for item, digest in r["digests"].items():
            if digests.setdefault(item, digest) != digest:
                problems.append(f"item {item}: output differs between workers")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not problems
    evals_attempted = sum(r["evals_attempted"] for r in results)
    evals_failed = sum(r["evals_failed"] for r in results)
    breakdown: dict[str, int] = {}
    for r in results:
        for key, n in r["breakdown"].items():
            breakdown[key] = breakdown.get(key, 0) + n

    print(f"meanlab benchmark: workload {args.workload}, seed {args.seed}, "
          f"{attempted} ops in {len(results)} workers; op = {OP_SIZE[args.workload]}")
    print(f"  fail_ratio {evals_failed / evals_attempted if evals_attempted else 0.0:.6g} ratio"
          f"  ({evals_failed} failed of {evals_attempted} {EVAL_UNIT[args.workload]})")
    for key in sorted(breakdown, key=lambda k: (-breakdown[k], k)):
        print(f"    {key}: {breakdown[key]} failed")
    if args.trace:
        layers = dict(startup)
        layers.update(results[1]["layers"])
        layers["trace.overhead"] = (statistics.median(results[1]["normalized_ns"])
                                    / statistics.median(results[0]["normalized_ns"]))
        mean_failed = sum(n for r in results for k, n in r["breakdown"].items()
                          if k.startswith("eval:"))
        mean_attempted = sum(r["group_attempted"].get("eval", 0) for r in results)
        layers["means.fail_ratio"] = mean_failed / mean_attempted if mean_attempted else 0.0
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: {"value": layers.get(name, 0.0), "unit": units[name]}
                   for name, _, _ in PER_LAYER}
        print(f"  {results[1]['inputs_traced']} distinct inputs traced; "
              f"digest of their work counts {results[1]['counts_digest'][:16]}")
    else:
        normalized = end_to_end([ns for r in results for ns in r["normalized_ns"]],
                                [norm for _, norm in setups])
        measured = end_to_end([ns for r in results for ns in r["latencies_ns"]],
                              [raw for raw, _ in setups])
        normalized["peak_rss_mb"] = max(r["peak_rss_kb"] for r in results) / 1024.0
        metrics = {name: {"value": normalized[name], "unit": unit}
                   for name, unit in END_TO_END}
        print(f"  op_tail_ms is p{normalized['tail_pct']:.2f}: {TAIL_BEYOND} of {attempted} "
              f"samples beyond it; setup_s is the median of {len(setups)} set-ups")
        print("  times are normalized to nominal machine speed; as measured: "
              + ", ".join(f"{k} {measured[k]:.6g}" for k, _ in END_TO_END if k in measured))
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    print("context " + json.dumps(context))
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    (root / OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({**summary, "context": context, "breakdown": breakdown,
                    "evals_attempted": evals_attempted, "evals_failed": evals_failed,
                    "setups_ns": setups,
                    "latencies_ns": [r["latencies_ns"] for r in results],
                    "normalized_ns": [r["normalized_ns"] for r in results]},
                   indent=1))
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
